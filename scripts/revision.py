"""What the comparison scripts (`byte_identity.py`, `ab.py`) share: a git
revision exported as files, and the environment of one BLAS thread."""

import io
import subprocess
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ONE_THREAD = {key: "1" for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


def export(ref, dest):
    """The files of git revision ref (a commit, branch or tag) of this
    repository, written under dest by `git archive`. Returns dest's `src`."""
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return Path(dest) / "src"
