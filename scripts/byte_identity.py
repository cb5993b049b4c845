#!/usr/bin/env python3
"""Check that the working tree gives the same bytes as a git revision.

usage: python scripts/byte_identity.py REF

REF (a commit, branch or tag) is exported with `git archive` into a temporary
directory. Every case then runs `python -m ep_nozzle.cli` once from REF's
`src` and once from this tree's, with one BLAS thread, in a fresh directory
with the same relative `--out`, so that `config_echo.ini` is comparable too.
For each case the script prints, per output file, stdout, stderr and exit
code, this tree's sha256 prefix (or exit code) and whether REF's is the same.
It exits 0 when all are, and 1 otherwise.

The cases are the four benchmark workloads of `perfbench/workloads.py` at
seeds 0-3, a 3D `perturb-domain` with snapshots, and the wall-shear ladder of
`sweep` in 2D and 3D. The configs are built from this tree's
`perfbench/workloads.py`, which the script only reads.
"""

import argparse
import configparser
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

ONE_THREAD = {key: "1" for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


def edited(text, **sections):
    """A config text with the given keys set, section by section."""
    parser = configparser.ConfigParser()
    parser.read_string(text)
    for section, keys in sections.items():
        if not parser.has_section(section):
            parser.add_section(section)
        for key, value in keys.items():
            parser.set(section, key, value)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def cases():
    """(name, subcommand, config text) of every case."""
    for name, workload in WORKLOADS.items():
        for seed in range(4):
            yield f"{name}/seed{seed}", workload.command, workload.config(seed)
    solve3d = WORKLOADS["solve-3d"]
    yield ("perturb-3d/snapshots", "perturb-domain",
           edited(solve3d.config(1), domain_map={"eps": "0.0025"},
                  output={"snapshots": "true"}))
    yield ("sweep-3d/eps-ladder", "sweep",
           edited(solve3d.config(0), domain_map={"eps": "0.001,0.002,0.004,0.008"}))
    yield ("sweep-2d/eps-ladder", "sweep",
           edited(WORKLOADS["sweep-2d"].config(3), domain_map={"eps": "0.001,0.002,0.004"}))


def run(src, workdir, command, text):
    """Run one case from the package in src; returns {item: sha256 or exit code}."""
    workdir.mkdir(parents=True)
    (workdir / "run.ini").write_text(text)
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "ep_nozzle.cli", command, "--config", "run.ini", "--out", "out"],
        cwd=workdir, env=env, capture_output=True,
    )
    digests = {"stdout": hashlib.sha256(proc.stdout).hexdigest(),
               "stderr": hashlib.sha256(proc.stderr).hexdigest(),
               "exit code": proc.returncode}
    out = workdir / "out"
    for path in sorted(out.rglob("*")) if out.exists() else ():
        if path.is_file():
            digests[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="git revision to compare with")
    args = ap.parse_args()
    all_same = True
    with tempfile.TemporaryDirectory(prefix="byte_identity_") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", args.ref], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "ref", filter="data")
        for name, command, text in cases():
            case_dir = tmp / "runs" / name.replace("/", "_")
            ref = run(tmp / "ref" / "src", case_dir / "ref", command, text)
            here = run(ROOT / "src", case_dir / "here", command, text)
            for item in sorted(set(ref) | set(here)):
                same = ref.get(item) == here.get(item)
                all_same &= same
                shown = str(here.get(item, "missing"))[:12]
                print(f"{name:24} {item:24} {shown:12} {'identical' if same else 'DIFFERS'}")
    print("all identical" if all_same else "some outputs differ")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
