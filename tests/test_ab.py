"""`scripts/ab.py` times a command in a fresh interpreter and reports the
command's own peak RSS, under the benchmark harness's address-space limit.
Its own imports stay small, and a launcher that has touched more memory than
the command does not raise the figure."""

import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab.py"

# the launcher's own import, then a run of `background` after it touched
# 150 MB; prints (wall s, peak MB) and the names of numpy modules it loaded
LAUNCHER = f"""
import importlib.util, pathlib, sys
spec = importlib.util.spec_from_file_location("ab", {str(SCRIPT)!r})
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "numpy")
ballast = bytearray(150 << 20)
workdir = pathlib.Path(sys.argv[1])
(workdir / "run.ini").write_text("[background]\\node_steps = 64\\n")
print((ab.timed({str(ROOT / "src")!r}, workdir, "background"), loaded))
"""


def test_peak_is_the_commands_own_under_the_limit(tmp_path):
    out = subprocess.run([sys.executable, "-c", LAUNCHER, str(tmp_path)], check=True,
                         capture_output=True, text=True).stdout
    (wall, peak), loaded = eval(out)
    assert loaded == []
    assert wall > 0.0
    # numpy and the package, far below the launcher's 150 MB
    assert 5.0 < peak < 120.0, peak
    assert (tmp_path / "out" / "background.json").exists()


def _module():
    spec = importlib.util.spec_from_file_location("ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_entry_sets_the_address_space_limit_before_the_import(tmp_path):
    # the entry with the package replaced by one whose cli reports the limit
    # in force when it was imported
    pkg = tmp_path / "src" / "ep_nozzle"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(
        "import resource\n"
        "LIMIT = resource.getrlimit(resource.RLIMIT_AS)[0]\n"
        "def main(argv):\n"
        "    print(LIMIT, argv)\n"
        "    return 0\n")
    proc = subprocess.run([sys.executable, "-c", _module().ENTRY, "peak.txt", "solve"],
                          cwd=tmp_path, env={"PYTHONPATH": str(tmp_path / "src")},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == [str(3 << 30), "['solve']"]
    peak = (tmp_path / "peak.txt").read_text()
    if os.path.exists("/proc/self/status"):
        assert int(peak) > 0
    else:
        assert peak == "n/a"
