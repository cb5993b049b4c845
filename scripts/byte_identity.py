#!/usr/bin/env python3
"""Check that the working tree gives the same bytes as a git revision.

usage: python scripts/byte_identity.py REF

REF (a commit, branch or tag) is exported with `git archive` (`revision.py`)
into a temporary directory. Every case then runs `python -m ep_nozzle.cli` once from REF's
`src` and once from this tree's, with one BLAS thread, in a fresh directory
with the same relative `--out`, so that `config_echo.ini` is comparable too.
For each case the script prints, per output file, stdout, stderr and exit
code, this tree's sha256 prefix (or exit code) and whether REF's is the same.
An item that differs gets a magnitude too:
- a field file (CSV or VTK, read with the benchmark's readers in
  `perfbench/gates.py`): per field, the largest |difference| over the
  field's sup in REF's output;
- a JSON report or sweep, and stdout, which prints one: the Picard counts
  (`iterations`) of both sides and the largest relative difference of the
  numeric entries, with where it is.
Its last line says whether all items are identical and gives the largest of
these field differences and the largest of these relative report
differences over all cases, each with its case. It exits 0 when all items
are identical, and 1 otherwise.

The cases are the four benchmark workloads of `perfbench/workloads.py` at
seeds 0-3, a 3D `perturb-domain` with snapshots, a 3D `perturb-domain` on a
33x33x65 grid (three slabs in a Picard step, each forming its own J_T), a 2D
`perturb-domain` on the 160x320 grid of solve-2d (two slabs in a Picard step
and in the strong residuals), the wall-shear ladder of `sweep` in 2D and 3D,
and two refused solves: a `solve` out of Picard steps (exit 3) and a `perturb-domain` whose first iterate leaves the iteration
ball (exit 4), whose stderr line and config echo are compared. The configs
are built from this tree's `perfbench/workloads.py`, which the script only
reads.
"""

import argparse
import configparser
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]

from gates import read_csv_fields, read_vtk_fields  # noqa: E402
from revision import ONE_THREAD, export  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


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
    yield ("perturb-3d/three-slabs", "perturb-domain",
           edited(solve3d.config(1), domain_map={"eps": "0.0025"},
                  nozzle={"nodes_cross": "33", "nodes_cross2": "33", "nodes_axial": "65"}))
    yield ("perturb-2d/two-slabs", "perturb-domain",
           edited(WORKLOADS["perturb-2d"].config(0),
                  nozzle={k: str(v) for k, v in WORKLOADS["solve-2d"].nozzle.items()}))
    yield ("sweep-3d/eps-ladder", "sweep",
           edited(solve3d.config(0), domain_map={"eps": "0.001,0.002,0.004,0.008"}))
    yield ("sweep-2d/eps-ladder", "sweep",
           edited(WORKLOADS["sweep-2d"].config(3), domain_map={"eps": "0.001,0.002,0.004"}))
    yield ("solve-2d/max-iter-2", "solve",
           edited(WORKLOADS["solve-2d"].config(0), iteration={"max_iter": "2"}))
    yield ("perturb-2d/small-ball", "perturb-domain",
           edited(WORKLOADS["perturb-2d"].config(0), iteration={"ball_multiplier": "0.5"}))


def run(src, workdir, command, text):
    """Run one case from the package in src. Returns {item: sha256 or exit
    code} and {item: path of its bytes}."""
    workdir.mkdir(parents=True)
    (workdir / "run.ini").write_text(text)
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "ep_nozzle.cli", command, "--config", "run.ini", "--out", "out"],
        cwd=workdir, env=env, capture_output=True,
    )
    paths = {"stdout": workdir / "stdout.txt", "stderr": workdir / "stderr.txt"}
    paths["stdout"].write_bytes(proc.stdout)
    paths["stderr"].write_bytes(proc.stderr)
    out = workdir / "out"
    for path in sorted(out.rglob("*")) if out.exists() else ():
        if path.is_file():
            paths[str(path.relative_to(out))] = path
    digests = {item: hashlib.sha256(path.read_bytes()).hexdigest()
               for item, path in paths.items()}
    digests["exit code"] = proc.returncode
    return digests, paths


def _numbers(value, where=""):
    """The numeric leaves of a JSON value by their path."""
    if isinstance(value, dict):
        return {k: v for key, item in value.items() for k, v in _numbers(item, f"{where}.{key}").items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value) for k, v in _numbers(item, f"{where}[{i}]").items()}
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {where.lstrip("."): float(value)}
    return {}


def _rel(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def magnitude(item, ref_path, here_path, dim, seen=None):
    """How far this tree's output item is from REF's, in one line, or "".
    seen, a dict, gets the largest field difference over the sup ("field")
    or the largest relative report difference ("report") of the item."""
    seen = {} if seen is None else seen
    if ref_path is None or here_path is None:
        return ""
    if ref_path.suffix in (".csv", ".vtk"):
        read = read_vtk_fields if ref_path.suffix == ".vtk" else lambda p: read_csv_fields(p, dim)
        try:
            ref, here = read(ref_path), read(here_path)
        except ValueError:
            return "unreadable fields"
        if ref.keys() != here.keys() or any(ref[k].shape != here[k].shape for k in ref):
            return "fields differ in name or size"
        diffs = {k: np.max(np.abs(here[k] - ref[k])) / max(np.max(np.abs(ref[k])), 1e-300)
                 for k in ref}
        seen["field"] = max(diffs.values(), default=0.0)
        return ", ".join(f"{k} {d:.2e}" for k, d in diffs.items())
    if ref_path.suffix == ".json" or item == "stdout":
        try:
            ref, here = json.loads(ref_path.read_text()), json.loads(here_path.read_text())
        except ValueError:
            return ""
        parts = []
        if isinstance(ref, dict) and isinstance(here, dict):
            parts.append(f"iterations {ref.get('iterations')} -> {here.get('iterations')}")
        ref_n, here_n = _numbers(ref), _numbers(here)
        if ref_n.keys() != here_n.keys():
            parts.append("numeric entries differ in place")
        elif ref_n:
            worst = max(ref_n, key=lambda k: _rel(ref_n[k], here_n[k]))
            seen["report"] = _rel(ref_n[worst], here_n[worst])
            parts.append(f"max rel {seen['report']:.2e} at {worst}")
        return ", ".join(parts)
    return ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="git revision to compare with")
    args = ap.parse_args()
    all_same = True
    largest = {"field": (0.0, "no case"), "report": (0.0, "no case")}
    with tempfile.TemporaryDirectory(prefix="byte_identity_") as tmp:
        tmp = Path(tmp)
        ref_src = export(args.ref, tmp / "ref")
        for name, command, text in cases():
            case_dir = tmp / "runs" / name.replace("/", "_")
            ref, ref_paths = run(ref_src, case_dir / "ref", command, text)
            here, here_paths = run(ROOT / "src", case_dir / "here", command, text)
            parser = configparser.ConfigParser()
            parser.read_string(text)
            dim = parser.getint("nozzle", "dim", fallback=2)
            for item in sorted(set(ref) | set(here)):
                same = ref.get(item) == here.get(item)
                all_same &= same
                shown = str(here.get(item, "missing"))[:12]
                line = f"{name:24} {item:24} {shown:12} {'identical' if same else 'DIFFERS'}"
                if not same:
                    seen = {}
                    line += f"  {magnitude(item, ref_paths.get(item), here_paths.get(item), dim, seen)}"
                    for kind, value in seen.items():
                        if value > largest[kind][0]:
                            largest[kind] = (value, name)
                print(line.rstrip())
    print(f"{'all identical' if all_same else 'some outputs differ'}; largest field difference "
          "over the sup {:.2e} ({}), largest relative report difference {:.2e} ({})".format(
              *largest["field"], *largest["report"]))
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
