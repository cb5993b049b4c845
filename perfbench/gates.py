"""Correctness gate applied to every benchmark command.

A command passes when
- it exited with code 0 (not out of memory, not timed out);
- its report says `converged` with `subsonic_margin > 0`;
- its strong-form residual is at most `RESIDUAL_MULTIPLE` times the residual
  floor of the grid (the residual of the unperturbed background on the flat
  nozzle, recorded in `reference.json`). `perturb-domain` is held to this
  through its pushforward residual on the deformed domain, which also carries
  the discretization error of the deformation and so gets a larger multiple;
- its output fields agree with the reference within `FIELD_RTOL` of each
  field's sup norm, at `SAMPLES` fixed nodes and in sup and rms; a sweep
  agrees in its sup norms and slopes, and in its contraction factors within
  `RATIO_RTOL` (ratios of small iterate differences carry more rounding);
- every output file is byte-identical to that of the run's first command, as
  identical config and seed promise.
The tolerances are loose enough for a different exact linear solver.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from workloads import VARIANTS

FIELD_RTOL = 1e-8
RATIO_RTOL = 1e-6
RESIDUAL_MULTIPLE = {"solve": 8.0, "perturb-domain": 25.0}
SAMPLES = 64


def sample_rows(n: int) -> list:
    return sorted({round(i * (n - 1) / (SAMPLES - 1)) for i in range(SAMPLES)})


def read_csv_fields(path: Path, dim: int) -> dict:
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: table[:, i] for i, name in enumerate(names) if i >= dim}


def read_vtk_fields(path: Path) -> dict:
    """SCALARS sections of a legacy ASCII VTK file, in file order."""
    lines = path.read_text().splitlines()
    n = next(int(l.split()[1]) for l in lines if l.startswith("POINT_DATA"))
    fields = {}
    for i, line in enumerate(lines):
        if line.startswith("SCALARS"):
            fields[line.split()[1]] = np.array(lines[i + 2:i + 2 + n], dtype=float)
    return fields


def read_fields(workload, outdir: Path) -> dict:
    if workload.fmt == "vtk":
        return read_vtk_fields(outdir / "fields_deformed.vtk")
    return read_csv_fields(outdir / "fields.csv", workload.nozzle["dim"])


def summarize_fields(fields: dict) -> dict:
    out = {}
    for name, f in fields.items():
        out[name] = {
            "samples": [float(f[i]) for i in sample_rows(f.size)],
            "sup": float(np.max(np.abs(f))),
            "rms": float(np.sqrt(np.mean(f * f))),
        }
    return out


def sweep_file(outdir: Path):
    found = sorted(outdir.glob("sweep_*.json"))
    return found[0] if len(found) == 1 else None


def summarize_sweep(payload: dict) -> dict:
    keys = ("sup_norms", "contraction_factors", "slope_norm", "slope_contraction")
    return {k: payload[k] for k in keys}


def expected_outputs(path: Path, workload, seed: int) -> dict:
    """Reference entry of the config that `seed` selects, with the residual floor."""
    entry = json.loads(path.read_text())["workloads"][workload.name]
    return {"floor": entry["residual_floor"], **entry["variants"][str(seed % VARIANTS)]}


def _close(value, ref, tol):
    return abs(value - ref) <= tol


def compare_fields(summary: dict, expected: dict) -> list:
    problems = []
    for name, ref in expected.items():
        got = summary.get(name)
        if got is None:
            problems.append(f"field {name} missing")
            continue
        tol = FIELD_RTOL * max(ref["sup"], 1e-300)
        bad = [i for i, (a, b) in enumerate(zip(got["samples"], ref["samples"]))
               if not _close(a, b, tol)]
        if bad or len(got["samples"]) != len(ref["samples"]):
            problems.append(f"field {name} differs from the reference at {len(bad)} sampled nodes")
        for key in ("sup", "rms"):
            if not _close(got[key], ref[key], tol):
                problems.append(f"field {name} {key} {got[key]!r} != reference {ref[key]!r}")
    return problems


def compare_sweep(got: dict, ref: dict) -> list:
    problems = []
    pairs = [("sup_norms", FIELD_RTOL), ("contraction_factors", RATIO_RTOL)]
    for key, rtol in pairs:
        a, b = got[key], ref[key]
        if len(a) != len(b) or any(not _close(x, y, rtol * abs(y)) for x, y in zip(a, b)):
            problems.append(f"sweep {key} differ from the reference")
    for key in ("slope_norm", "slope_contraction"):
        if not _close(got[key], ref[key], RATIO_RTOL):
            problems.append(f"sweep {key} {got[key]!r} != reference {ref[key]!r}")
    return problems


def _verify_outputs(workload, outdir: Path, expected: dict) -> list:
    """Checks of one command's outputs against the report rules and the reference."""
    problems = []
    if workload.command == "sweep":
        return compare_sweep(summarize_sweep(json.loads(sweep_file(outdir).read_text())),
                             expected["sweep"])
    report = json.loads((outdir / workload.outputs[0]).read_text())
    if report.get("converged") is not True:
        problems.append("report: not converged")
    if not report.get("subsonic_margin", 0.0) > 0.0:
        problems.append(f"report: subsonic_margin {report.get('subsonic_margin')}")
    if workload.command == "perturb-domain":
        residual = max(report["pushforward_residual"].values())
    else:
        residual = report["nonlinear_residual"]
    multiple = RESIDUAL_MULTIPLE[workload.command]
    if not residual <= multiple * expected["floor"]:
        problems.append(f"residual {residual:.3e} above {multiple} x floor "
                        f"{expected['floor']:.3e}")
    problems += compare_fields(summarize_fields(read_fields(workload, outdir)), expected["fields"])
    return problems


def check_command(workload, cmd, expected: dict, first: dict) -> list:
    """Problems found with one command; an empty list means it passed.

    `first` holds the output hashes and verdict of the run's first complete
    command; later commands with identical bytes share its verdict.
    """
    if cmd.status != "ok":
        return [f"status {cmd.status}: {' '.join(cmd.stderr)}"]
    names = list(workload.outputs)
    if workload.command == "sweep":
        found = sweep_file(cmd.outdir)
        if found is None:
            return ["sweep output file missing"]
        names.append(found.name)
    missing = [n for n in names if not (cmd.outdir / n).is_file()]
    if missing:
        return [f"output missing: {', '.join(missing)}"]
    hashes = {n: hashlib.sha256((cmd.outdir / n).read_bytes()).hexdigest() for n in names}
    if not first:
        first["hashes"] = hashes
        try:
            first["problems"] = _verify_outputs(workload, cmd.outdir, expected)
        except (KeyError, ValueError, TypeError) as exc:
            first["problems"] = [f"malformed output: {exc!r}"]
        return list(first["problems"])
    changed = [n for n in names if hashes[n] != first["hashes"].get(n)]
    if changed:
        return [f"not byte-identical to the run's first command: {', '.join(changed)}"]
    return list(first["problems"])
