#!/usr/bin/env python3
"""Record `reference.json`: the outputs every benchmark config must reproduce.

usage (from the root of a checkout): python3 perfbench/record_reference.py

Runs every workload on each of its `VARIANTS` configs and stores sampled
output fields (or the sweep summary) per config, plus the residual floor of
each workload's grid. The committed file was recorded from the program at
the commit that introduced the benchmark; re-recording it from a later
commit would make the output check compare that commit with itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from gates import (  # noqa: E402
    read_fields, sample_rows, summarize_fields, summarize_sweep, sweep_file,
)
from run import CHILD_ENV, WORK, child_env  # noqa: E402
from workloads import TARGET_ITERATIONS, VARIANTS, WORKLOADS  # noqa: E402

MAX_ATTEMPTS = 20


def residual_floor(workload) -> float:
    """Strong-form residual of the unperturbed background on the workload's grid."""
    from ep_nozzle import cli, config, driver

    cfg = config.parse_config(workload.config(0))
    grid = cli._grid(cfg)
    state = driver.PicardState(cli._law(cfg), cli._background(cfg, grid), grid)
    return driver.residual_floor(state)[0]


def record_variant(workload, variant, attempt, tmp: Path) -> dict:
    cfg_path = tmp / "run.ini"
    cfg_path.write_text(workload.config(variant, attempt))
    outdir = tmp / f"{workload.name}_{variant}"
    subprocess.run([sys.executable, "-m", "ep_nozzle.cli", workload.command,
                    "--config", str(cfg_path), "--out", str(outdir)],
                   check=True, env=child_env(), stdout=subprocess.DEVNULL)
    if workload.command == "sweep":
        return {"attempt": attempt,
                "sweep": summarize_sweep(json.loads(sweep_file(outdir).read_text()))}
    report = json.loads((outdir / workload.outputs[0]).read_text())
    residual = (max(report["pushforward_residual"].values())
                if workload.command == "perturb-domain" else report["nonlinear_residual"])
    return {"attempt": attempt, "fields": summarize_fields(read_fields(workload, outdir)),
            "iterations": report["iterations"], "residual": residual}


def main():
    os.environ.update(CHILD_ENV)
    out = {"workloads": {}}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for workload in WORKLOADS.values():
            floor = residual_floor(workload)
            variants = {}
            for v in range(VARIANTS):
                for attempt in range(MAX_ATTEMPTS):
                    entry = record_variant(workload, v, attempt, Path(tmp))
                    if entry.get("iterations", TARGET_ITERATIONS) == TARGET_ITERATIONS:
                        break
                else:
                    raise SystemExit(f"{workload.name} {v}: no config in {MAX_ATTEMPTS} "
                                     f"attempts took {TARGET_ITERATIONS} Picard steps")
                variants[str(v)] = entry
                extra = {k: entry[k] for k in ("attempt", "iterations", "residual") if k in entry}
                print(workload.name, v, extra, f"floor {floor:.3e}", flush=True)
            out["workloads"][workload.name] = {
                "rows": sample_rows(workload.nodes), "residual_floor": floor, "variants": variants}
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
