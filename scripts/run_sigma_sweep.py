#!/usr/bin/env python3
"""Sweep the data-perturbation magnitude and fit the linear-stability slopes.

Writes one row per sigma (fixed-point norms, contraction factor, residual)
and prints the fitted log-log slopes of the solution norm and of the
contraction factor, both expected close to one.
"""

import argparse
import csv
import json
from pathlib import Path

from ep_nozzle import GasLaw, IterationConfig, OneDParams, PicardState, build_grid
from ep_nozzle import integrate_ivp, stability_sweep
from ep_nozzle.ode1d import aligned_steps


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sigmas", type=float, nargs="+",
                    default=[1e-4, 2e-4, 4e-4, 8e-4])
    ap.add_argument("--nodes-cross", type=int, default=64)
    ap.add_argument("--nodes-axial", type=int, default=128)
    ap.add_argument("--rho0", type=float, default=1.2)
    ap.add_argument("--E0", type=float, default=0.1)
    ap.add_argument("--J0", type=float, default=0.5)
    ap.add_argument("--out", type=Path, default=Path("out/sigma_sweep"))
    args = ap.parse_args()

    law = GasLaw(gamma=2.0, k0=1.0)
    grid = build_grid(dim=2, shape=(args.nodes_cross, args.nodes_axial))
    n_steps = aligned_steps(1024, args.nodes_axial - 1)
    background = integrate_ivp(law, OneDParams(args.J0, args.rho0, args.E0, 1.0, 1.0), n_steps)
    state = PicardState(law, background, grid)

    sweep = stability_sweep(IterationConfig(), state, args.sigmas)

    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma", "sup_norm", "contraction", "iterations", "residual"])
        for s, n, c, rep in zip(sweep.sigmas, sweep.sup_norms, sweep.contraction, sweep.reports):
            writer.writerow([s, n, c, rep.iterations, rep.nonlinear_residual])
    summary = {
        "slope_norm": sweep.slope_norm,
        "slope_contraction": sweep.slope_contraction,
        "sigmas": sweep.sigmas,
    }
    (args.out / "summary.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary, indent=2))


if __name__ == "__main__":
    main()
