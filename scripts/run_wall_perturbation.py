#!/usr/bin/env python3
"""Sweep the wall-shear magnitude and record the response of the flow.

For each deformation size eps: solve the transformed problem on the reference
grid, record the fixed-point norm, the correction magnitudes, and the
physical residual evaluated on the deformed domain.
"""

import argparse
import csv
import json
from pathlib import Path

import numpy as np

from ep_nozzle import (
    FieldPair,
    GasLaw,
    IterationConfig,
    OneDParams,
    PicardState,
    build_grid,
    integrate_ivp,
    perturb_data,
    shear_map,
    solve_perturbed,
)
from ep_nozzle.domainmap import correction_terms, jacobian_JT, pushforward_residual
from ep_nozzle.ode1d import aligned_steps


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--eps", type=float, nargs="+", default=[1e-3, 2e-3, 4e-3, 8e-3])
    ap.add_argument("--sigma", type=float, default=0.0)
    ap.add_argument("--nodes-cross", type=int, default=33)
    ap.add_argument("--nodes-axial", type=int, default=65)
    ap.add_argument("--out", type=Path, default=Path("out/wall_sweep"))
    args = ap.parse_args()

    law = GasLaw(gamma=2.0, k0=1.0)
    grid = build_grid(dim=2, shape=(args.nodes_cross, args.nodes_axial))
    n_steps = aligned_steps(1024, args.nodes_axial - 1)
    background = integrate_ivp(law, OneDParams(0.5, 1.2, 0.1, 1.0, 1.0), n_steps)
    state = PicardState(law, background, grid)
    data = perturb_data(background, grid, args.sigma)
    zero = FieldPair(np.zeros(grid.n_nodes), np.zeros(grid.n_nodes))

    rows = []
    for eps in args.eps:
        dmap = shear_map(eps, grid.L, dim=2, cross_extents=grid.cross_extents)
        JT, detJT = jacobian_JT(dmap, grid)
        corr = correction_terms(law, state, JT, detJT, zero, data.b)
        pair, report = solve_perturbed(dmap, IterationConfig(), data, state)
        resid, _ = pushforward_residual(dmap, state, pair, data)
        rows.append({
            "eps": eps,
            "sup_norm": pair.sup(),
            "sup_H1": float(np.max(np.abs(corr.H1))),
            "sup_H2": float(np.max(np.abs(corr.H2))),
            "iterations": report.iterations,
            "pushforward_residual": resid,
        })

    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "wall_sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    eps_arr = np.array([r["eps"] for r in rows])
    summary = {
        "slope_response": float(np.polyfit(np.log(eps_arr),
                                           np.log([r["sup_norm"] for r in rows]), 1)[0]),
        "slope_corrections": float(np.polyfit(np.log(eps_arr),
                                              np.log([r["sup_H1"] for r in rows]), 1)[0]),
    }
    (args.out / "summary.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary, indent=2))


if __name__ == "__main__":
    main()
