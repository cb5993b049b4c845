"""Command-line front end.

Subcommands: background | solve | sweep | perturb-domain | verify.
Exit codes: 0 success, 1 failed verification, usage or config error, 2 background
breakdown, 3 non-contraction or iteration budget, 4 admissibility (see `FAILURES`).
"""

from __future__ import annotations

import argparse
import configparser
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import coeffs, domainmap, driver, elliptic, export, grid as gridmod, ode1d
from .errors import (
    AdmissibilityError,
    BreakdownError,
    EPError,
    FoldOverError,
    MaxIterationsError,
    NonContractionError,
    NotSubsonicError,
    VacuumError,
)
from .gas import GasLaw

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BREAKDOWN = 2
EXIT_NONCONTRACTION = 3
EXIT_ADMISSIBILITY = 4

# (exception classes, exit code, stderr label); the first matching row wins
FAILURES = (
    ((BreakdownError, NotSubsonicError), EXIT_BREAKDOWN, "background breakdown"),
    ((NonContractionError, MaxIterationsError), EXIT_NONCONTRACTION, "iteration failure"),
    ((AdmissibilityError, VacuumError, FoldOverError), EXIT_ADMISSIBILITY, "admissibility"),
    ((EPError, configparser.Error, OSError), EXIT_FAIL, "error"),
)


def _add_common(parser):
    parser.add_argument("--config", type=Path, default=None, help="config file (INI sections)")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--format", choices=("csv", "vtk"), default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--emit-template", action="store_true",
                        help="print the documented config template and exit")


def _load(args):
    """The config file's values (the template's without one) under the flags,
    checked once with the flags applied."""
    values = cfgmod.read_values(args.config.read_text() if args.config else cfgmod.TEMPLATE)
    output = values["output"]
    if args.out is not None:
        output["directory"] = str(args.out)
    if args.format is not None:
        output["format"] = args.format
    if args.seed is not None:
        output["seed"] = args.seed
    return cfgmod.validated(values)


def _law(cfg):
    g = cfg.values["gas"]
    return GasLaw(gamma=g["gamma"], k0=g["k0"], rho_floor=g["rho_floor"])


def _grid(cfg):
    n = cfg.values["nozzle"]
    cross = ("", "2")[:n["dim"] - 1]       # key suffix of each cross axis
    extents = tuple((n[f"cross{a}_min"], n[f"cross{a}_max"]) for a in cross)
    shape = tuple(n[f"nodes_cross{a}"] for a in cross) + (n["nodes_axial"],)
    return gridmod.build_grid(dim=n["dim"], cross_extents=extents, L=n["length"], shape=shape)


def _background(cfg, grid=None):
    b = cfg.values["background"]
    n_steps = b["ode_steps"]
    if grid is not None:
        n_steps = ode1d.aligned_steps(n_steps, grid.shape[-1] - 1)
    params = ode1d.OneDParams(J0=b["J0"], rho0=b["rho0"], E0=b["E0"],
                              L=cfg.values["nozzle"]["length"], b=b["b0"])
    return ode1d.integrate_ivp(_law(cfg), params, n_steps)


def _inputs(cfg):
    """Gas law, grid and background: every library range check and a background
    breakdown fire here, before any file is written."""
    law = _law(cfg)
    grid = _grid(cfg)
    return law, grid, _background(cfg, grid)


def _amplitudes(cfg):
    p = cfg.values["perturbation"]
    return driver.Amplitudes(phi_en=p["c_phi_en"], phi_ex=p["c_phi_ex"],
                             pex=p["c_pex"], bernoulli=p["c_bernoulli"],
                             charge=p["c_charge"])


def _iteration_config(cfg):
    it = cfg.values["iteration"]
    return driver.IterationConfig(
        ball_multiplier=it["ball_multiplier"], max_iter=it["max_iter"],
        tol_floor=it["tol_floor"], tol_scale=it["tol_scale"],
        seed=cfg.values["output"]["seed"],
    )


def _outdir(cfg):
    out = Path(cfg.values["output"]["directory"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_fields(cfg, grid, fields, path_base, cross=None):
    """Fields on the reference grid, or on the deformed one when cross holds
    the mapped cross coordinates."""
    if cfg.values["output"]["format"] == "vtk":
        if cross is None:
            export.export_field_vtk(grid, fields, path_base.with_suffix(".vtk"))
        else:
            export.export_deformed_vtk(grid, cross, fields, path_base.with_suffix(".vtk"))
    else:
        export.export_field_csv(grid, fields, path_base.with_suffix(".csv"), cross=cross)


def _echo_config(cfg, outdir):
    export.write_text(outdir / "config_echo.ini", cfgmod.serialize_config(cfg))


def cmd_background(cfg) -> int:
    law = _law(cfg)
    sol = _background(cfg)
    outdir = _outdir(cfg)
    _echo_config(cfg, outdir)
    export.write_csv(outdir / "profiles.csv", [
        ("x", sol.xs), ("rho", sol.rho), ("u", sol.u), ("E", sol.E),
        ("phi0", sol.phi0), ("Phi0", sol.Phi0),
    ])
    ok, margins = ode1d.appendixA_admissible(
        law, sol.params.b, sol.params.rho0, sol.params.E0, sol.J0,
        cfg.values["nozzle"]["length"],
    )
    summary = {
        "Phi_en0": sol.phi_en0, "B00": sol.B00, "pex0": sol.pex0,
        "nu0": sol.nu0, "monotone_margins": margins, "monotone_admissible": ok,
    }
    export.write_text(outdir / "background.json", json.dumps(summary, indent=2, sort_keys=True))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _solve_common(cfg, law, grid, background, corrections_map=None, outdir=None):
    state = driver.PicardState(law, background, grid)
    data = driver.perturb_data(background, grid,
                               cfg.values["perturbation"]["sigma"], _amplitudes(cfg))
    itcfg = _iteration_config(cfg)
    on_iterate = None
    if outdir is not None and cfg.values["output"]["snapshots"]:
        # a deformed domain writes its snapshots on the deformed coordinates
        cross = None if corrections_map is None else corrections_map.map_cross(grid)

        def on_iterate(k, pair):
            _write_fields(cfg, grid, {"psi": pair.psi, "Psi": pair.Psi},
                          outdir / f"snapshot_{k:03d}", cross=cross)
    if corrections_map is None:
        pair, report = driver.run_fixed_point(itcfg, data, state, on_iterate=on_iterate)
    else:
        pair, report = domainmap.solve_perturbed(corrections_map, itcfg, data, state,
                                                 on_iterate=on_iterate)
    report.norm_summary = driver.pair_norms(pair, grid, state.op.quad, seed=itcfg.seed)
    return state, data, pair, report


def cmd_solve(cfg) -> int:
    law, grid, background = _inputs(cfg)
    outdir = _outdir(cfg)
    _echo_config(cfg, outdir)
    state, data, pair, report = _solve_common(cfg, law, grid, background, outdir=outdir)
    c = state.coeffs
    fields = {
        "psi": pair.psi, "Psi": pair.Psi,
        "phi": (c.phi0 + grid.sections(pair.psi)).ravel(),
        "Phi": (c.Phi0 + grid.sections(pair.Psi)).ravel(),
    }
    _write_fields(cfg, grid, fields, outdir / "fields")
    export.write_text(outdir / "report.json", report.to_json())
    print(report.to_json())
    return EXIT_OK


def _sha256(data):
    """SHA-256 of data by CPython's builtin module, as `random` takes its
    sha512: hashlib would map OpenSSL (3.3 MB of RSS) into the process."""
    try:
        from _sha2 import sha256            # 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256      # 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data)


def cmd_sweep(cfg) -> int:
    law, grid, background = _inputs(cfg)
    outdir = _outdir(cfg)
    _echo_config(cfg, outdir)
    state = driver.PicardState(law, background, grid)
    itcfg = _iteration_config(cfg)
    sweep = driver.stability_sweep(itcfg, state, cfg.values["sweep"]["sigmas"],
                                   _amplitudes(cfg))
    payload = {
        "sigmas": sweep.sigmas,
        "sup_norms": sweep.sup_norms,
        "contraction_factors": sweep.contraction,
        "iterations": [r.iterations for r in sweep.reports],
        "nonlinear_residuals": [r.nonlinear_residual for r in sweep.reports],
        "slope_norm": sweep.slope_norm,
        "slope_contraction": sweep.slope_contraction,
    }
    eps = cfg.values["domain_map"]["eps"]
    if len(eps) > 1:
        payload["wall"] = domainmap.wall_sweep(itcfg, state, eps)
    tag = _sha256(json.dumps(payload["sigmas"]).encode()).hexdigest()[:10]
    export.write_text(outdir / f"sweep_{tag}.json", json.dumps(payload, indent=2, sort_keys=True))
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_perturb_domain(cfg) -> int:
    eps = cfg.values["domain_map"]["eps"]
    if len(eps) > 1:
        raise EPError("perturb-domain takes one [domain_map] eps; "
                      "`sweep` runs a list of eps as the wall ladder")
    law, grid, background = _inputs(cfg)
    shear = domainmap.shear_map(eps[0], cfg.values["nozzle"]["length"], grid.cross_extents)
    outdir = _outdir(cfg)
    _echo_config(cfg, outdir)
    state, data, pair, report = _solve_common(cfg, law, grid, background,
                                              corrections_map=shear, outdir=outdir)
    resid, parts = domainmap.pushforward_residual(shear, state, pair, data)
    report.meta["pushforward_residual"] = parts
    fields = {"psi": pair.psi, "Psi": pair.Psi}
    _write_fields(cfg, grid, fields, outdir / "fields_deformed", cross=shear.map_cross(grid))
    export.write_text(outdir / "report_perturbed.json", report.to_json())
    print(report.to_json())
    return EXIT_OK


# ---------------------------------------------------------------------------
# invariant checks, shared by `verify` and the acceptance tests (criteria 01
# to 06) at the acceptance sizes, seeds and tolerances; each returns
# (passed, detail)

_LAW = GasLaw(gamma=2.0, k0=1.0)
_EQUILIBRIUM = ode1d.OneDParams(J0=0.5, rho0=1.0, E0=0.0, L=1.0, b=1.0)
_MONOTONE = ode1d.OneDParams(J0=0.5, rho0=1.2, E0=0.1, L=1.0, b=1.0)


def check_structural_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for gamma in (1.0, 1.4, 2.0):
        law = GasLaw(gamma=gamma, k0=1.0)
        z = rng.uniform(0.0, 2.0, size=10_000)
        q = rng.uniform(-0.5, 0.5, size=(10_000, 2))
        d = coeffs.derivatives(law, z, q)
        worst = max(worst, float(np.max(np.abs(d.dA_dz + d.dB_dq))))
    elapsed = time.perf_counter() - t0
    return (worst < 1e-13 and elapsed < 1.0,
            f"max |dA_dz + dB_dq| = {worst:.1e}, {elapsed:.2f} s")


def check_enthalpy_roundtrip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for gamma in (1.0, 1.4, 2.0):
        law = GasLaw(gamma=gamma, k0=1.0)
        s = rng.uniform(-1.5, 5.0, size=10_000)
        worst = max(worst, float(np.max(np.abs(law.enthalpy(law.enthalpy_inverse(s)) - s))))
    elapsed = time.perf_counter() - t0
    return (worst < 1e-12 and elapsed < 1.0,
            f"max |h(h^-1(s)) - s| = {worst:.1e}, {elapsed:.2f} s")


def check_equilibrium_and_rk4_order():
    t0 = time.perf_counter()
    sol = ode1d.integrate_ivp(_LAW, _EQUILIBRIUM, 1024)
    drift = (float(np.max(np.abs(sol.rho - 1.0))) + float(np.max(np.abs(sol.E)))
             + float(np.max(np.abs(sol.u - 0.5))))
    ref = ode1d.integrate_ivp(_LAW, _MONOTONE, 4096).rho[-1]
    errs = [abs(ode1d.integrate_ivp(_LAW, _MONOTONE, n).rho[-1] - ref) for n in (32, 64, 128)]
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    elapsed = time.perf_counter() - t0
    return (drift < 1e-12 and all(3.7 <= p <= 4.3 for p in orders) and elapsed < 1.0,
            f"drift = {drift:.1e}, orders = {[f'{p:.2f}' for p in orders]}, {elapsed:.2f} s")


def check_shooting_roundtrip():
    # shoot back to the exit density of the forward orbit from two brackets
    t0 = time.perf_counter()
    rho_ex = ode1d.integrate_ivp(_LAW, _MONOTONE, 1024).rho[-1]
    s1 = ode1d.shoot_bvp(_LAW, 1.0, 1.0, 1.2, rho_ex, 0.5, n_steps=1024, bracket=(-5.0, 5.0))
    s2 = ode1d.shoot_bvp(_LAW, 1.0, 1.0, 1.2, rho_ex, 0.5, n_steps=1024,
                         bracket=(-2.0, 3.0), n_probe=41)
    err = abs(s1.params.E0 - 0.1)
    agree = abs(s1.params.E0 - s2.params.E0)
    elapsed = time.perf_counter() - t0
    return (err < 1e-8 and agree < 1e-8 and elapsed < 5.0,
            f"|E0 - 0.1| = {err:.1e}, bracket agreement = {agree:.1e}, {elapsed:.2f} s")


def _operator(params, grid):
    background = ode1d.integrate_ivp(_LAW, params, 1024)
    return elliptic.DiscreteOperator(elliptic.make_coeffs(_LAW, background, grid), grid)


def check_coupling_cancellation():
    t0 = time.perf_counter()
    op = _operator(_MONOTONE, gridmod.build_grid(dim=2, shape=(33, 65)))
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        xi = rng.standard_normal(op.grid.n_nodes)
        eta = rng.standard_normal(op.grid.n_nodes)
        elliptic.copy_dirichlet_rows(op.grid.shape[-1], (xi, eta), 0.0)
        total, scale = elliptic.cross_term_sum(op, xi, eta)
        worst = max(worst, abs(total) / max(scale, 1e-30))
    elapsed = time.perf_counter() - t0
    return (worst < 1e-12 and elapsed < 10.0,
            f"worst relative cross-term sum = {worst:.1e} over 100 pairs, {elapsed:.2f} s")


def check_coercivity():
    t0 = time.perf_counter()
    grid = gridmod.build_grid(dim=2, shape=(33, 65))
    passed = True
    parts = []
    for label, params in (("equilibrium", _EQUILIBRIUM), ("monotone", _MONOTONE)):
        op = _operator(params, grid)
        ratio = elliptic.coercivity_check(op, trials=100, seed=42)
        bound = 0.9 * min(op.coeffs.lam, 1.0)
        passed = passed and ratio >= bound
        parts.append(f"{ratio:.4f} >= {bound:.4f} {label}")
        if params is _EQUILIBRIUM:
            # hand value: a = diag(rho, rho (1 - u^2 / p')) = diag(1, 0.875)
            passed = passed and abs(op.coeffs.lam - 0.875) <= 1e-12 * 0.875
    elapsed = time.perf_counter() - t0
    return (passed and elapsed < 30.0,
            f"min Rayleigh ratio = {', '.join(parts)}, {elapsed:.2f} s")


def check_separable_solve():
    t0 = time.perf_counter()
    grid = gridmod.build_grid(dim=3, cross_extents=((0.0, 1.0), (0.0, 1.0)), shape=(9, 9, 17))
    op = _operator(_MONOTONE, grid)
    rng = np.random.default_rng(42)
    N = grid.n_nodes
    mode = np.outer(np.cos(np.pi * grid.axes[0]), np.cos(np.pi * grid.axes[1]))
    F = 1e-2 * rng.standard_normal((N, 3))
    F2 = 1e-2 * rng.standard_normal((N, 3))
    data = elliptic.LinearData(
        W_en=0.3 + 0.02 * mode, W_ex=-0.2 - 0.01 * mode, F=F,
        f=1e-2 * rng.standard_normal(N), g_exit=1e-2 * rng.standard_normal(mode.size), F2=F2,
        wall_flux_v=F, wall_flux_W=F2,
    )
    elliptic.check_wall_compatibility(data.W_en, data.W_ex, grid)
    rhs = elliptic.assemble_rhs(op, data)
    v, W, residual = elliptic.solve(op, rhs)
    ref = elliptic.splu(op.K.tocsc()).solve(rhs)
    worst = max(float(np.max(np.abs(u - r)) / np.max(np.abs(r)))
                for u, r in ((v, ref[:N]), (W, ref[N:])))
    # the solve's residual applies K from the 1D factors; compare it with K
    U = np.concatenate([v, W])
    KU = op.K @ U
    apply_err = float(np.max(np.abs(elliptic.apply_operator(op, U) - KU)) / np.max(np.abs(KU)))
    elapsed = time.perf_counter() - t0
    return (worst <= 1e-12 and residual < 1e-12 and apply_err <= 1e-13 and elapsed < 10.0,
            f"max |U - U_splu| / sup = {worst:.1e}, residual = {residual:.1e}, "
            f"max |apply - K U| / max |K U| = {apply_err:.1e}, {elapsed:.2f} s")


def check_trivial_fixed_point():
    grid = gridmod.build_grid(dim=2, shape=(17, 33))
    background = ode1d.integrate_ivp(_LAW, _MONOTONE, 1024)
    state = driver.PicardState(_LAW, background, grid)
    data0 = driver.perturb_data(background, grid, 0.0)
    pair, report = driver.run_fixed_point(driver.IterationConfig(), data0, state)
    return (report.iterations == 1 and pair.sup() < 1e-12,
            f"iterations = {report.iterations}, sup = {pair.sup():.2e}")


def check_exit_pressure():
    grid = gridmod.build_grid(dim=2, shape=(64, 128))
    background = ode1d.integrate_ivp(_LAW, _MONOTONE, ode1d.aligned_steps(1024, 127))
    state = driver.PicardState(_LAW, background, grid)
    data = driver.perturb_data(background, grid, 1e-3)
    _, report = driver.run_fixed_point(driver.IterationConfig(), data, state)
    floor, _ = driver.residual_floor(state)
    exit_resid = report.residual_components["exit_pressure"]
    return (exit_resid <= 10.0 * floor,
            f"max |p(rho) - pex| on the exit = {exit_resid:.2e} <= 10 x floor {floor:.2e}")


CHECKS = {
    "structural identity": check_structural_identity,
    "enthalpy roundtrip": check_enthalpy_roundtrip,
    "1D equilibrium and RK4 order": check_equilibrium_and_rk4_order,
    "shooting/forward roundtrip": check_shooting_roundtrip,
    "discrete coupling cancellation": check_coupling_cancellation,
    "discrete coercivity": check_coercivity,
    "trivial fixed point": check_trivial_fixed_point,
    "separable solve agrees with sparse LU": check_separable_solve,
    "exit-pressure faithfulness": check_exit_pressure,
}


def cmd_verify(cfg) -> int:
    # the checks use fixed data; `main` still validates --config
    failed = 0
    for name, check in CHECKS.items():
        ok, detail = check()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    return EXIT_OK if failed == 0 else EXIT_FAIL


def main(argv=None) -> int:
    # the imports' objects (about 22 k) move to the permanent generation, which
    # the collections at exit and in a forked pool child skip, so a fork does
    # not copy their pages on write. Once per process: a later call freezes none
    if not gc.get_freeze_count():
        gc.freeze()
    parser = argparse.ArgumentParser(
        prog="ep-nozzle",
        description="Steady subsonic Euler-Poisson nozzle flows: backgrounds, "
                    "fixed-point solves, stability sweeps, wall perturbations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "background": cmd_background,
        "solve": cmd_solve,
        "sweep": cmd_sweep,
        "perturb-domain": cmd_perturb_domain,
        "verify": cmd_verify,
    }
    for name in handlers:
        _add_common(sub.add_parser(name))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on usage errors
        return EXIT_OK if exc.code == 0 else EXIT_FAIL
    if args.emit_template:
        print(cfgmod.TEMPLATE, end="")
        return EXIT_OK
    try:
        return handlers[args.command](_load(args))
    except FAILURES[-1][0] as exc:  # the last row's classes cover every row
        code, label = next((code, label) for classes, code, label in FAILURES
                           if isinstance(exc, classes))
        print(f"{label}: {' '.join(str(exc).split())}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
