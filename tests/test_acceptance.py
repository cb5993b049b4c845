"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The heavy fixtures (backgrounds, factorized operators, the
reference fixed-point solve) are shared across criteria.
"""

import time

import numpy as np
import pytest

from ep_nozzle import cli, driver
from ep_nozzle.domainmap import (
    correction_terms,
    jacobian_JT,
    shear_map,
    solve_perturbed,
    wall_sweep,
)
from ep_nozzle.gas import GasLaw
from ep_nozzle.grid import build_grid
from ep_nozzle.ode1d import OneDParams, aligned_steps, integrate_ivp

from test_elliptic import _mms_solve

LAW = GasLaw(gamma=2.0, k0=1.0)
APPA = OneDParams(J0=0.5, rho0=1.2, E0=0.1, L=1.0, b=1.0)


def _background(n_axial_intervals, params=APPA):
    n = aligned_steps(1024, n_axial_intervals)
    return integrate_ivp(LAW, params, n)


def _report(num, name, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def state_64x128():
    g = build_grid(dim=2, shape=(64, 128))
    return driver.PicardState(LAW, _background(127), g)


@pytest.fixture(scope="module")
def fixed_point_64x128(state_64x128):
    data = driver.perturb_data(state_64x128.background, state_64x128.grid, 1e-3)
    t0 = time.perf_counter()
    pair, report = driver.run_fixed_point(driver.IterationConfig(), data, state_64x128)
    elapsed = time.perf_counter() - t0
    floor, floor_parts = driver.residual_floor(state_64x128)
    return pair, report, data, floor, floor_parts, elapsed


@pytest.fixture(scope="module")
def state_3d():
    g = build_grid(dim=3, cross_extents=((0.0, 1.0), (0.0, 1.0)), shape=(17, 17, 33))
    return driver.PicardState(LAW, _background(32), g)


def _check(num, name):
    # the same check function that `ep-nozzle verify` runs
    passed, detail = cli.CHECKS[name]()
    assert passed, detail
    _report(num, name, detail)


def test_01_structural_identity():
    _check(1, "structural identity")


def test_02_enthalpy_roundtrip():
    _check(2, "enthalpy roundtrip")


def test_03_equilibrium_and_rk4_order():
    _check(3, "1D equilibrium and RK4 order")


def test_04_shooting_roundtrip():
    _check(4, "shooting/forward roundtrip")


def test_05_coupling_cancellation():
    _check(5, "discrete coupling cancellation")


def test_06_coercivity():
    _check(6, "discrete coercivity")


def test_07_manufactured_convergence():
    t0 = time.perf_counter()
    errs = []
    for shape in [(17, 33), (33, 65), (65, 129)]:
        _, _, _, v, W, v_exact, W_exact, residual = _mms_solve(shape)
        errs.append(max(np.max(np.abs(v - v_exact)), np.max(np.abs(W - W_exact))))
        assert residual < 1e-11
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    elapsed = time.perf_counter() - t0
    assert all(1.7 <= p <= 2.3 for p in orders)
    assert elapsed < 120.0
    _report(7, "manufactured-solution convergence",
            f"max-norm orders = {[f'{p:.3f}' for p in orders]}, {elapsed:.2f} s")


def test_07_manufactured_convergence_3d():
    t0 = time.perf_counter()
    errs = []
    for shape in [(9, 9, 17), (17, 17, 33), (33, 33, 65)]:
        _, _, _, v, W, v_exact, W_exact, residual = _mms_solve(shape)
        errs.append(max(np.max(np.abs(v - v_exact)), np.max(np.abs(W - W_exact))))
        assert residual < 1e-11
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    elapsed = time.perf_counter() - t0
    assert all(1.7 <= p <= 2.3 for p in orders)
    _report(7, "manufactured-solution convergence, 3D",
            f"max-norm orders = {[f'{p:.3f}' for p in orders]}, {elapsed:.2f} s")


def test_08_nonlinear_fixed_point(fixed_point_64x128):
    pair, report, data, floor, floor_parts, elapsed = fixed_point_64x128
    assert report.converged
    assert report.iterations <= 15
    assert all(r < 1.0 for r in report.contraction_factors)
    assert report.subsonic_margin > 0.0
    assert report.nonlinear_residual <= 4.0 * floor
    assert elapsed < 300.0
    _report(8, "nonlinear fixed point",
            f"iterations = {report.iterations}, "
            f"max factor = {max(report.contraction_factors):.3f}, "
            f"margin = {report.subsonic_margin:.3f}, "
            f"residual = {report.nonlinear_residual:.2e} <= 4 x floor {floor:.2e}, "
            f"{elapsed:.1f} s")


def test_08_nonlinear_fixed_point_3d(state_3d):
    t0 = time.perf_counter()
    data = driver.perturb_data(state_3d.background, state_3d.grid, 1e-3)
    pair, report = driver.run_fixed_point(driver.IterationConfig(), data, state_3d)
    floor, _ = driver.residual_floor(state_3d)
    elapsed = time.perf_counter() - t0
    assert report.converged
    assert report.iterations <= 15
    assert all(r < 1.0 for r in report.contraction_factors)
    assert report.subsonic_margin > 0.0
    assert report.nonlinear_residual <= 4.0 * floor
    _report(8, "nonlinear fixed point, 3D 17x17x33",
            f"iterations = {report.iterations}, "
            f"max factor = {max(report.contraction_factors):.3f}, "
            f"margin = {report.subsonic_margin:.3f}, "
            f"residual = {report.nonlinear_residual:.2e} <= 4 x floor {floor:.2e}, "
            f"{elapsed:.1f} s")


def test_09_sigma_linear_stability(state_64x128):
    t0 = time.perf_counter()
    sweep = driver.stability_sweep(
        driver.IterationConfig(), state_64x128, [1e-4, 2e-4, 4e-4, 8e-4]
    )
    elapsed = time.perf_counter() - t0
    assert sweep.slope_norm == pytest.approx(1.0, abs=0.1)
    assert sweep.slope_contraction == pytest.approx(1.0, abs=0.2)
    assert elapsed < 1200.0
    _report(9, "sigma-linear stability",
            f"solution slope = {sweep.slope_norm:.3f}, "
            f"contraction slope = {sweep.slope_contraction:.3f}, {elapsed:.1f} s")


def test_09_sigma_linear_stability_3d(state_3d):
    t0 = time.perf_counter()
    sweep = driver.stability_sweep(driver.IterationConfig(), state_3d, [1e-4, 2e-4, 4e-4, 8e-4])
    elapsed = time.perf_counter() - t0
    assert sweep.slope_norm == pytest.approx(1.0, abs=0.1)
    assert sweep.slope_contraction == pytest.approx(1.0, abs=0.2)
    _report(9, "sigma-linear stability, 3D 17x17x33",
            f"solution slope = {sweep.slope_norm:.5f}, "
            f"contraction slope = {sweep.slope_contraction:.5f}, {elapsed:.1f} s")


def test_10_uniqueness_probe(state_64x128, fixed_point_64x128):
    pair1, report, data, *_ = fixed_point_64x128
    t0 = time.perf_counter()
    g = state_64x128.grid
    cfg = driver.IterationConfig()
    amp = cfg.ball_multiplier * data.sigma / 4.0
    start = driver.FieldPair(
        amp * np.cos(np.pi * g.coords[:, 0]) * (g.coords[:, 1] / g.L) ** 2,
        amp * np.cos(np.pi * g.coords[:, 0]) * np.sin(np.pi * g.coords[:, 1] / g.L),
    )
    pair2, _ = driver.run_fixed_point(cfg, data, state_64x128, start=start)
    gap = max(
        float(np.max(np.abs(pair1.psi - pair2.psi))),
        float(np.max(np.abs(pair1.Psi - pair2.Psi))),
    )
    elapsed = time.perf_counter() - t0
    assert gap < 1e-8
    assert elapsed < 600.0
    _report(10, "uniqueness probe", f"two-start gap = {gap:.1e}, {elapsed:.1f} s")


def test_10_uniqueness_probe_3d(state_3d):
    t0 = time.perf_counter()
    g = state_3d.grid
    cfg = driver.IterationConfig()
    data = driver.perturb_data(state_3d.background, g, 1e-3)
    pair1, _ = driver.run_fixed_point(cfg, data, state_3d)
    amp = cfg.ball_multiplier * data.sigma / 4.0
    x, y, z = g.coords.T
    mode = np.cos(np.pi * x) * np.cos(np.pi * y)
    start = driver.FieldPair(
        amp * mode * (z / g.L) ** 2,
        amp * mode * np.sin(np.pi * z / g.L),
    )
    pair2, _ = driver.run_fixed_point(cfg, data, state_3d, start=start)
    gap = max(
        float(np.max(np.abs(pair1.psi - pair2.psi))),
        float(np.max(np.abs(pair1.Psi - pair2.Psi))),
    )
    elapsed = time.perf_counter() - t0
    assert gap < 1e-8
    _report(10, "uniqueness probe, 3D 17x17x33", f"two-start gap = {gap:.1e}, {elapsed:.1f} s")


def test_11_domain_perturbation():
    t0 = time.perf_counter()
    g = build_grid(dim=2, shape=(33, 65))
    state = driver.PicardState(LAW, _background(64), g)
    cfg = driver.IterationConfig()
    data = driver.perturb_data(state.background, g, 1e-3)

    # identity degeneracy: corrections exactly zero, output identical
    JT, detJT = jacobian_JT(shear_map(0.0, g.L, 2, g.cross_extents), g)
    zero = driver.FieldPair(np.zeros(g.n_nodes), np.zeros(g.n_nodes))
    corr = correction_terms(LAW, state, JT, detJT, zero, data.b)
    assert np.all(corr.H1 == 0.0) and np.all(corr.H2 == 0.0)
    assert np.all(corr.src2 == 0.0) and np.all(corr.g3 == 0.0)
    pair_flat, _ = driver.run_fixed_point(cfg, data, state)
    pair_id, _ = solve_perturbed(shear_map(0.0, g.L, 2, g.cross_extents), cfg, data, state)
    assert np.array_equal(pair_flat.psi, pair_id.psi)
    assert np.array_equal(pair_flat.Psi, pair_id.Psi)

    # correction magnitude is linear in the shear size
    eps_list = np.array([1e-3, 2e-3, 4e-3, 8e-3, 1e-2])
    data0 = driver.perturb_data(state.background, g, 0.0)
    sups = []
    for eps in eps_list:
        dmap = shear_map(float(eps), g.L, dim=2, cross_extents=g.cross_extents)
        JT, detJT = jacobian_JT(dmap, g)
        corr = correction_terms(LAW, state, JT, detJT, zero, data0.b)
        sups.append(float(np.max(np.abs(corr.H1))))
    slope_corr = float(np.polyfit(np.log(eps_list), np.log(sups), 1)[0])
    assert slope_corr == pytest.approx(1.0, abs=0.15)

    # fixed-point response is linear in the deformation size at sigma = 0
    eps_solve = [1e-3, 2e-3, 4e-3, 8e-3]
    norms = []
    for eps in eps_solve:
        dmap = shear_map(float(eps), g.L, dim=2, cross_extents=g.cross_extents)
        pair, _ = solve_perturbed(dmap, cfg, data0, state)
        norms.append(pair.sup())
    slope_solve = float(np.polyfit(np.log(eps_solve), np.log(norms), 1)[0])
    elapsed = time.perf_counter() - t0
    assert slope_solve == pytest.approx(1.0, abs=0.15)
    assert elapsed < 900.0
    _report(11, "domain-perturbation degeneracy and smallness",
            f"identity identical, correction slope = {slope_corr:.3f}, "
            f"response slope = {slope_solve:.3f}, {elapsed:.1f} s")


def test_11_domain_perturbation_3d(state_3d):
    # the wall ladder that `ep-nozzle sweep` runs, at sigma = 0
    t0 = time.perf_counter()
    wall = wall_sweep(driver.IterationConfig(), state_3d, [1e-3, 2e-3, 4e-3, 8e-3])
    elapsed = time.perf_counter() - t0
    assert wall["slope_corrections"] == pytest.approx(1.0, abs=0.15)
    assert wall["slope_response"] == pytest.approx(1.0, abs=0.15)
    _report(11, "domain-perturbation smallness, 3D 17x17x33",
            f"correction slope = {wall['slope_corrections']:.5f}, "
            f"response slope = {wall['slope_response']:.5f}, {elapsed:.1f} s")


def test_12_exit_pressure_faithfulness(fixed_point_64x128):
    pair, report, data, floor, floor_parts, _ = fixed_point_64x128
    exit_resid = report.residual_components["exit_pressure"]
    assert exit_resid <= 10.0 * floor
    _report(12, "exit-pressure faithfulness",
            f"max |p(rho) - pex| on the exit = {exit_resid:.2e} <= 10 x floor {floor:.2e}")
