import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from ep_nozzle import coeffs as cf, driver, elliptic, grid as gridmod, pool
from ep_nozzle.driver import (
    Amplitudes,
    FieldPair,
    IterationConfig,
    PicardState,
    field_norms,
    nonlinear_residual,
    perturb_data,
    residual_floor,
    run_fixed_point,
    ladder_map,
    stability_sweep,
)
from ep_nozzle.domainmap import shear_map, solve_perturbed
from ep_nozzle.errors import AdmissibilityError, DomainError, SingularAssemblyError
from ep_nozzle.gas import GasLaw
from ep_nozzle.grid import build_grid, gradient
from ep_nozzle.ode1d import OneDParams, aligned_steps, integrate_ivp

from gridpoints import node_coords, one_row_slabs

LAW = GasLaw(gamma=2.0, k0=1.0)


def _background(n_axial_intervals, params=OneDParams(0.5, 1.2, 0.1, 1.0, 1.0)):
    n = aligned_steps(1024, n_axial_intervals)
    return integrate_ivp(LAW, params, n)


@pytest.fixture(scope="module")
def state_small():
    g = build_grid(dim=2, shape=(17, 33))
    return PicardState(LAW, _background(32), g)


@pytest.fixture(scope="module")
def state_medium():
    g = build_grid(dim=2, shape=(33, 65))
    return PicardState(LAW, _background(64), g)


class TestPerturbData:
    def test_zero_sigma_is_unperturbed(self, state_small):
        data = perturb_data(state_small.background, state_small.grid, 0.0)
        assert np.max(np.abs(data.Psi_en)) == 0.0
        assert np.max(np.abs(data.Psi_ex)) == 0.0
        assert np.max(np.abs(state_small.grid.sections(data.b.nodal()) - state_small.coeffs.b_bg)) == 0.0
        assert np.max(np.abs(data.pex - state_small.background.pex0)) == 0.0

    def test_magnitudes_bounded_by_sigma(self, state_small):
        bg, g = state_small.background, state_small.grid
        s = 2e-3
        tol = s * (1 + 1e-12)
        data = perturb_data(bg, g, s)
        assert np.max(np.abs(data.phi_en - bg.phi_en0)) <= tol
        assert np.max(np.abs(data.phi_ex)) <= tol
        assert np.max(np.abs(data.pex - bg.pex0)) <= tol
        assert abs(data.B0 - bg.B00) <= tol
        assert np.max(np.abs(g.sections(data.b.nodal()) - state_small.coeffs.b_bg)) <= tol

    def test_compatibility_of_modes(self, state_small):
        # cosine modes: wall-normal derivative vanishes analytically at edges
        g = state_small.grid
        data = perturb_data(state_small.background, g, 1e-3)
        edge = np.gradient(data.phi_ex, g.axes[0], edge_order=2)
        h = g.spacing[0]
        assert abs(edge[0]) < 10 * h ** 2 * 1e-3 / h  # O(h^2) * amplitude scale
        assert abs(edge[-1]) < 10 * h ** 2 * 1e-3 / h

    def test_amplitude_validation(self, state_small):
        with pytest.raises(AdmissibilityError):
            perturb_data(state_small.background, state_small.grid, 1e-3,
                         Amplitudes(pex=1.5))
        with pytest.raises(AdmissibilityError):
            perturb_data(state_small.background, state_small.grid, -1.0)


class TestFixedPoint:
    def test_sigma_zero_trivial(self, state_small):
        data = perturb_data(state_small.background, state_small.grid, 0.0)
        pair, report = run_fixed_point(IterationConfig(), data, state_small)
        assert report.iterations == 1
        assert pair.sup() < 1e-12

    def test_first_step_scales_with_sigma(self, state_small):
        s = 1e-3
        data = perturb_data(state_small.background, state_small.grid, s)
        N = state_small.grid.n_nodes
        out = state_small.step(FieldPair(np.zeros(N), np.zeros(N)), data)
        assert out.sup() < 50 * s
        assert out.sup() > 0.05 * s

    def test_contraction_of_the_map(self, state_small):
        s = 1e-3
        data = perturb_data(state_small.background, state_small.grid, s)
        N = state_small.grid.n_nodes
        rng = np.random.default_rng(0)
        base = FieldPair(np.zeros(N), np.zeros(N))
        x, y = node_coords(state_small.grid).T
        bump = FieldPair(
            1e-4 * np.cos(np.pi * x) * y ** 2,
            1e-4 * rng.standard_normal(N) * 0.0,
        )
        out1 = state_small.step(base, data)
        out2 = state_small.step(bump, data)
        din = bump.sup()
        dout = float(
            np.max(np.abs(out1.psi - out2.psi)) + np.max(np.abs(out1.Psi - out2.Psi))
        )
        assert dout < din  # contraction
        assert dout < 100 * s * din  # linear-in-sigma Lipschitz scale

    def test_geometric_convergence_and_margin(self, state_medium):
        data = perturb_data(state_medium.background, state_medium.grid, 1e-3)
        pair, report = run_fixed_point(IterationConfig(), data, state_medium)
        assert report.iterations <= 15
        assert all(r < 1.0 for r in report.contraction_factors)
        assert report.subsonic_margin > 0.0
        assert pair.sup() == pytest.approx(report.diffs[0], rel=0.1)

    def test_uniqueness_from_two_starts(self, state_small):
        s = 5e-4
        cfg = IterationConfig()
        data = perturb_data(state_small.background, state_small.grid, s)
        g = state_small.grid
        N = g.n_nodes
        pair1, _ = run_fixed_point(cfg, data, state_small)
        amp = cfg.ball_multiplier * s / 4.0
        x, y = node_coords(g).T
        start = FieldPair(
            amp * np.cos(np.pi * x) * (y / g.L) ** 2,
            amp * np.cos(np.pi * x) * np.sin(np.pi * y / g.L),
        )
        pair2, _ = run_fixed_point(cfg, data, state_small, start=start)
        assert np.max(np.abs(pair1.psi - pair2.psi)) < 1e-8
        assert np.max(np.abs(pair1.Psi - pair2.Psi)) < 1e-8

    def test_nan_solve_residual_trips_the_guard(self, state_small, monkeypatch):
        # the residual is reduced without np.abs; a NaN in it still fails
        apply = elliptic.apply_operator

        def nan_at_one_node(op, U, rows=slice(None)):
            out = apply(op, U, rows)
            out[7] = np.nan
            return out

        monkeypatch.setattr(elliptic, "apply_operator", nan_at_one_node)
        N = state_small.grid.n_nodes
        data = perturb_data(state_small.background, state_small.grid, 1e-3)
        with pytest.raises(SingularAssemblyError, match="linear solve nan exceeds 1e-08"):
            state_small.step(FieldPair(np.zeros(N), np.zeros(N)), data)

    def test_oversized_sigma_refused(self, state_small):
        sigma = state_small.coeffs.delta3  # M * sigma far beyond delta3
        data = perturb_data(state_small.background, state_small.grid, min(sigma, 0.2))
        with pytest.raises(AdmissibilityError):
            run_fixed_point(IterationConfig(), data, state_small)

    def test_grid_and_sigma_independent_response(self, state_small, state_medium):
        # Theta(sigma) with grid-stable constants
        ratios = []
        for state in (state_small, state_medium):
            for s in (5e-4, 1e-3):
                data = perturb_data(state.background, state.grid, s)
                pair, _ = run_fixed_point(IterationConfig(), data, state)
                ratios.append(pair.sup() / s)
        assert max(ratios) / min(ratios) < 1.3


class TestResidual:
    def test_floor_is_pure_discretization(self, state_small, state_medium):
        f_small, parts_small = residual_floor(state_small)
        f_medium, parts_medium = residual_floor(state_medium)
        assert f_small > 0
        # second-order floor: refining by 2 shrinks it by about 4
        assert f_small / f_medium == pytest.approx(4.0, rel=0.5)

    def test_converged_residual_near_floor(self, state_medium):
        floor, _ = residual_floor(state_medium)
        data = perturb_data(state_medium.background, state_medium.grid, 1e-3)
        pair, report = run_fixed_point(IterationConfig(), data, state_medium)
        assert report.nonlinear_residual <= 4.0 * floor

    def test_exit_pressure_component(self, state_medium):
        floor, _ = residual_floor(state_medium)
        data = perturb_data(state_medium.background, state_medium.grid, 1e-3)
        pair, report = run_fixed_point(IterationConfig(), data, state_medium)
        assert report.residual_components["exit_pressure"] <= 10.0 * floor

    def test_manufactured_pair_sees_quadratic_remainder(self, state_small):
        # inserting a pair that solves the linear problem only, the nonlinear
        # residual is dominated by the dropped quadratic terms
        s = 2e-3
        data = perturb_data(state_small.background, state_small.grid, s)
        N = state_small.grid.n_nodes
        one_step = state_small.step(FieldPair(np.zeros(N), np.zeros(N)), data)
        pair, report = run_fixed_point(IterationConfig(), data, state_small)
        r_one = nonlinear_residual(state_small, one_step, data)[0]
        r_fix = report.nonlinear_residual
        assert r_fix <= r_one

    @pytest.mark.parametrize("state", ["state_small", "state_medium", "state_3d"])
    def test_residual_does_not_depend_on_the_slabs(self, state, request, monkeypatch):
        # every edge operation is per edge and every nodal stencil reaches one
        # row across a slab (np.gradient's one-sided rule at a wall three,
        # which the halo holds), so no slab size changes a bit of any
        # component, of the converged pair's residual or of the floor
        state = request.getfixturevalue(state)
        data = perturb_data(state.background, state.grid, 1e-3)
        N = state.grid.n_nodes
        pair = state.step(FieldPair(np.zeros(N), np.zeros(N)), data)

        def residual_bits():
            return [(float(total).hex(), {k: float(v).hex() for k, v in parts.items()})
                    for total, parts in (nonlinear_residual(state, pair, data),
                                         residual_floor(state))]

        results, widths = [], []
        for slab in (1, 1000, gridmod.SLAB_NODES, 10 * N):
            monkeypatch.setattr(gridmod, "SLAB_NODES", slab)
            widths.append(len(list(gridmod.slabs(state.grid, 0, halo=2))))
            results.append(residual_bits())
        monkeypatch.setattr(gridmod, "slabs", one_row_slabs)
        results.append(residual_bits())
        assert widths[0] > 1 and widths[-1] == 1
        assert set(results[0][0][1]) == {
            "interior_mass", "interior_poisson", "exit_pressure", "wall_flux_phi",
            "wall_flux_Phi", "dirichlet_phi", "dirichlet_Phi"}
        assert all(r == results[0] for r in results[1:])


@pytest.fixture(scope="module")
def state_3d_small():
    g = build_grid(dim=3, cross_extents=((0.0, 1.0), (0.0, 1.0)), shape=(17, 17, 33))
    return PicardState(LAW, _background(32), g)


@pytest.fixture(scope="module")
def state_nine_rows():
    g = build_grid(dim=2, shape=(9, 33))
    return PicardState(LAW, _background(32), g)


@pytest.mark.parametrize("state", ["state_small", "state_3d_small", "state_nine_rows"])
@pytest.mark.parametrize("eps", [None, 2e-3], ids=["flat", "sheared"])
def test_step_does_not_depend_on_the_slabs(state, eps, request, monkeypatch):
    # a step's terms are pointwise or reach one row across a slab, and the
    # gradient on a slab's rows is the whole grid's (grid.gradient), as is
    # the guard's residual: no slab size changes a bit of the converged
    # pair, of the differences or of the report, with the map corrections
    # or without. Nine rows in slabs of eight: the first slab's halo
    # reaches the last row, and a second slab follows
    state = request.getfixturevalue(state)
    g = state.grid
    data = perturb_data(state.background, g, 1e-3)

    def run():
        if eps is None:
            pair, report = run_fixed_point(IterationConfig(), data, state)
        else:
            pair, report = solve_perturbed(shear_map(eps, g.L, g.cross_extents),
                                           IterationConfig(), data, state)
        return pair.psi.tobytes() + pair.Psi.tobytes(), report.diffs, report.to_json()

    results, widths = [], []
    for slab in (1, 1000, gridmod.SLAB_NODES, 10 * g.n_nodes):
        monkeypatch.setattr(gridmod, "SLAB_NODES", slab)
        widths.append(len(list(gridmod.slabs(g, 0, halo=1))))
        results.append(run())
    monkeypatch.setattr(gridmod, "slabs", one_row_slabs)
    results.append(run())
    assert widths[0] > 1 and widths[-1] == 1
    assert all(r == results[0] for r in results[1:])


@pytest.mark.parametrize("state", ["state_small", "state_3d_small"])
def test_ball_maxima_are_those_of_the_norm(state, request):
    # the squares summed component by component give np.linalg.norm's bits
    state = request.getfixturevalue(state)
    g = state.grid
    rng = np.random.default_rng(7)
    Psi = rng.standard_normal(g.n_nodes)
    Dpsi = rng.standard_normal((g.n_nodes, g.dim)) * 10.0 ** rng.integers(-8, 8, (g.n_nodes, 1))
    norm = np.linalg.norm(Dpsi, axis=1)
    want = (np.max(norm), np.max(np.abs(Psi) + norm), np.max(g.face(norm, -1, -1)))
    assert PicardState._maxima(g, Psi, Dpsi) == want


@pytest.fixture
def no_solve(monkeypatch):
    """elliptic.solve raising: a refusal comes before any linear solve."""
    def refuse(op, rhs):
        raise AssertionError("a linear solve ran")

    monkeypatch.setattr(elliptic, "solve", refuse)


def test_fixed_point_refuses_a_start_outside_the_remainder_ball(state_small, no_solve):
    # the ball where the remainders are defined, 3 delta1
    N = state_small.grid.n_nodes
    data = perturb_data(state_small.background, state_small.grid, 0.0)
    start = FieldPair(np.zeros(N), np.full(N, 3.0 * state_small.coeffs.delta1))
    with pytest.raises(AdmissibilityError, match="remainder-definition ball"):
        run_fixed_point(IterationConfig(), data, state_small, start=start)


def test_fixed_point_refuses_a_start_outside_the_exit_ball(state_small, no_solve):
    # an axial slope inside the remainder ball but beyond the exit radius
    c, g = state_small.coeffs, state_small.grid
    slope = 0.5 * (2.0 * c.delta2 + 3.0 * c.delta1)
    assert 2.0 * c.delta2 <= slope < 3.0 * c.delta1
    data = perturb_data(state_small.background, g, 0.0)
    start = FieldPair(slope * node_coords(g)[:, -1], np.zeros(g.n_nodes))
    with pytest.raises(AdmissibilityError, match="exit gradient"):
        run_fixed_point(IterationConfig(), data, state_small, start=start)


def test_fixed_point_checks_the_remainder_ball_before_the_exit(state_small, no_solve,
                                                               monkeypatch):
    # both balls are checked on the whole grid's maxima, folded per slab: an
    # exit gradient outside its ball in every slab gives way to an iterate
    # outside the remainder ball in the last one
    monkeypatch.setattr(gridmod, "SLAB_NODES", 1)
    g, c = state_small.grid, state_small.coeffs
    assert len(list(gridmod.slabs(g, 0))) > 1
    assert 2.0 * c.delta2 < 3.0 * c.delta1
    x, xn = node_coords(g).T
    psi = (c.delta2 + 1.5 * c.delta1) * xn        # |grad psi| between the two bounds
    Psi = np.where(x == g.axes[0][-1], 3.0 * c.delta1, 0.0)
    data = perturb_data(state_small.background, g, 1e-3)
    with pytest.raises(AdmissibilityError, match="exit gradient outside"):
        run_fixed_point(IterationConfig(), data, state_small,
                        start=FieldPair(psi, np.zeros(g.n_nodes)))
    with pytest.raises(AdmissibilityError, match="remainder-definition ball"):
        run_fixed_point(IterationConfig(), data, state_small, start=FieldPair(psi, Psi))


def test_a_nan_in_one_slab_hides_no_breach_in_another(state_small, monkeypatch):
    # a nan maximum makes the fold nan, which passes the ball checks; the walk
    # that stopped at another slab's breach still refuses the iterate, before
    # its solve. A start pair is checked for finite values first, so the
    # iterate comes from a solve
    g, c = state_small.grid, state_small.coeffs
    monkeypatch.setattr(gridmod, "SLAB_NODES", g.n_nodes // 3)
    assert len(list(gridmod.slabs(g, 0, halo=1))) >= 2
    Psi = np.zeros(g.shape)
    Psi[0], Psi[-1] = 3.0 * c.delta1, np.nan
    solves = []

    def solve(op, rhs):
        solves.append(None)
        return np.zeros(g.n_nodes), Psi.ravel().copy(), 0.0

    monkeypatch.setattr(elliptic, "solve", solve)
    data = perturb_data(state_small.background, g, 0.0)
    with pytest.raises(AdmissibilityError, match="remainder-definition ball"):
        run_fixed_point(IterationConfig(), data, state_small)
    assert len(solves) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("field, value", [("Psi", np.nan), ("psi", -np.inf)])
def test_fixed_point_refuses_a_start_that_is_not_finite(state_small, no_solve, field, value):
    # a nan fails every ball comparison, so without this check a nan start
    # ran into the density floor of the first step's remainders
    g = state_small.grid
    start = FieldPair(np.zeros(g.n_nodes), np.zeros(g.n_nodes))
    getattr(start, field)[g.n_nodes // 2:] = value
    data = perturb_data(state_small.background, g, 0.0)
    with pytest.raises(DomainError, match="start pair"):
        run_fixed_point(IterationConfig(), data, state_small, start=start)


def test_fixed_point_leaves_the_norms_to_the_commands(state_small, monkeypatch):
    # the ladders read no norm summary, so no rung draws its random pairs
    def no_norms(*args, **kwargs):
        raise AssertionError("pair_norms ran")

    monkeypatch.setattr(driver, "pair_norms", no_norms)
    data = perturb_data(state_small.background, state_small.grid, 1e-4)
    _, report = run_fixed_point(IterationConfig(), data, state_small)
    assert report.norm_summary is None
    stability_sweep(IterationConfig(), state_small, [1e-4, 2e-4])


def test_fixed_point_checks_no_ball_of_the_converged_pair(state_small, monkeypatch):
    # the balls are checked on the pair a step enters: a last step that
    # crosses the exit radius by less than the tolerance ends the solve
    c, g = state_small.coeffs, state_small.grid
    xn = node_coords(g)[:, -1]
    inside, outside = (s * 2.0 * c.delta2 * xn for s in (0.999, 1.001))
    monkeypatch.setattr(elliptic, "solve",
                        lambda op, rhs: (outside.copy(), np.zeros(g.n_nodes), 0.0))
    data = perturb_data(state_small.background, g, 0.0)
    pair, report = run_fixed_point(IterationConfig(tol_floor=1e-3), data, state_small,
                                   start=FieldPair(inside, np.zeros(g.n_nodes)))
    assert report.iterations == 1 and np.array_equal(pair.psi, outside)


def _halo_breach(state, monkeypatch, value):
    """Three step slabs on state's grid (halo one) and elliptic.solve patched to
    return, at every call, the pair that is value on the first row slab 1
    owns, the halo row slab 0 borrows, and zero elsewhere; returns the solve
    calls and that pair."""
    g = state.grid
    monkeypatch.setattr(gridmod, "SLAB_NODES", g.n_nodes // 3)
    step_slabs = list(gridmod.slabs(g, 0, halo=1))
    assert len(step_slabs) >= 3
    row = step_slabs[0][0].stop - 1
    assert step_slabs[1][0].start + step_slabs[1][1].start == row
    Psi = np.zeros(g.shape)
    Psi[row] = value
    solves = []

    def solve(op, rhs):
        solves.append(None)
        return np.zeros(g.n_nodes), Psi.ravel().copy(), 0.0

    monkeypatch.setattr(elliptic, "solve", solve)
    return solves, FieldPair(np.zeros(g.n_nodes), Psi.ravel())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_step_walk_stops_at_a_halo_row_outside_the_remainder_ball(state_small, monkeypatch):
    # a step's walk checks its slabs' rows, halos included, before it forms
    # their remainders: an iterate whose density fails on the one row that
    # slab 0 borrows from slab 1 is refused before the second solve, with no
    # remainder formed there (sigma = 0: there is no iteration ball)
    c = state_small.coeffs
    solves, _ = _halo_breach(state_small, monkeypatch, -1e3)
    assert 1e3 >= 3.0 * c.delta1
    data = perturb_data(state_small.background, state_small.grid, 0.0)
    with pytest.raises(AdmissibilityError, match="remainder-definition ball"):
        run_fixed_point(IterationConfig(), data, state_small)
    assert len(solves) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_last_walk_forms_no_margin_outside_the_remainder_ball(state_small, monkeypatch):
    # the converged pair's balls are not checked, but its margin is not
    # formed where the density need not exist: the margin is nan, refused
    solves, pair = _halo_breach(state_small, monkeypatch, -1e3)
    assert np.isnan(state_small.maxima_and_margin(pair)[1])
    data = perturb_data(state_small.background, state_small.grid, 0.0)
    with pytest.raises(AdmissibilityError, match="subsonic margin nan of the fixed point"):
        run_fixed_point(IterationConfig(tol_floor=1e4), data, state_small)
    assert len(solves) == 1


@pytest.mark.parametrize("state", ["state_small", "state_3d_small"])
def test_fixed_point_folds_the_ball_maxima_once_per_iterate(state, request, monkeypatch):
    # each step folds the maxima of the iterate it enters, the zero start
    # included, one `_maxima` call per slab of its walk (halo one), and the
    # last iterate's walk one per slab of its own
    state = request.getfixturevalue(state)
    g = state.grid
    monkeypatch.setattr(gridmod, "SLAB_NODES", g.n_nodes // 3)
    step_slabs = len(list(gridmod.slabs(g, 0, halo=1)))
    last_slabs = len(list(gridmod.slabs(g, 0)))
    assert step_slabs >= 2 and last_slabs >= 2
    maxima, calls = PicardState._maxima, []

    def counted(*args):
        calls.append(None)
        return maxima(*args)

    monkeypatch.setattr(PicardState, "_maxima", staticmethod(counted))
    data = perturb_data(state.background, g, 1e-3)
    _, report = run_fixed_point(IterationConfig(), data, state)
    assert report.iterations >= 2
    assert len(calls) == report.iterations * step_slabs + last_slabs


@pytest.mark.parametrize("slabs", [1, 3])
@pytest.mark.parametrize("state", ["state_small", "state_3d_small"])
def test_fixed_point_forms_each_gradient_once(state, slabs, request, monkeypatch):
    # one gradient of each iterate: per slab of the step that enters it, or
    # of the last iterate's walk; the strong residual forms grad phi per slab
    state = request.getfixturevalue(state)
    g = state.grid
    monkeypatch.setattr(gridmod, "SLAB_NODES", 10 * g.n_nodes if slabs == 1 else g.n_nodes // 3)
    step_slabs = len(list(gridmod.slabs(g, 0, halo=1)))
    assert step_slabs == slabs
    gradient, calls = gridmod.gradient, []

    def counted(*args):
        calls.append(None)
        return gradient(*args)

    monkeypatch.setattr(gridmod, "gradient", counted)
    data = perturb_data(state.background, g, 1e-3)
    _, report = run_fixed_point(IterationConfig(), data, state)
    assert report.iterations >= 2
    assert len(calls) == (report.iterations * step_slabs + len(list(gridmod.slabs(g, 0)))
                          + len(list(gridmod.slabs(g, 0, halo=2))))


def test_incompatible_end_planes_warn_once_per_solve(state_small):
    # the end-plane data are fixed for the solve: one check, not one per step
    g = state_small.grid
    data = perturb_data(state_small.background, g, 1e-3)
    bad = dataclasses.replace(data, Psi_en=data.Psi_en + 0.01 * np.sin(np.pi * g.axes[0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, report = run_fixed_point(IterationConfig(), bad, state_small)
    assert report.iterations >= 2
    assert len(caught) == 1 and "wall compatibility condition" in str(caught[0].message)


@pytest.mark.parametrize("shape", [(17, 33), (18, 9), (33, 33, 65), (65, 9, 9)])
@pytest.mark.parametrize("halo", [0, 2])
@pytest.mark.parametrize("slab_nodes", [1, 300, gridmod.SLAB_NODES])
def test_slabs_cover_each_row_once(shape, halo, slab_nodes, monkeypatch):
    monkeypatch.setattr(gridmod, "SLAB_NODES", slab_nodes)
    g = build_grid(dim=len(shape), cross_extents=((0.0, 1.0),) * (len(shape) - 1), shape=shape)
    n, covered = shape[0], []
    for rows, own in gridmod.slabs(g, 0, halo):
        assert 0 <= rows.start and rows.stop <= n
        inner = range(rows.start, rows.stop)[own]
        covered.extend(inner)
        # the halo is there wherever the grid goes on
        assert inner.start - rows.start == min(halo, inner.start)
        assert rows.stop - inner.stop == min(halo, n - inner.stop)
        # a slab is at least four times as wide as its two halos, or ends the axis
        assert len(inner) >= 8 * halo or inner.stop == n
    assert covered == list(range(n))


class TestNorms:
    def test_constant_field(self, state_small):
        g = state_small.grid
        n = field_norms(np.full(g.n_nodes, 3.0), g, state_small.op.quad)
        assert n["sup"] == 3.0
        assert n["h1_seminorm"] < 1e-12
        assert n["calpha_sampled"] < 1e-12

    def test_linear_axial_field_h1(self, state_small):
        g = state_small.grid
        n = field_norms(node_coords(g)[:, -1].copy(), g, state_small.op.quad)
        volume = 1.0  # unit cross-section times unit length
        assert n["h1_seminorm"] ** 2 == pytest.approx(volume, rel=1e-12)

    def test_lipschitz_bound_on_sampled_seminorm(self, state_small):
        g = state_small.grid
        x, y = node_coords(g).T
        f = 2.0 * x + 1.0 * y
        lip = np.sqrt(5.0)
        alpha = 0.5
        diam = np.sqrt(2.0)
        n = field_norms(f, g, state_small.op.quad, alpha=alpha)
        assert n["calpha_sampled"] <= lip * diam ** (1 - alpha) + 1e-12


class TestSweep:
    def test_slopes(self, state_medium):
        sweep = stability_sweep(
            IterationConfig(), state_medium, [1e-4, 2e-4, 4e-4, 8e-4]
        )
        assert sweep.slope_norm == pytest.approx(1.0, abs=0.1)
        assert sweep.slope_contraction == pytest.approx(1.0, abs=0.2)

    def test_zero_sigma_excluded(self, state_small):
        sweep = stability_sweep(IterationConfig(), state_small, [0.0, 1e-4, 2e-4])
        assert sweep.sigmas == [1e-4, 2e-4]

    @pytest.mark.parametrize("sigmas", [[1e-3, 1e-3], [0.0, 1e-4], []])
    def test_fewer_than_two_distinct_sigmas_refused(self, state_small, sigmas):
        with pytest.raises(DomainError):
            stability_sweep(IterationConfig(), state_small, sigmas)


# ---------------------------------------------------------------------------
# ladders split over processes: the outcome of the in-process loop


def _cpus(monkeypatch, n):
    monkeypatch.setattr(pool, "_usable_cpus", lambda: n)


def _reports(sweep):
    return (sweep.sigmas, sweep.sup_norms, sweep.contraction, sweep.slope_norm,
            sweep.slope_contraction, [r.to_json() for r in sweep.reports])


class TestLadderMap:
    def test_sigma_ladder_bit_equal_in_one_and_two_processes(self, state_small, monkeypatch):
        sigmas = [1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3]
        runs = []
        for n in (1, 2):
            _cpus(monkeypatch, n)
            runs.append(_reports(stability_sweep(IterationConfig(), state_small, sigmas)))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_results_in_rung_order(self, monkeypatch, n):
        _cpus(monkeypatch, n)
        assert ladder_map(lambda x: (x, x * x), range(7)) == [(x, x * x) for x in range(7)]

    def test_available_memory_caps_the_processes(self, monkeypatch):
        # two CPUs, but the memory holds one rung: every rung runs here
        _cpus(monkeypatch, 2)
        rung_bytes = driver.RUNG_BYTES_PER_NODE * 128 * 256
        for held, w in [(1, 1), (1.9, 1), (2, 2), (100, 2)]:
            monkeypatch.setattr(pool, "_available_memory", lambda: int(held * rung_bytes))
            assert driver._ladder_width(8, rung_bytes) == w
        monkeypatch.setattr(pool, "_available_memory", lambda: rung_bytes)
        assert ladder_map(lambda x: os.getpid(), range(4), rung_bytes) == [os.getpid()] * 4

    def test_real_memory_keeps_two_processes_on_a_small_grid(self, monkeypatch):
        # a 128x256 ladder's rungs need about 5 MB each
        _cpus(monkeypatch, 2)
        assert pool._available_memory() > 0
        assert driver._ladder_width(8, driver.RUNG_BYTES_PER_NODE * 128 * 256) == 2

    def test_sigma_ladder_passes_its_rung_bytes(self, state_small, monkeypatch):
        seen = []
        ladder_width = driver._ladder_width

        def recording(n_rungs, rung_bytes):
            seen.append(rung_bytes)
            return ladder_width(n_rungs, rung_bytes)

        monkeypatch.setattr(driver, "_ladder_width", recording)
        stability_sweep(IterationConfig(), state_small, [1e-4, 2e-4])
        assert seen == [driver.RUNG_BYTES_PER_NODE * state_small.grid.n_nodes]

    def test_lowest_failing_rung_raised_from_this_process(self, monkeypatch):
        # w = 2: rung 1 fails in the child, rung 2 here; the loop would
        # stop at rung 1, so rung 1 is run again here and its error raised
        _cpus(monkeypatch, 2)
        here = os.getpid()
        ran_here = []

        def rung(x):
            if os.getpid() == here:
                ran_here.append(x)
            if x in (1, 2):
                raise ValueError(f"rung {x} in {os.getpid()}")
            return x

        with pytest.raises(ValueError, match=f"^rung 1 in {here}$"):
            ladder_map(rung, range(4))
        assert ran_here == [0, 2, 1]

    def test_rungs_of_a_dead_child_run_here(self, monkeypatch):
        _cpus(monkeypatch, 2)
        here = os.getpid()

        def rung(x):
            if os.getpid() != here:
                os._exit(1)
            return 10 * x

        assert ladder_map(rung, range(5)) == [0, 10, 20, 30, 40]

    def test_unpicklable_result_runs_here(self, monkeypatch):
        _cpus(monkeypatch, 2)
        assert [f() for f in ladder_map(lambda x: (lambda: x), range(3))] == [0, 1, 2]

    def test_warnings_in_rung_order(self, monkeypatch):
        def rung(x):
            warnings.warn(f"rung {x}", UserWarning)
            warnings.warn("every rung", UserWarning)
            return x

        shown = []
        for n in (1, 2):
            _cpus(monkeypatch, n)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                ladder_map(rung, range(4))
            shown.append([(str(w.message), w.category, w.filename, w.lineno) for w in caught])
        # the default action shows a repeated warning once, as in the loop
        assert [m for m, *_ in shown[0]] == ["rung 0", "every rung", "rung 1", "rung 2", "rung 3"]
        assert shown[0] == shown[1]

    def test_one_process_while_other_threads_run(self, monkeypatch):
        _cpus(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10.0,))
        thread.start()
        try:
            pids = ladder_map(lambda x: os.getpid(), range(4))
        finally:
            release.set()
            thread.join(10.0)
        assert not thread.is_alive()
        assert pids == [os.getpid()] * 4

    def test_children_reaped_when_leaving_on_an_exception(self, monkeypatch):
        _cpus(monkeypatch, 3)
        here = os.getpid()
        forked = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        def rung(x):
            if os.getpid() == here:
                raise KeyboardInterrupt
            time.sleep(60)   # a child still runs when this process leaves

        monkeypatch.setattr(os, "fork", recording_fork)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            ladder_map(rung, range(3))
        assert time.monotonic() - t0 < 30.0     # killed, not waited for
        assert len(forked) == 2
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


def test_3d_fixed_point_smoke():
    g = build_grid(dim=3, cross_extents=((0, 1), (0, 1)), shape=(9, 9, 17))
    state = PicardState(LAW, _background(16), g)
    data = perturb_data(state.background, g, 2e-4)
    pair, report = run_fixed_point(IterationConfig(), data, state)
    assert report.converged
    assert all(r < 1.0 for r in report.contraction_factors)
    assert report.subsonic_margin > 0.0
    floor, _ = residual_floor(state)
    assert report.nonlinear_residual <= 4.0 * floor


# ---------------------------------------------------------------------------
# the frozen background as axial profiles


PROFILE_GRIDS = {
    "2d": dict(dim=2, shape=(17, 33)),
    "3d": dict(dim=3, cross_extents=((0.0, 1.0), (0.0, 1.5)), shape=(9, 11, 17)),
}


@pytest.fixture(scope="module", params=list(PROFILE_GRIDS))
def state_profiles(request):
    g = build_grid(**PROFILE_GRIDS[request.param])
    return PicardState(LAW, _background(g.shape[-1] - 1), g)


def test_frozen_arrays_are_axial_profiles(state_profiles):
    n = state_profiles.grid.shape[-1]
    c = state_profiles.coeffs
    frozen = {name: value for name, value in vars(c).items() if isinstance(value, np.ndarray)}
    assert len(frozen) == 11
    for name, value in frozen.items():
        assert value.shape[0] == n, name


def _nodal(profile, g):
    """An axial profile copied to every node, (N, ...)."""
    profile = np.asarray(profile)
    return np.broadcast_to(profile, g.cross_shape() + profile.shape).reshape(
        (g.n_nodes,) + profile.shape[1:])


def test_profile_formulas_match_nodal_formulas(state_profiles):
    # the nodal formulas of the frozen state, applied to the profiles copied
    # to every node, give the same bits
    state, g, law = state_profiles, state_profiles.grid, state_profiles.law
    c = state.coeffs
    N, d = g.n_nodes, g.dim
    Phi0, u = _nodal(c.Phi0, g), _nodal(c.u, g)
    q0 = np.zeros((N, d))
    q0[:, -1] = u
    rho0 = law.density(Phi0, u * u)
    base = cf.derivatives(law, Phi0, q0)
    dqB = np.zeros((d, N))
    dqB[-1] = _nodal(c.dqB, g)

    rng = np.random.default_rng(3)
    Psi = 1e-3 * rng.standard_normal(N)
    Dpsi = 1e-2 * rng.standard_normal((N, d))
    q_tot = Dpsi + q0
    rho_pert = law.density(Phi0 + Psi, np.einsum("ni,ni->n", q_tot, q_tot))
    lin_A = Psi[:, None] * base.dA_dz + np.einsum("nij,nj->ni", base.dA_dq, Dpsi)
    F = -(rho_pert[:, None] * q_tot - rho0[:, None] * q0 - lin_A)
    lin_B = Psi * base.dB_dz + np.einsum("nj,nj->n", base.dB_dq, Dpsi)
    f = rho_pert - rho0 - lin_B
    got = cf.remainder_fields(law, c, Psi, Dpsi)
    for want, have in zip((F, f, rho_pert), got):
        assert np.array_equal(have, want)

    data = perturb_data(state.background, g, 1e-3)
    idx = np.flatnonzero(node_coords(g)[:, -1] == g.L)   # exit nodes, C order of the cross grid
    shift = 1e-3 * rng.standard_normal(idx.size)
    q = Dpsi[idx]
    q_ex = q + q0[idx]
    rho_t = law.density(Phi0[idx] + data.Psi_ex.ravel(), np.einsum("ni,ni->n", q_ex, q_ex))
    rho_bg = _nodal(c.rho_bg, g)[idx]
    drho = rho_t - rho_bg
    chord = _nodal(c.pprime, g)[idx]
    safe = np.abs(drho) >= driver.CHORD_FALLBACK
    chord[safe] = (law.pressure(rho_t[safe]) - law.pressure(rho_bg[safe])) / drho[safe]
    ghat2 = np.einsum("an,na->n", dqB[:, idx], q) - drho
    want = (data.pex.ravel() + shift - law.pressure(rho_bg)) / chord + ghat2
    got = state.exit_datum(Dpsi, data, shift.reshape(g.cross_shape()))
    assert got.shape == g.cross_shape() and np.array_equal(got.ravel(), want)

    # the last walk forms the gradient of psi itself, slab by slab
    psi = 1e-3 * rng.standard_normal(N)
    q_tot = gradient(g, psi) + q0
    speed = np.einsum("ni,ni->n", q_tot, q_tot)
    margin = float(np.min(law.dpressure(law.density(Phi0 + Psi, speed)) - speed))
    assert state.maxima_and_margin(FieldPair(psi, Psi))[1] == margin


def test_frozen_state_bytes_per_node():
    # the inverted pivot blocks of the mode systems, 32 B per node, are the
    # one nodal array; the background and the axial blocks are profiles, and
    # the quadrature weights are face-sized. The factorization runs in place,
    # with no stack of the mode systems' diagonal blocks
    g = build_grid(dim=3, cross_extents=((0.0, 1.0), (0.0, 1.0)), shape=(33, 33, 65))
    background = _background(64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state = PicardState(LAW, background, g)
        held = tracemalloc.get_traced_memory()[0] - before
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert state.coeffs.u.shape == (65,)
    assert held / g.n_nodes <= 40.0
    assert peak / g.n_nodes <= 64.0


def _rise_per_node(n_nodes, fn, *args):
    """fn(*args), and the peak of the traced memory during the call over its
    value at entry, per node."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, (tracemalloc.get_traced_memory()[1] - entry) / n_nodes
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def state_3d():
    g = build_grid(dim=3, cross_extents=((0.0, 1.0), (0.0, 1.0)), shape=(33, 33, 65))
    return PicardState(LAW, _background(64), g)


def test_step_and_residual_rise_bytes_per_node(state_3d):
    # one step forms the gradient and the remainders per slab of 15 rows
    # and their halos, here about half the grid, beside the whole
    # right-hand side, and then holds the solve's own arrays: 63 B per node
    # measured; the residual forms its fields per slab of 16 rows and their
    # halos: 50 measured (tests/test_phase_memory.py holds the tighter bounds)
    g = state_3d.grid
    N = g.n_nodes
    data = perturb_data(state_3d.background, g, 1e-3)
    pair, step_rise = _rise_per_node(N, state_3d.step, FieldPair(np.zeros(N), np.zeros(N)), data)
    _, residual_rise = _rise_per_node(N, nonlinear_residual, state_3d, pair, data)
    assert step_rise <= 100.0
    assert residual_rise <= 108.0


def test_importing_the_cli_leaves_openssl_unloaded():
    # hashlib maps OpenSSL (about 3.4 MB of RSS) into the process; only
    # `sweep` names its output file by a hash, and imports it then
    script = "import sys, ep_nozzle.cli; print(sorted({'_hashlib', 'hashlib'} & set(sys.modules)))"
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["[]"]


def test_commands_load_no_heavy_extras(tmp_path):
    # numpy.random imports `secrets`, and hashlib `_hashlib`: both map
    # OpenSSL. The norms sample their node pairs with the stdlib `random`,
    # `sweep` tags its file by CPython's builtin SHA-256, and scipy serves
    # `verify` and the cross-checks only
    (tmp_path / "run.ini").write_text("[nozzle]\nnodes_cross = 9\nnodes_axial = 17\n"
                                      "[sweep]\nsigmas = 0.0001,0.0002\n")
    script = (
        "import sys\n"
        "from ep_nozzle import cli\n"
        "for command in ('solve', 'sweep', 'perturb-domain'):\n"
        "    assert cli.main([command, '--config', 'run.ini', '--out', command]) == 0\n"
        "print(sorted({'_hashlib', '_ssl', 'scipy', 'numpy.random'} & set(sys.modules)),\n"
        "      file=sys.stderr)\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    err = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
                         cwd=tmp_path, check=True, capture_output=True, text=True).stderr
    assert err.split() == ["[]"]
    # the tag is hashlib's sha256 of the sigmas' JSON, as it always was
    written = list((tmp_path / "sweep").glob("sweep_*.json"))
    sigmas = json.loads(written[0].read_text())["sigmas"]
    tag = hashlib.sha256(json.dumps(sigmas).encode()).hexdigest()[:10]
    assert [path.name for path in written] == [f"sweep_{tag}.json"]
