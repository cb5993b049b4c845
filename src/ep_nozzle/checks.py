"""Acceptance criteria of the paper's claims, one list shared by
`ep-nozzle verify` and the acceptance tests (tests/test_acceptance.py).

`CHECKS` maps a name to a function of no arguments that returns
(passed, detail) at the acceptance sizes, seeds and tolerances: criteria 01
to 12, the 3D twins of 07 to 12, the trivial fixed point and the sparse-LU
cross-check of the separable solve. A criterion and its 3D twin are one
function of the grid shape, registered twice. Of the commands only
`verify` imports this module, so the others never compile it.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from . import coeffs, domainmap, driver, elliptic, grid as gridmod, ode1d
from .gas import GasLaw

_LAW = GasLaw(gamma=2.0, k0=1.0)
_EQUILIBRIUM = ode1d.OneDParams(J0=0.5, rho0=1.0, E0=0.0, L=1.0, b=1.0)
_MONOTONE = ode1d.OneDParams(J0=0.5, rho0=1.2, E0=0.1, L=1.0, b=1.0)
_SIGMAS = [1e-4, 2e-4, 4e-4, 8e-4]      # the sigma ladder of criterion 09
_EPS = [1e-3, 2e-3, 4e-3, 8e-3]         # the wall ladder of criterion 11, at sigma = 0
_ROUNDING = 1e-6     # criterion 08: a part of the residual floor under this share is rounding


def node_coords(g):
    """(n_nodes, dim) coordinates in node order (C order of the axes)."""
    return np.stack([m.ravel() for m in np.meshgrid(*g.axes, indexing="ij")], axis=1)


def _grid(shape):
    """The unit cross-section of shape's dimension times (0, 1)."""
    dim = len(shape)
    return gridmod.build_grid(dim=dim, cross_extents=((0.0, 1.0),) * (dim - 1), shape=shape)


def _background(params, grid):
    return ode1d.integrate_ivp(_LAW, params, ode1d.aligned_steps(1024, grid.shape[-1] - 1))


def _state(shape):
    grid = _grid(shape)
    return driver.PicardState(_LAW, _background(_MONOTONE, grid), grid)


def _fixed_point(state, sigma=1e-3, start=None):
    data = driver.perturb_data(state.background, state.grid, sigma)
    pair, report = driver.run_fixed_point(driver.IterationConfig(), data, state, start=start)
    return data, pair, report


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
    return elliptic.DiscreteOperator(
        elliptic.make_coeffs(_LAW, _background(params, grid), grid), grid)


def check_coupling_cancellation():
    t0 = time.perf_counter()
    op = _operator(_MONOTONE, _grid((33, 65)))
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
    grid = _grid((33, 65))
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


# ---------------------------------------------------------------------------
# method of manufactured solutions on the constant background (criterion 07)


C_EN, C_EX = 0.3, 0.2


def _product(factors):
    """prod_a f_a(x_a) and its partials, from (f_a, f_a') pairs."""
    values = [f for f, _ in factors]
    partials = [np.prod(values[:a] + [df] + values[a + 1:], axis=0)
                for a, (_, df) in enumerate(factors)]
    return np.prod(values, axis=0), partials


def _mms_terms(*x):
    """v = sin(pi x) [cos(pi y)] z^2 and W = cos(pi x) [cos(pi y)] P(z), with
    P(z) = C_EN (1 - z) + C_EX z + z (1 - z), at points with cross coordinates
    x[:-1] and axial coordinate z = x[-1]; returns v, W, their gradients and
    the cross factors of v and W."""
    *cross, z = x
    sv, dsv = _product([(np.sin(np.pi * c), np.pi * np.cos(np.pi * c)) if a == 0
                        else (np.cos(np.pi * c), -np.pi * np.sin(np.pi * c))
                        for a, c in enumerate(cross)])
    cw, dcw = _product([(np.cos(np.pi * c), -np.pi * np.sin(np.pi * c)) for c in cross])
    P = C_EN * (1 - z) + C_EX * z + z * (1 - z)
    grad_v = [d * z ** 2 for d in dsv] + [2 * z * sv]
    grad_W = [d * P for d in dcw] + [cw * (-C_EN + C_EX + 1 - 2 * z)]
    return sv * z ** 2, cw * P, grad_v, grad_W, sv, cw


def manufactured(*x):
    return _mms_terms(*x)[:2]


def manufactured_data(g):
    """The linear data of the manufactured problem, and s1, the volume
    source of its v equation, which `LinearData` has no field for."""
    # constant background: a = diag(1, .., 1, 0.875), dzB = 0.5, dzA = (0, .., 0, 0.25)
    a11, ann, dzB, dzA_n, J0, pp = 1.0, 0.875, 0.5, 0.25, 0.5, 2.0
    dc = g.dim - 1
    v, W, grad_v, grad_W, sv, cw = _mms_terms(*node_coords(g).T)
    s1 = a11 * (-dc * np.pi ** 2 * v) + ann * 2 * sv + dzA_n * grad_W[-1]
    f = -dc * np.pi ** 2 * W - 2 * cw - dzB * W + dzA_n * grad_v[-1]
    cross = [c.ravel() for c in np.meshgrid(*g.axes[:-1], indexing="ij")]
    W_en = _mms_terms(*cross, 0.0)[1]
    _, W_ex, grad_v_ex, *_ = _mms_terms(*cross, 1.0)
    # the walls are normal to the cross axes, where the conormal of v is a11 grad v
    return elliptic.LinearData(
        W_en=W_en, W_ex=W_ex, f=f, g_exit=-(J0 / pp) * grad_v_ex[-1],
        wall_flux_v=a11 * np.stack(grad_v, axis=1), wall_flux_W=np.stack(grad_W, axis=1),
    ), s1


def manufactured_rhs(op):
    """The manufactured data and right-hand side: `assemble_rhs` less the
    trapezoid mass of s1 on the free rows of v."""
    g = op.grid
    data, s1 = manufactured_data(g)
    rhs = elliptic.assemble_rhs(op, data)
    bv = rhs[:g.n_nodes]
    bv -= elliptic._lumped_mass(op.quad, s1).ravel()
    g.face(bv, -1, 0)[...] = 0.0
    return data, rhs


def mms_solve(shape):
    """Manufactured solve on the constant background on the unit grid of
    shape, dim 2 or 3: the grid, the operator, the data, v and W, the exact
    v and W at the nodes and the solve's residual."""
    g = _grid(shape)
    op = _operator(_EQUILIBRIUM, g)
    data, rhs = manufactured_rhs(op)
    v, W, residual = elliptic.solve(op, rhs)
    v_exact, W_exact = manufactured(*node_coords(g).T)
    return g, op, data, v, W, v_exact, W_exact, residual


def check_manufactured_convergence(shapes):
    t0 = time.perf_counter()
    errs, residuals = [], []
    for shape in shapes:
        _, _, _, v, W, v_exact, W_exact, residual = mms_solve(shape)
        errs.append(max(np.max(np.abs(v - v_exact)), np.max(np.abs(W - W_exact))))
        residuals.append(residual)
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    elapsed = time.perf_counter() - t0
    return (all(r < 1e-11 for r in residuals) and all(1.7 <= p <= 2.3 for p in orders),
            f"max-norm orders = {[f'{p:.3f}' for p in orders]}, "
            f"max residual = {max(residuals):.1e}, {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# the nonlinear problem at sigma = 1e-3 (criteria 08 to 12)


def check_nonlinear_fixed_point(shape):
    # each residual component within 4 times its own part of the floor, so
    # that the background's own interior floor does not hide the others; a
    # part under _ROUNDING of the floor is rounding, not discretization, and
    # such a component (the wall fluxes, the traces) keeps the whole floor
    t0 = time.perf_counter()
    state = _state(shape)
    _, _, report = _fixed_point(state)
    floor, parts = driver.residual_floor(state)
    elapsed = time.perf_counter() - t0
    factors = report.contraction_factors
    ratios = {name: report.residual_components[name]
              / (part if part > _ROUNDING * floor else floor) for name, part in parts.items()}
    worst = max(ratios, key=ratios.get)
    return (report.converged and report.iterations <= 15 and all(r < 1.0 for r in factors)
            and report.subsonic_margin > 0.0 and all(r <= 4.0 for r in ratios.values()),
            f"iterations = {report.iterations}, max factor = {max(factors):.3f}, "
            f"margin = {report.subsonic_margin:.3f}, "
            f"residual = {report.nonlinear_residual:.2e} (floor {floor:.2e}), "
            f"largest component over its floor = {ratios[worst]:.3f} ({worst}) <= 4, "
            f"{elapsed:.2f} s")


def check_sigma_linear_stability(shape):
    t0 = time.perf_counter()
    sweep = driver.stability_sweep(driver.IterationConfig(), _state(shape), _SIGMAS)
    elapsed = time.perf_counter() - t0
    return (abs(sweep["slope_norm"] - 1.0) <= 0.1
            and abs(sweep["slope_contraction"] - 1.0) <= 0.2,
            f"solution slope = {sweep['slope_norm']:.5f}, "
            f"contraction slope = {sweep['slope_contraction']:.5f}, {elapsed:.2f} s")


def check_uniqueness_probe(shape):
    # a second start inside the ball, a quarter of its radius, on the same data
    t0 = time.perf_counter()
    state = _state(shape)
    g = state.grid
    data, pair1, _ = _fixed_point(state)
    amp = driver.IterationConfig().ball_multiplier * data.sigma / 4.0
    *cross, z = node_coords(g).T
    mode = np.prod([np.cos(np.pi * c) for c in cross], axis=0)
    start = driver.FieldPair(amp * mode * (z / g.L) ** 2, amp * mode * np.sin(np.pi * z / g.L))
    _, pair2, _ = _fixed_point(state, start=start)
    gap = max(float(np.max(np.abs(pair1.psi - pair2.psi))),
              float(np.max(np.abs(pair1.Psi - pair2.Psi))))
    elapsed = time.perf_counter() - t0
    return gap < 1e-8, f"two-start gap = {gap:.1e}, {elapsed:.2f} s"


def check_domain_perturbation():
    t0 = time.perf_counter()
    state = _state((33, 65))
    g = state.grid
    cfg = driver.IterationConfig()
    data = driver.perturb_data(state.background, g, 1e-3)

    # identity degeneracy: corrections exactly zero, output identical
    zero = driver.FieldPair(np.zeros(g.n_nodes), np.zeros(g.n_nodes))
    identity = domainmap.shear_map(0.0, g.L, g.cross_extents)
    corr = domainmap.correction_terms(state, identity, zero, data.b)
    degenerate = all(np.all(t == 0.0) for t in (corr.H1, corr.H2, corr.src2, corr.g3))
    pair_flat, _ = driver.run_fixed_point(cfg, data, state)
    pair_id, _ = domainmap.solve_perturbed(identity, cfg, data, state)
    identical = (np.array_equal(pair_flat.psi, pair_id.psi)
                 and np.array_equal(pair_flat.Psi, pair_id.Psi))

    # correction magnitude is linear in the shear size
    eps_list = _EPS + [1e-2]
    data0 = driver.perturb_data(state.background, g, 0.0)
    sups = [float(np.max(np.abs(domainmap.correction_terms(
                state, domainmap.shear_map(eps, g.L, g.cross_extents), zero, data0.b).H1)))
            for eps in eps_list]
    slope_corr = driver.loglog_slope(eps_list, sups)

    # fixed-point response is linear in the deformation size at sigma = 0
    norms = [domainmap.solve_perturbed(domainmap.shear_map(eps, g.L, g.cross_extents),
                                       cfg, data0, state)[0].sup() for eps in _EPS]
    slope_solve = driver.loglog_slope(_EPS, norms)
    elapsed = time.perf_counter() - t0
    return (degenerate and identical
            and abs(slope_corr - 1.0) <= 0.15 and abs(slope_solve - 1.0) <= 0.15,
            f"identity {'identical' if degenerate and identical else 'differs'}, "
            f"correction slope = {slope_corr:.3f}, response slope = {slope_solve:.3f}, "
            f"{elapsed:.2f} s")


def check_wall_ladder(shape):
    # the wall ladder that `ep-nozzle sweep` runs, at sigma = 0
    t0 = time.perf_counter()
    wall = domainmap.wall_sweep(driver.IterationConfig(), _state(shape), _EPS)
    elapsed = time.perf_counter() - t0
    return (abs(wall["slope_corrections"] - 1.0) <= 0.15
            and abs(wall["slope_response"] - 1.0) <= 0.15,
            f"correction slope = {wall['slope_corrections']:.5f}, "
            f"response slope = {wall['slope_response']:.5f}, {elapsed:.2f} s")


def check_exit_pressure(shape):
    state = _state(shape)
    _, _, report = _fixed_point(state)
    floor, _ = driver.residual_floor(state)
    exit_resid = report.residual_components["exit_pressure"]
    return (exit_resid <= 10.0 * floor,
            f"max |p(rho) - pex| on the exit = {exit_resid:.2e} <= 10 x floor {floor:.2e}")


# ---------------------------------------------------------------------------
# checks of the solver itself


def check_trivial_fixed_point():
    state = _state((17, 33))
    _, pair, report = _fixed_point(state, sigma=0.0)
    return (report.iterations == 1 and pair.sup() < 1e-12,
            f"iterations = {report.iterations}, sup = {pair.sup():.2e}")


def check_separable_solve():
    t0 = time.perf_counter()
    grid = _grid((9, 9, 17))
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


_2D, _3D = (64, 128), (17, 17, 33)

CHECKS = {
    "structural identity": check_structural_identity,
    "enthalpy roundtrip": check_enthalpy_roundtrip,
    "1D equilibrium and RK4 order": check_equilibrium_and_rk4_order,
    "shooting/forward roundtrip": check_shooting_roundtrip,
    "discrete coupling cancellation": check_coupling_cancellation,
    "discrete coercivity": check_coercivity,
    "manufactured-solution convergence": functools.partial(
        check_manufactured_convergence, [(17, 33), (33, 65), (65, 129)]),
    "manufactured-solution convergence, 3D": functools.partial(
        check_manufactured_convergence, [(9, 9, 17), (17, 17, 33), (33, 33, 65)]),
    "nonlinear fixed point": functools.partial(check_nonlinear_fixed_point, _2D),
    "nonlinear fixed point, 3D 17x17x33": functools.partial(check_nonlinear_fixed_point, _3D),
    "sigma-linear stability": functools.partial(check_sigma_linear_stability, _2D),
    "sigma-linear stability, 3D 17x17x33": functools.partial(check_sigma_linear_stability, _3D),
    "uniqueness probe": functools.partial(check_uniqueness_probe, _2D),
    "uniqueness probe, 3D 17x17x33": functools.partial(check_uniqueness_probe, _3D),
    "domain-perturbation degeneracy and smallness": check_domain_perturbation,
    "domain-perturbation smallness, 3D 17x17x33": functools.partial(check_wall_ladder, _3D),
    "exit-pressure faithfulness": functools.partial(check_exit_pressure, _2D),
    "exit-pressure faithfulness, 3D 17x17x33": functools.partial(check_exit_pressure, _3D),
    "trivial fixed point": check_trivial_fixed_point,
    "separable solve agrees with sparse LU": check_separable_solve,
}
