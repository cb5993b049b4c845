import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ep_nozzle import domainmap, driver, grid as gridmod, pool
from ep_nozzle.domainmap import (
    _field_map,
    _mass_map,
    correction_terms,
    jacobian_JT,
    pushforward_residual,
    shear_map,
    solve_perturbed,
)
from ep_nozzle.errors import FoldOverError
from ep_nozzle.gas import GasLaw
from ep_nozzle.grid import build_grid
from ep_nozzle.ode1d import OneDParams, aligned_steps, integrate_ivp

from gridpoints import node_coords, one_row_slabs

LAW = GasLaw(gamma=2.0, k0=1.0)


def _background(n_axial_intervals):
    n = aligned_steps(1024, n_axial_intervals)
    return integrate_ivp(LAW, OneDParams(0.5, 1.2, 0.1, 1.0, 1.0), n)


@pytest.fixture(scope="module")
def state_small():
    g = build_grid(dim=2, shape=(17, 33))
    return driver.PicardState(LAW, _background(32), g)


@pytest.fixture(scope="module")
def state_medium():
    g = build_grid(dim=2, shape=(33, 65))
    return driver.PicardState(LAW, _background(64), g)


@pytest.fixture(scope="module")
def state_3d_small():
    g = build_grid(dim=3, cross_extents=((0.0, 1.0),) * 2, shape=(9, 9, 17))
    return driver.PicardState(LAW, _background(16), g)


@pytest.fixture(scope="module")
def state_3d_medium():
    g = build_grid(dim=3, cross_extents=((0.0, 1.0),) * 2, shape=(17, 17, 33))
    return driver.PicardState(LAW, _background(32), g)


@pytest.fixture
def jacobian_calls(monkeypatch):
    """The axes of every `domainmap.jacobian_JT` call from here on, in order."""
    calls = []

    def counted(shear, axes):
        calls.append(axes)
        return jacobian_JT(shear, axes)

    monkeypatch.setattr(domainmap, "jacobian_JT", counted)
    return calls


# ---------------------------------------------------------------------------
# oracles: the shear's forward Jacobian written out per point and inverted
# by LAPACK, and the einsum pullback formulas on node-major stacks (..., d, d)


def _forward_jacobian(shear, axes):
    """Forward Jacobian (n_points, d, d) of G = x' + eps w(x') s(x_n) at the
    tensor-product points of axes, axial row appended."""
    x = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    d = x.shape[1]
    xn, L, eps = x[:, -1], shear.L, shear.eps
    s = np.sin(np.pi * xn / L) ** 2
    ds = 2.0 * np.pi / L * np.sin(np.pi * xn / L) * np.cos(np.pi * xn / L)
    M = np.zeros((x.shape[0], d, d))
    M[:, -1, -1] = 1.0
    for a, (lo, hi) in enumerate(shear.cross_extents):
        t = (x[:, a] - lo) / (hi - lo)
        M[:, a, a] = 1.0 - eps * np.pi / (hi - lo) * np.sin(np.pi * t) * s
        M[:, a, -1] = eps * np.cos(np.pi * t) * ds
    return M


def _lapack_jacobian_JT(shear, axes):
    """M^{-T} as a component-major stack (d, d, n), and 1 / det M."""
    M = _forward_jacobian(shear, axes)
    return np.transpose(np.linalg.inv(M), (2, 1, 0)), 1.0 / np.linalg.det(M)


def _assert_entries_match(JT, JT_o, tol):
    """jacobian_JT's (diag, axial) against a component-major stack JT_o: the
    read entries within tol of its scale, and every other entry 0 or 1."""
    diag, axial = JT
    scale = tol * np.max(np.abs(JT_o))
    rest = JT_o - np.eye(len(JT_o))[:, :, None]
    for a in range(len(diag)):
        assert np.max(np.abs(diag[a] - JT_o[a, a])) <= scale
        assert np.max(np.abs(axial[a] - JT_o[-1, a])) <= scale
        rest[a, a] = rest[-1, a] = 0.0
    assert np.max(np.abs(rest)) <= scale


def _assert_identity_entries(JT, detJT):
    diag, axial = JT
    assert all(np.all(d_a == 1.0) for d_a in diag)
    assert all(np.all(x_a == 0.0) for x_a in axial)
    assert np.all(detJT == 1.0)


def _einsum_pullback(law, z, q1, q2, M):
    detM = np.linalg.det(M)
    MtM = np.einsum("...ki,...kj->...ij", M, M)
    Mq1 = np.einsum("...ij,...j->...i", M, q1)
    rho = law.density(z, np.einsum("...i,...i->...", Mq1, Mq1))
    A1 = np.asarray(rho)[..., None] * np.einsum("...ij,...j->...i", MtM, q1) / detM[..., None]
    A2 = np.einsum("...ij,...j->...i", MtM, q2) / detM[..., None]
    return A1, A2, rho


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _random_shear(rng, dim):
    """A shear with random extents, length and eps, and sorted random axes;
    |eps| pi / span <= 0.9 keeps every cross entry 1 + eps w_a' s of the
    forward Jacobian positive."""
    L = rng.uniform(0.2, 5.0)
    lo = rng.uniform(-2.0, 2.0, dim - 1)
    extents = [(a, a + span) for a, span in zip(lo, rng.uniform(0.1, 3.0, dim - 1))]
    eps = rng.uniform(-0.9, 0.9) * min(hi - a for a, hi in extents) / np.pi
    axes = [np.sort(rng.uniform(a, hi, rng.integers(1, 12))) for a, hi in extents]
    axes.append(np.sort(rng.uniform(0.0, L, rng.integers(1, 12))))
    return shear_map(eps, L, extents), axes


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_closed_form_jacobian_matches_lapack(dim, seed):
    shear, axes = _random_shear(np.random.default_rng(seed), dim)
    JT, detJT = jacobian_JT(shear, axes)
    JT_o, detJT_o = _lapack_jacobian_JT(shear, axes)
    _assert_entries_match(JT, JT_o, 1e-13)
    assert _rel_err(detJT, detJT_o) <= 1e-13


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_closed_form_pullback_matches_einsum(dim, seed):
    # the flux maps on the shear's J_T against the einsum formulas on the
    # LAPACK inverse of its forward Jacobian
    rng = np.random.default_rng(seed)
    shear, axes = _random_shear(rng, dim)
    M = np.swapaxes(np.linalg.inv(_forward_jacobian(shear, axes)), -1, -2)
    n = len(M)
    z = rng.uniform(0.0, 1.0, n)
    # scaled so that |J_T q1|^2 <= 1.76 stays off the vacuum threshold
    q1, q2 = rng.uniform(-0.4, 0.4, (2, n, dim)) / np.max(np.abs(M))
    JT, detJT = jacobian_JT(shear, axes)
    A1, rho = _mass_map(LAW, z, q1.T, JT, detJT)
    A2 = _field_map(JT, q2.T, detJT)
    A1_o, A2_o, rho_o = _einsum_pullback(LAW, z, q1, q2, M)
    assert _rel_err(A1.T, A1_o) <= 1e-13
    assert _rel_err(A2.T, A2_o) <= 1e-13
    assert _rel_err(rho, rho_o) <= 1e-13


def _assert_shear_matches_closed_form(g, eps):
    # forward M = [[diag(a), b], [0, 1]]; JT = M^{-T} = [[diag(1/a), 0], [-b/a, 1]]
    (diag, axial), detJT = jacobian_JT(shear_map(eps, g.L, g.cross_extents), g.axes)
    x = node_coords(g)
    s = np.sin(np.pi * x[:, -1] / g.L) ** 2
    ds = (np.pi / g.L) * np.sin(2 * np.pi * x[:, -1] / g.L)
    det = 1.0
    for i in range(g.dim - 1):
        w = np.cos(np.pi * x[:, i])
        dw = -np.pi * np.sin(np.pi * x[:, i])
        a = 1.0 + eps * dw * s          # dG_i/dx_i
        b = eps * w * ds                # dG_i/dxn
        det = det * a
        assert np.max(np.abs(diag[i] - 1.0 / a)) < 1e-13
        assert np.max(np.abs(axial[i] + b / a)) < 1e-13
    assert np.max(np.abs(detJT - 1.0 / det)) < 1e-13


class TestJacobian:
    def test_identity(self, state_small):
        g = state_small.grid
        _assert_identity_entries(*jacobian_JT(shear_map(0.0, g.L, g.cross_extents), g.axes))

    def test_shear_matches_closed_form(self, state_small):
        _assert_shear_matches_closed_form(state_small.grid, 1e-3)

    def test_shear_matches_closed_form_3d(self, state_3d_small):
        _assert_shear_matches_closed_form(state_3d_small.grid, 1e-3)

    def test_numeric_differentiation_agrees(self, state_small, state_3d_small):
        # central differences of the forward map (map_cross on shifted axes)
        # give M; its LAPACK inverse must agree with the factor form
        h = 1e-6
        for g in (state_small.grid, state_3d_small.grid):
            shear = shear_map(2e-3, g.L, g.cross_extents)

            def forward(axis, step):
                axes = list(g.axes)
                axes[axis] = axes[axis] + step
                return shear.map_cross(dataclasses.replace(g, axes=tuple(axes)))

            M = np.zeros((g.n_nodes, g.dim, g.dim))
            M[:, -1, -1] = 1.0
            for axis in range(g.dim):
                M[:, :-1, axis] = (forward(axis, h) - forward(axis, -h)) / (2 * h)
            JT_a, det_a = jacobian_JT(shear, g.axes)
            JT_n = np.transpose(np.linalg.inv(M), (2, 1, 0))
            _assert_entries_match(JT_a, JT_n, 1e-8 / np.max(np.abs(JT_n)))
            assert np.max(np.abs(det_a - 1.0 / np.linalg.det(M))) < 1e-8

    def test_determinant_continuity_in_eps(self, state_small):
        g = state_small.grid
        sups = []
        eps_list = [1e-3, 2e-3, 4e-3]
        for eps in eps_list:
            _, detJT = jacobian_JT(shear_map(eps, g.L, g.cross_extents), g.axes)
            sups.append(np.max(np.abs(detJT - 1.0)))
        assert sups[2] / sups[0] == pytest.approx(4.0, rel=0.05)

    def test_fold_over(self, state_small):
        g = state_small.grid
        with pytest.raises(FoldOverError):
            jacobian_JT(shear_map(0.5, g.L, g.cross_extents), g.axes)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eps", [-1e200, np.nan], ids=["overflow", "nan"])
    def test_fold_over_refuses_non_finite_determinant(self, eps):
        # inside the extents w_a' < 0 < s, so each cross entry 1 + eps w_a' s
        # is positive; at eps = -1e200 each is about 1e200 and their product
        # overflows to +inf, and eps = nan gives nan: neither passes `det <= 0`
        axes = (np.linspace(0.1, 0.9, 5), np.linspace(0.2, 0.8, 4), np.linspace(0.1, 0.9, 6))
        extents = ((0.0, 1.0), (0.0, 1.0))
        with pytest.raises(FoldOverError):
            jacobian_JT(shear_map(eps, 1.0, extents), axes)
        if not np.isnan(eps):
            # the same shear 1e100 times smaller has a finite determinant
            (diag, axial), detJT = jacobian_JT(shear_map(eps * 1e-100, 1.0, extents), axes)
            assert all(np.all(np.isfinite(e)) for e in diag + axial)
            assert np.all(detJT > 0.0)


def _assert_identity_reduces_to_flat_maps(dim):
    rng = np.random.default_rng(0)
    axes = [np.linspace(0.0, 1.0, 4)] * (dim - 1) + [np.linspace(0.0, 1.0, 10)]
    n = 4 ** (dim - 1) * 10
    z = rng.uniform(0.0, 1.0, size=n)
    q1 = rng.uniform(-0.4, 0.4, size=(n, dim))
    q2 = rng.uniform(-0.4, 0.4, size=(n, dim))
    JT, detJT = jacobian_JT(shear_map(0.0, 1.0, [(0.0, 1.0)] * (dim - 1)), axes)
    A1, rho_map = _mass_map(LAW, z, q1.T, JT, detJT)
    rho = LAW.density(z, sum(c * c for c in q1.T))  # summed in component order
    assert np.array_equal(rho_map, rho)
    assert np.array_equal(A1.T, rho[:, None] * q1)
    assert np.array_equal(_field_map(JT, q2.T, detJT).T, q2)


def _assert_hand_value(x):
    # J_T = [[d, 0], [x, 1]]: J_T q = (d q0, x q0 + q1), and J_T^T of that
    # is (d^2 q0 + x (x q0 + q1), x q0 + q1)
    eps = 0.1
    d = 1.0 + eps
    JT = ((np.array([d]),), (np.array([x]),))
    q2 = np.array([[0.3], [-0.2]])
    det = 1.0 + eps
    A2 = _field_map(JT, q2, np.array([det]))
    row = x * 0.3 - 0.2
    expect = np.array([[(d * d * 0.3 + x * row) / det], [row / det]])
    assert A2 == pytest.approx(expect, rel=1e-14)


class TestPullback:
    def test_identity_reduces_to_flat_maps(self):
        _assert_identity_reduces_to_flat_maps(2)

    def test_identity_reduces_to_flat_maps_3d(self):
        _assert_identity_reduces_to_flat_maps(3)

    def test_diagonal_matrix_hand_value(self):
        _assert_hand_value(0.0)

    def test_axial_entry_hand_value(self):
        _assert_hand_value(-0.2)

    def test_divergence_free_pullback_of_uniform_flow(self, state_small):
        # a uniform flow pulled back through the shear stays divergence-free
        # in the weak sense: flux differences telescope to the boundary
        g = state_small.grid
        shear = shear_map(2e-3, g.L, g.cross_extents)

        def mass_flux(axis, axes_e, z_e, q_e):
            JT_e, detJT_e = jacobian_JT(shear, axes_e)
            return (_mass_map(LAW, z_e, q_e.T, JT_e, detJT_e, axis)[0],)

        # potential of the 1D background satisfies the flat equations exactly;
        # its pullback residual is at discretization order
        c = state_small.coeffs
        phi0, Phi0 = (np.broadcast_to(p, g.shape).ravel() for p in (c.phi0, c.Phi0))
        div, = driver.edge_divergence(g, (phi0,), mass_flux, z=Phi0)
        interior = div.reshape(g.shape)[(slice(1, -1),) * g.dim]
        assert np.max(np.abs(interior)) < 5e-3  # O(eps) sources, small grid


def _assert_identity_gives_exact_zeros(state):
    g = state.grid
    N = g.n_nodes
    JT, detJT = jacobian_JT(shear_map(0.0, g.L, g.cross_extents), g.axes)
    _assert_identity_entries(JT, detJT)
    data = driver.perturb_data(state.background, g, 0.0)
    corr = correction_terms(
        state, shear_map(0.0, g.L, g.cross_extents),
        driver.FieldPair(np.zeros(N), np.zeros(N)), data.b
    )
    assert np.all(corr.H1 == 0.0)
    assert np.all(corr.H2 == 0.0)
    assert np.all(corr.src2 == 0.0)
    assert np.all(corr.g3 == 0.0)


def _assert_end_cap_rigidity(state):
    g = state.grid
    N = g.n_nodes
    shear = shear_map(5e-3, g.L, g.cross_extents)
    JT, detJT = jacobian_JT(shear, g.axes)
    xn = node_coords(g)[:, -1]
    caps = np.flatnonzero((xn == 0.0) | (xn == g.L))
    diag, axial = JT
    for a in range(g.dim - 1):
        assert np.max(np.abs(diag[a][caps] - 1.0)) < 1e-14
        assert np.max(np.abs(axial[a][caps])) < 1e-14
    data = driver.perturb_data(state.background, g, 0.0)
    corr = correction_terms(
        state, shear, driver.FieldPair(np.zeros(N), np.zeros(N)), data.b
    )
    assert np.max(np.abs(corr.H1[caps])) < 1e-14
    assert np.max(np.abs(corr.H2[caps])) < 1e-14
    assert np.max(np.abs(corr.g3)) < 1e-14


class TestCorrections:
    def test_identity_gives_exact_zeros(self, state_small):
        _assert_identity_gives_exact_zeros(state_small)

    def test_identity_gives_exact_zeros_3d(self, state_3d_small):
        _assert_identity_gives_exact_zeros(state_3d_small)

    def test_end_cap_rigidity(self, state_small):
        _assert_end_cap_rigidity(state_small)

    def test_end_cap_rigidity_3d(self, state_3d_small):
        _assert_end_cap_rigidity(state_3d_small)

    def test_linear_smallness_slope(self, state_small):
        g = state_small.grid
        N = g.n_nodes
        data = driver.perturb_data(state_small.background, g, 0.0)
        zero = driver.FieldPair(np.zeros(N), np.zeros(N))
        eps_list = np.array([1e-3, 2e-3, 4e-3, 8e-3, 1e-2])
        sups = []
        for eps in eps_list:
            shear = shear_map(float(eps), g.L, g.cross_extents)
            corr = correction_terms(state_small, shear, zero, data.b)
            sups.append(np.max(np.abs(corr.H1)))
        slope = np.polyfit(np.log(eps_list), np.log(sups), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.15)


def _assert_identity_map_identical_to_flat(state):
    g = state.grid
    cfg = driver.IterationConfig()
    data = driver.perturb_data(state.background, g, 1e-3)
    pair_flat, rep_flat = driver.run_fixed_point(cfg, data, state)
    # the shear of size zero is the identity map
    pair_id, rep_id = solve_perturbed(shear_map(0.0, g.L, g.cross_extents), cfg, data, state)
    assert np.array_equal(pair_flat.psi, pair_id.psi)
    assert np.array_equal(pair_flat.Psi, pair_id.Psi)
    assert rep_flat.iterations == rep_id.iterations


def _pushforward_order(states, eps=4e-3):
    """Convergence order of the pushforward residual over two grids, h halved."""
    cfg = driver.IterationConfig()
    resids = []
    for state in states:
        g = state.grid
        data0 = driver.perturb_data(state.background, g, 0.0)
        shear = shear_map(eps, g.L, g.cross_extents)
        pair, _ = solve_perturbed(shear, cfg, data0, state)
        resids.append(pushforward_residual(shear, state, pair, data0)[0])
    return np.log2(resids[0] / resids[1])


class TestSolvePerturbed:
    def test_identity_map_identical_to_flat(self, state_small):
        _assert_identity_map_identical_to_flat(state_small)

    def test_identity_map_identical_to_flat_3d(self, state_3d_small):
        _assert_identity_map_identical_to_flat(state_3d_small)

    def test_deformation_scaling_at_zero_sigma(self, state_medium):
        g = state_medium.grid
        cfg = driver.IterationConfig()
        data0 = driver.perturb_data(state_medium.background, g, 0.0)
        sups = []
        eps_list = [1e-3, 2e-3, 4e-3]
        for eps in eps_list:
            shear = shear_map(eps, g.L, g.cross_extents)
            pair, _ = solve_perturbed(shear, cfg, data0, state_medium)
            sups.append(pair.sup())
        slope = np.polyfit(np.log(eps_list), np.log(sups), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.15)

    def test_pushforward_residual_at_discretization_order(self, state_small, state_medium):
        assert _pushforward_order((state_small, state_medium)) > 1.4

    def test_pushforward_residual_at_discretization_order_3d(self, state_3d_small,
                                                              state_3d_medium):
        assert _pushforward_order((state_3d_small, state_3d_medium)) > 1.4

    @pytest.mark.parametrize("state", ["state_small", "state_3d_small"])
    def test_perturbed_path_makes_no_lapack_call(self, state, request, monkeypatch):
        # the pullback's 2x2 and 3x3 algebra is written out; a stacked
        # np.linalg call on this path costs one LAPACK call per node or edge
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg inverse or determinant on the perturbed path")

        state = request.getfixturevalue(state)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        monkeypatch.setattr(np.linalg, "det", refuse)
        g = state.grid
        data = driver.perturb_data(state.background, g, 1e-3)
        shear = shear_map(2e-3, g.L, g.cross_extents)
        pair, report = solve_perturbed(shear, driver.IterationConfig(), data, state)
        assert report.converged
        pushforward_residual(shear, state, pair, data)

    @pytest.mark.parametrize("state", ["state_small", "state_3d_medium"])
    def test_pushforward_residual_does_not_depend_on_the_slabs(self, state, request,
                                                               monkeypatch):
        # the residual runs in the strong residual's slabs and the wall
        # rung folds its corrections per slab; every term is pointwise or
        # reaches one row across, so no slab size changes a bit of the
        # residual or of the wall ladder
        state = request.getfixturevalue(state)
        g = state.grid
        data = driver.perturb_data(state.background, g, 1e-3)
        shear = shear_map(2e-3, g.L, g.cross_extents)
        pair, _ = solve_perturbed(shear, driver.IterationConfig(), data, state)

        def bits():
            total, parts = pushforward_residual(shear, state, pair, data)
            return (float(total).hex(), {k: float(v).hex() for k, v in parts.items()},
                    repr(domainmap.wall_sweep(driver.IterationConfig(), state, [1e-3, 2e-3])))

        results, widths = [], []
        for slab in (1, 1000, gridmod.SLAB_NODES, 10 * g.n_nodes):
            monkeypatch.setattr(gridmod, "SLAB_NODES", slab)
            widths.append(len(list(gridmod.slabs(g, 0, halo=2))))
            results.append(bits())
        monkeypatch.setattr(gridmod, "slabs", one_row_slabs)
        results.append(bits())
        assert widths[0] > 1 and widths[-1] == 1
        assert set(results[0][1]) == {"mass", "poisson"}
        assert all(r == results[0] for r in results[1:])

    @pytest.mark.parametrize("state", ["state_small", "state_3d_small"])
    def test_pushforward_evaluates_each_jacobian_once(self, state, request, monkeypatch):
        # one edge Jacobian per axis serves the mass and the field flux, and
        # one nodal Jacobian serves the source: d + 1 evaluations
        state = request.getfixturevalue(state)
        g = state.grid
        calls = []

        def counted(shear, axes):
            calls.append(int(np.prod([len(ax) for ax in axes])))
            return jacobian_JT(shear, axes)

        data = driver.perturb_data(state.background, g, 1e-3)
        shear = shear_map(2e-3, g.L, g.cross_extents)
        pair, _ = solve_perturbed(shear, driver.IterationConfig(), data, state)
        monkeypatch.setattr(domainmap, "jacobian_JT", counted)
        pushforward_residual(shear, state, pair, data)
        assert len(calls) == g.dim + 1
        assert calls[-1] == g.n_nodes

    @pytest.mark.parametrize("state", ["state_small", "state_3d_medium"])
    def test_corrections_form_the_jacobian_on_each_step_slab(self, state, request,
                                                             monkeypatch, jacobian_calls):
        # no nodal J_T is held through the solve: the corrections form J_T on
        # the rows of each step slab, once per slab and Picard step
        state = request.getfixturevalue(state)
        g = state.grid
        monkeypatch.setattr(gridmod, "SLAB_NODES", g.n_nodes // 3)
        step_rows = [rows for rows, _ in gridmod.slabs(g, 0, halo=1)]
        assert len(step_rows) >= 2
        data = driver.perturb_data(state.background, g, 1e-3)
        shear = shear_map(2e-3, g.L, g.cross_extents)
        _, report = solve_perturbed(shear, driver.IterationConfig(), data, state)
        assert len(jacobian_calls) == report.iterations * len(step_rows)
        for axes, rows in zip(jacobian_calls, step_rows * report.iterations):
            assert axes[0].size < g.shape[0]
            assert np.array_equal(axes[0], g.axes[0][rows])
            assert all(np.array_equal(a, b) for a, b in zip(axes[1:], g.axes[1:]))

    def test_wall_rung_forms_no_jacobian_of_the_whole_grid(self, state_medium, monkeypatch,
                                                           jacobian_calls):
        # the wall rung's corrections, solve and pushforward residual each form
        # J_T on a slab's nodes or edge midpoints: a contiguous run of the
        # grid's cross axis 0, or of its half points, shorter than the grid's
        g = state_medium.grid
        monkeypatch.setattr(gridmod, "SLAB_NODES", g.n_nodes // 3)
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 1)   # every rung runs here
        domainmap.wall_sweep(driver.IterationConfig(), state_medium, [1e-3, 2e-3])
        assert jacobian_calls
        axis0 = g.axes[0]
        half = 0.5 * (axis0[:-1] + axis0[1:])
        for axes in jacobian_calls:
            assert axes[0].size < half.size
            assert any(np.array_equal(axes[0], run[i:i + axes[0].size])
                       for run in (axis0, half) for i in range(run.size - axes[0].size + 1))
