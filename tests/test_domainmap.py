import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ep_nozzle import domainmap, driver
from ep_nozzle.domainmap import (
    Corrections,
    DomainMap,
    correction_terms,
    identity_map,
    jacobian_JT,
    jacobian_JT_at,
    pullback_operators,
    pushforward_residual,
    shear_map,
    solve_perturbed,
)
from ep_nozzle.elliptic import _along
from ep_nozzle.errors import FoldOverError
from ep_nozzle.gas import GasLaw
from ep_nozzle.grid import build_grid
from ep_nozzle.ode1d import OneDParams, aligned_steps, integrate_ivp

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


# ---------------------------------------------------------------------------
# the stacked LAPACK and einsum formulas the closed forms replaced, kept as
# oracles; they work on node-major stacks (..., d, d)


def _forward_jacobian_at(dmap, coords):
    """Jacobian of the full map at given points, axial row appended."""
    xprime, xn = coords[:, :-1], coords[:, -1]
    d = coords.shape[1]
    M = np.zeros((coords.shape[0], d, d))
    M[:, -1, -1] = 1.0
    M[:, :-1, :-1] = dmap.dg_dxprime(xprime, xn)
    M[:, :-1, -1] = dmap.dg_dxn(xprime, xn)
    return M


def _lapack_jacobian_JT_at(dmap, coords):
    """M^{-T} as the component-major stack (d, d, n) that jacobian_JT_at returns."""
    M = _forward_jacobian_at(dmap, coords)
    detM = np.linalg.det(M)
    return np.transpose(np.linalg.inv(M), (2, 1, 0)), 1.0 / detM


def _component_major(M):
    return np.moveaxis(M, (-2, -1), (0, 1))


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


def _sheared_affine_map(dc, rng):
    """G = A0 x' + e v sin(a.x' + k x_n): a full, point-dependent cross block
    A0 + e cos(.) v a^T and a nonzero axial column e k cos(.) v. A0 = I + 0.3 R
    and e <= 0.1 with |R|, |v|, |a| <= 1 keep det dG/dx' positive."""
    A0 = np.eye(dc) + 0.3 * rng.uniform(-1.0, 1.0, (dc, dc))
    v, a = rng.uniform(-1.0, 1.0, (2, dc))
    e, k = rng.uniform(0.01, 0.1), rng.uniform(1.0, 5.0)

    def theta(xprime, xn):
        return xprime @ a + k * xn

    def gfun(xprime, xn):
        return xprime @ A0.T + e * np.sin(theta(xprime, xn))[..., None] * v

    def dgx(xprime, xn):
        return A0 + e * np.cos(theta(xprime, xn))[..., None, None] * np.outer(v, a)

    def dgn(xprime, xn):
        return e * k * np.cos(theta(xprime, xn))[..., None] * v

    return DomainMap(gfun=gfun, dg_dxprime=dgx, dg_dxn=dgn, sigmaG=e)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_closed_form_jacobian_matches_lapack(dim, seed):
    rng = np.random.default_rng(seed)
    dmap = _sheared_affine_map(dim - 1, rng)
    coords = rng.uniform(0.0, 1.0, (50, dim))
    JT, detJT = jacobian_JT_at(dmap, coords)
    JT_o, detJT_o = _lapack_jacobian_JT_at(dmap, coords)
    assert _rel_err(JT, JT_o) <= 1e-13
    assert _rel_err(detJT, detJT_o) <= 1e-13


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from([2, 3]), batch=st.sampled_from([(), (50,), (5, 10)]),
       seed=st.integers(0, 2**32 - 1))
def test_closed_form_pullback_matches_einsum(dim, batch, seed):
    # I + 0.3 R is diagonally dominant (condition number below 20); the
    # scale and a row sign flip give determinants of either sign
    rng = np.random.default_rng(seed)
    M = np.eye(dim) + 0.3 * rng.uniform(-1.0, 1.0, batch + (dim, dim))
    M *= rng.uniform(0.5, 2.0, batch + (1, 1))
    M[..., 0, :] *= rng.choice([-1.0, 1.0], batch + (1,))
    z = rng.uniform(0.0, 1.0, batch)
    q1, q2 = rng.uniform(-0.4, 0.4, (2,) + batch + (dim,))
    A1, A2, rho = pullback_operators(LAW, z, q1, q2, _component_major(M), np.linalg.det(M))
    A1_o, A2_o, rho_o = _einsum_pullback(LAW, z, q1, q2, M)
    assert _rel_err(A1, A1_o) <= 1e-13
    assert _rel_err(A2, A2_o) <= 1e-13
    assert _rel_err(rho, rho_o) <= 1e-13


class TestJacobian:
    def test_identity(self, state_small):
        g = state_small.grid
        JT, detJT = jacobian_JT(identity_map(2), g)
        assert np.array_equal(JT, np.broadcast_to(np.eye(2)[:, :, None], JT.shape))
        assert np.all(detJT == 1.0)

    def test_shear_matches_closed_form(self, state_small):
        g = state_small.grid
        eps = 1e-3
        dmap = shear_map(eps, g.L, dim=2, cross_extents=g.cross_extents)
        JT, detJT = jacobian_JT(dmap, g)
        x, y = g.coords[:, 0], g.coords[:, 1]
        s = np.sin(np.pi * y / g.L) ** 2
        ds = (np.pi / g.L) * np.sin(2 * np.pi * y / g.L)
        w = np.cos(np.pi * x)
        dw = -np.pi * np.sin(np.pi * x)
        a = 1.0 + eps * dw * s          # dG/dx'
        b = eps * w * ds                # dG/dxn
        # forward M = [[a, b], [0, 1]]; JT = M^{-T} = [[1/a, 0], [-b/a, 1]]
        assert np.max(np.abs(JT[0, 0] - 1.0 / a)) < 1e-13
        assert np.max(np.abs(JT[0, 1])) < 1e-13
        assert np.max(np.abs(JT[1, 0] + b / a)) < 1e-13
        assert np.max(np.abs(JT[1, 1] - 1.0)) < 1e-13
        assert np.max(np.abs(detJT - 1.0 / a)) < 1e-13

    def test_numeric_differentiation_agrees(self, state_small):
        g = state_small.grid
        eps = 2e-3
        dmap = shear_map(eps, g.L, dim=2, cross_extents=g.cross_extents)
        h = 1e-6

        def dgx(xprime, xn):
            cols = []
            for a in range(xprime.shape[-1]):
                shift = np.zeros_like(xprime)
                shift[..., a] = h
                diff = dmap.gfun(xprime + shift, xn) - dmap.gfun(xprime - shift, xn)
                cols.append(diff / (2 * h))
            return np.stack(cols, axis=-1)

        def dgn(xprime, xn):
            return (dmap.gfun(xprime, xn + h) - dmap.gfun(xprime, xn - h)) / (2 * h)

        numeric = DomainMap(gfun=dmap.gfun, dg_dxprime=dgx, dg_dxn=dgn, sigmaG=dmap.sigmaG)
        JT_a, det_a = jacobian_JT(dmap, g)
        JT_n, det_n = jacobian_JT(numeric, g)
        assert np.max(np.abs(JT_a - JT_n)) < 1e-8
        assert np.max(np.abs(det_a - det_n)) < 1e-8

    def test_determinant_continuity_in_eps(self, state_small):
        g = state_small.grid
        sups = []
        eps_list = [1e-3, 2e-3, 4e-3]
        for eps in eps_list:
            dmap = shear_map(eps, g.L, dim=2, cross_extents=g.cross_extents)
            _, detJT = jacobian_JT(dmap, g)
            sups.append(np.max(np.abs(detJT - 1.0)))
        assert sups[2] / sups[0] == pytest.approx(4.0, rel=0.05)

    def test_fold_over(self, state_small):
        g = state_small.grid
        dmap = shear_map(0.5, g.L, dim=2, cross_extents=g.cross_extents)
        with pytest.raises(FoldOverError):
            jacobian_JT(dmap, g)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e200, np.nan], ids=["overflow", "nan"])
    def test_fold_over_refuses_non_finite_determinant(self, scale):
        # det of scale * I (2x2) is +inf or nan: neither passes `det <= 0`
        def dgx(xprime, xn):
            return np.broadcast_to(scale * np.eye(2), xprime.shape[:-1] + (2, 2)).copy()

        def dgn(xprime, xn):
            return np.zeros_like(xprime)

        dmap = DomainMap(gfun=lambda xprime, xn: scale * xprime, dg_dxprime=dgx, dg_dxn=dgn)
        coords = np.random.default_rng(0).uniform(0.0, 1.0, (20, 3))
        with pytest.raises(FoldOverError):
            jacobian_JT_at(dmap, coords)


class TestPullback:
    def test_identity_reduces_to_flat_maps(self):
        rng = np.random.default_rng(0)
        n = 40
        z = rng.uniform(0.0, 1.0, size=n)
        q1 = rng.uniform(-0.4, 0.4, size=(n, 2))
        q2 = rng.uniform(-0.4, 0.4, size=(n, 2))
        eye = np.broadcast_to(np.eye(2)[:, :, None], (2, 2, n))
        A1, A2, rho_map = pullback_operators(LAW, z, q1, q2, eye, np.ones(n))
        rho = LAW.density(z, np.einsum("ni,ni->n", q1, q1))
        assert np.array_equal(rho_map, rho)
        assert np.array_equal(A1, rho[:, None] * q1)
        assert np.array_equal(A2, q2)

    def test_diagonal_matrix_hand_value(self):
        eps = 0.1
        M = np.diag([1.0 + eps, 1.0])[:, :, None]
        q2 = np.array([[0.3, -0.2]])
        det = 1.0 + eps
        _, A2, _ = pullback_operators(LAW, np.array([0.5]), np.zeros((1, 2)), q2, M,
                                      np.array([det]))
        expect = np.array([[(1 + eps) ** 2 * 0.3 / det, -0.2 / det]])
        assert A2 == pytest.approx(expect, rel=1e-14)

    def test_divergence_free_pullback_of_uniform_flow(self, state_small):
        # a uniform flow pulled back through the shear stays divergence-free
        # in the weak sense: flux differences telescope to the boundary
        g = state_small.grid
        eps = 2e-3
        dmap = shear_map(eps, g.L, dim=2, cross_extents=g.cross_extents)

        coords = g.coords.reshape(g.shape + (g.dim,))

        def mass_flux(axis, z_e, q_e):
            mid = 0.5 * (coords[_along(axis, slice(0, -1))] + coords[_along(axis, slice(1, None))])
            JT_e, detJT_e = jacobian_JT_at(dmap, mid.reshape(-1, g.dim))
            return (pullback_operators(LAW, z_e, q_e, q_e, JT_e, detJT_e)[0].T,)

        # potential of the 1D background satisfies the flat equations exactly;
        # its pullback residual is at discretization order
        c = state_small.coeffs
        phi0, Phi0 = (np.broadcast_to(p, g.shape).ravel() for p in (c.phi0, c.Phi0))
        div, = driver.edge_divergence(g, (phi0,), mass_flux, z=Phi0)
        interior = g.tags == 0
        assert np.max(np.abs(div[interior])) < 5e-3  # O(eps) sources, small grid


def _assert_identity_gives_exact_zeros(state):
    g = state.grid
    N = g.n_nodes
    JT, detJT = jacobian_JT(identity_map(g.dim), g)
    assert np.array_equal(JT, np.broadcast_to(np.eye(g.dim)[:, :, None], JT.shape))
    assert np.all(detJT == 1.0)
    data = driver.perturb_data(state.background, g, 0.0)
    corr = correction_terms(
        LAW, state, JT, detJT, driver.FieldPair(np.zeros(N), np.zeros(N)), data.b
    )
    assert np.all(corr.H1 == 0.0)
    assert np.all(corr.H2 == 0.0)
    assert np.all(corr.src2 == 0.0)
    assert np.all(corr.g3 == 0.0)


def _assert_end_cap_rigidity(state):
    g = state.grid
    N = g.n_nodes
    dmap = shear_map(5e-3, g.L, dim=g.dim, cross_extents=g.cross_extents)
    JT, detJT = jacobian_JT(dmap, g)
    caps = g.gamma0 | g.gammaL
    assert np.max(np.abs(JT[:, :, caps] - np.eye(g.dim)[:, :, None])) < 1e-14
    data = driver.perturb_data(state.background, g, 0.0)
    corr = correction_terms(
        LAW, state, JT, detJT, driver.FieldPair(np.zeros(N), np.zeros(N)), data.b
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
            dmap = shear_map(float(eps), g.L, dim=2, cross_extents=g.cross_extents)
            JT, detJT = jacobian_JT(dmap, g)
            corr = correction_terms(LAW, state_small, JT, detJT, zero, data.b)
            sups.append(np.max(np.abs(corr.H1)))
        slope = np.polyfit(np.log(eps_list), np.log(sups), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.15)


def _assert_identity_map_identical_to_flat(state):
    cfg = driver.IterationConfig()
    data = driver.perturb_data(state.background, state.grid, 1e-3)
    pair_flat, rep_flat = driver.run_fixed_point(cfg, data, state)
    pair_id, rep_id = solve_perturbed(identity_map(state.grid.dim), cfg, data, state)
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
        dmap = shear_map(eps, g.L, dim=g.dim, cross_extents=g.cross_extents)
        pair, _ = solve_perturbed(dmap, cfg, data0, state)
        resids.append(pushforward_residual(dmap, state, pair, data0)[0])
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
            dmap = shear_map(eps, g.L, dim=2, cross_extents=g.cross_extents)
            pair, _ = solve_perturbed(dmap, cfg, data0, state_medium)
            sups.append(pair.sup())
        slope = np.polyfit(np.log(eps_list), np.log(sups), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.15)

    def test_pushforward_residual_at_discretization_order(self, state_small, state_medium):
        assert _pushforward_order((state_small, state_medium)) > 1.4

    def test_pushforward_residual_at_discretization_order_3d(self, state_3d_small,
                                                              state_3d_medium):
        assert _pushforward_order((state_3d_small, state_3d_medium)) > 1.4

    def test_perturbed_path_makes_no_lapack_call(self, state_small, monkeypatch):
        # the pullback's 2x2 and 3x3 algebra is written out; a stacked
        # np.linalg call on this path costs one LAPACK call per node or edge
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg inverse or determinant on the perturbed path")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        monkeypatch.setattr(np.linalg, "det", refuse)
        g = state_small.grid
        data = driver.perturb_data(state_small.background, g, 1e-3)
        dmap = shear_map(2e-3, g.L, dim=2, cross_extents=g.cross_extents)
        pair, report = solve_perturbed(dmap, driver.IterationConfig(), data, state_small)
        assert report.converged
        pushforward_residual(dmap, state_small, pair, data)

    @pytest.mark.parametrize("state", ["state_small", "state_3d_small"])
    def test_pushforward_evaluates_each_jacobian_once(self, state, request, monkeypatch):
        # one edge Jacobian per axis serves the mass and the field flux, and
        # one nodal Jacobian serves the source: d + 1 evaluations
        state = request.getfixturevalue(state)
        g = state.grid
        calls = []

        def counted(dmap, coords):
            calls.append(len(coords))
            return jacobian_JT_at(dmap, coords)

        data = driver.perturb_data(state.background, g, 1e-3)
        dmap = shear_map(2e-3, g.L, dim=g.dim, cross_extents=g.cross_extents)
        pair, _ = solve_perturbed(dmap, driver.IterationConfig(), data, state)
        monkeypatch.setattr(domainmap, "jacobian_JT_at", counted)
        pushforward_residual(dmap, state, pair, data)
        assert len(calls) == g.dim + 1
        assert calls[-1] == g.n_nodes
