import numpy as np
import pytest

from ep_nozzle import driver
from ep_nozzle.domainmap import (
    Corrections,
    DomainMap,
    correction_terms,
    identity_map,
    jacobian_JT,
    pullback_operators,
    pushforward_residual,
    shear_map,
    solve_perturbed,
)
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


class TestJacobian:
    def test_identity(self, state_small):
        g = state_small.grid
        JT, detJT = jacobian_JT(identity_map(2), g)
        assert np.array_equal(JT, np.broadcast_to(np.eye(2), JT.shape))
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
        assert np.max(np.abs(JT[:, 0, 0] - 1.0 / a)) < 1e-13
        assert np.max(np.abs(JT[:, 0, 1])) < 1e-13
        assert np.max(np.abs(JT[:, 1, 0] + b / a)) < 1e-13
        assert np.max(np.abs(JT[:, 1, 1] - 1.0)) < 1e-13
        assert np.max(np.abs(detJT - 1.0 / a)) < 1e-13

    def test_numeric_differentiation_agrees(self, state_small):
        g = state_small.grid
        eps = 2e-3
        dmap = shear_map(eps, g.L, dim=2, cross_extents=g.cross_extents)
        numeric = DomainMap(gfun=dmap.gfun, sigmaG=dmap.sigmaG)
        JT_a, det_a = jacobian_JT(dmap, g)
        JT_n, det_n = jacobian_JT(numeric, g, fd_step=1e-6)
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


class TestPullback:
    def test_identity_reduces_to_flat_maps(self):
        rng = np.random.default_rng(0)
        n = 40
        z = rng.uniform(0.0, 1.0, size=n)
        q1 = rng.uniform(-0.4, 0.4, size=(n, 2))
        q2 = rng.uniform(-0.4, 0.4, size=(n, 2))
        eye = np.broadcast_to(np.eye(2), (n, 2, 2))
        A1, A2 = pullback_operators(LAW, z, q1, q2, eye)
        rho = LAW.density(z, np.einsum("ni,ni->n", q1, q1))
        assert np.array_equal(A1, rho[:, None] * q1)
        assert np.array_equal(A2, q2)

    def test_diagonal_matrix_hand_value(self):
        eps = 0.1
        M = np.diag([1.0 + eps, 1.0])[None]
        q2 = np.array([[0.3, -0.2]])
        _, A2 = pullback_operators(LAW, np.array([0.5]), np.zeros((1, 2)), q2, M)
        det = 1.0 + eps
        expect = np.array([[(1 + eps) ** 2 * 0.3 / det, -0.2 / det]])
        assert A2 == pytest.approx(expect, rel=1e-14)

    def test_divergence_free_pullback_of_uniform_flow(self, state_small):
        # a uniform flow pulled back through the shear stays divergence-free
        # in the weak sense: flux differences telescope to the boundary
        g = state_small.grid
        eps = 2e-3
        dmap = shear_map(eps, g.L, dim=2, cross_extents=g.cross_extents)

        def mass_flux(coords_mid, z_e, q_e):
            from ep_nozzle.domainmap import jacobian_JT_at

            JT_e, _ = jacobian_JT_at(dmap, coords_mid)
            A1, _ = pullback_operators(LAW, z_e, q_e, q_e, JT_e)
            return A1

        # potential of the 1D background satisfies the flat equations exactly;
        # its pullback residual is at discretization order
        c = state_small.coeffs
        div = driver.edge_divergence(g, c.phi0, mass_flux, z=c.Phi0)
        interior = g.tags == 0
        assert np.max(np.abs(div[interior])) < 5e-3  # O(eps) sources, small grid


class TestCorrections:
    def test_identity_gives_exact_zeros(self, state_small):
        g = state_small.grid
        N = g.n_nodes
        JT, detJT = jacobian_JT(identity_map(2), g)
        data = driver.perturb_data(state_small.background, g, 0.0)
        corr = correction_terms(
            LAW, state_small, JT, detJT, driver.FieldPair(np.zeros(N), np.zeros(N)), data.b
        )
        assert np.all(corr.H1 == 0.0)
        assert np.all(corr.H2 == 0.0)
        assert np.all(corr.src2 == 0.0)
        assert np.all(corr.g3 == 0.0)

    def test_end_cap_rigidity(self, state_small):
        g = state_small.grid
        N = g.n_nodes
        dmap = shear_map(5e-3, g.L, dim=2, cross_extents=g.cross_extents)
        JT, detJT = jacobian_JT(dmap, g)
        caps = g.gamma0 | g.gammaL
        assert np.max(np.abs(JT[caps] - np.eye(2))) < 1e-14
        data = driver.perturb_data(state_small.background, g, 0.0)
        corr = correction_terms(
            LAW, state_small, JT, detJT, driver.FieldPair(np.zeros(N), np.zeros(N)), data.b
        )
        assert np.max(np.abs(corr.H1[caps])) < 1e-14
        assert np.max(np.abs(corr.H2[caps])) < 1e-14
        assert np.max(np.abs(corr.g3)) < 1e-14

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


class TestSolvePerturbed:
    def test_identity_map_identical_to_flat(self, state_small):
        cfg = driver.IterationConfig()
        data = driver.perturb_data(state_small.background, state_small.grid, 1e-3)
        pair_flat, rep_flat = driver.run_fixed_point(cfg, data, state_small)
        pair_id, rep_id = solve_perturbed(identity_map(2), cfg, data, state_small)
        assert np.array_equal(pair_flat.psi, pair_id.psi)
        assert np.array_equal(pair_flat.Psi, pair_id.Psi)
        assert rep_flat.iterations == rep_id.iterations

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
        cfg = driver.IterationConfig()
        eps = 4e-3
        resids = []
        for state in (state_small, state_medium):
            g = state.grid
            data0 = driver.perturb_data(state.background, g, 0.0)
            dmap = shear_map(eps, g.L, dim=2, cross_extents=g.cross_extents)
            pair, _ = solve_perturbed(dmap, cfg, data0, state)
            resids.append(pushforward_residual(dmap, state, pair, data0)[0])
        order = np.log2(resids[0] / resids[1])
        assert order > 1.4
