import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ep_nozzle.coeffs import derivatives, remainder_fields
from ep_nozzle.driver import FieldPair, PicardState, perturb_data
from ep_nozzle.elliptic import make_coeffs
from ep_nozzle.errors import AdmissibilityError, DomainError, NotSubsonicError, VacuumError
from ep_nozzle.gas import GasLaw
from ep_nozzle.grid import build_grid
from ep_nozzle.ode1d import OneDParams, integrate_ivp

LAW = GasLaw(gamma=2.0, k0=1.0)
# constant background: rho = 1, axial speed 0.5
PHI0 = 0.125
Q0 = np.array([0.0, 0.5])
EQUILIBRIUM = OneDParams(J0=0.5, rho0=1.0, E0=0.0, L=1.0, b=1.0)


def charge_B(law, z, q):
    """Oracle charge map B(z, q) = rho(z, |q|^2)."""
    q = np.asarray(q, dtype=float)
    return law.density(z, np.einsum("...i,...i->...", q, q))


def flux_A(law, z, q):
    """Oracle momentum flux A(z, q) = rho(z, |q|^2) q."""
    q = np.asarray(q, dtype=float)
    return np.asarray(charge_B(law, z, q))[..., None] * q


def remainders(law, Phi0, q0, Psi, Dpsi):
    """remainder_fields about one background point, one row per perturbation."""
    Dpsi = np.atleast_2d(np.asarray(Dpsi, dtype=float))
    Psi = np.broadcast_to(np.asarray(Psi, dtype=float), Dpsi.shape[:1])
    Phi0 = np.full(Psi.shape, float(Phi0))
    q0 = np.broadcast_to(np.asarray(q0, dtype=float), Dpsi.shape)
    rho0 = law.density(Phi0, np.einsum("ni,ni->n", q0, q0))
    return remainder_fields(law, Phi0, q0, rho0, rho0[:, None] * q0,
                            derivatives(law, Phi0, q0), Psi, Dpsi)


def midpoint_remainder_F(law, Phi0, q0, z, q, n=64):
    # direct quadrature of the t-integral form of the flux remainder
    q = np.asarray(q, dtype=float)
    total = np.zeros_like(q0)
    for t in (np.arange(n) + 0.5) / n:
        dz = derivatives(law, Phi0 + t * z, q0 + q)
        dz0 = derivatives(law, Phi0, q0)
        dq = derivatives(law, Phi0, q0 + t * q)
        total += z * (dz.dA_dz - dz0.dA_dz) + (dq.dA_dq - dz0.dA_dq) @ q
    return -total / n


def midpoint_remainder_f(law, Phi0, q0, z, q, n=64):
    q = np.asarray(q, dtype=float)
    total = 0.0
    for t in (np.arange(n) + 0.5) / n:
        dz = derivatives(law, Phi0 + t * z, q0 + q)
        dz0 = derivatives(law, Phi0, q0)
        dq = derivatives(law, Phi0, q0 + t * q)
        total += z * (dz.dB_dz - dz0.dB_dz) + (dq.dB_dq - dz0.dB_dq) @ q
    return total / n


def _constant_background(law=LAW):
    return integrate_ivp(law, EQUILIBRIUM, 1024)


@pytest.fixture(scope="module")
def state_const():
    return PicardState(LAW, _constant_background(), build_grid(dim=2, shape=(9, 17)))


def _exit_data(state, Psi_ex, pex):
    """Unperturbed data with a uniform exit potential difference and pressure."""
    data = perturb_data(state.background, state.grid, 0.0)
    nc = state.grid.cross_shape()
    return dataclasses.replace(data, Psi_ex=np.full(nc, Psi_ex), pex=np.full(nc, pex))


def _exit_datum(state, q, Psi_ex, pex):
    Dpsi = np.tile(np.asarray(q, dtype=float), (state.grid.n_nodes, 1))
    return state.exit_datum(Dpsi, _exit_data(state, Psi_ex, pex))


class TestFluxMaps:
    def test_closed_form_point(self):
        # p = rho^2 makes B affine in z: a pure potential perturbation that
        # doubles the density leaves both remainders zero
        F, f, rho = remainders(LAW, PHI0, Q0, 2.0, np.zeros(2))
        assert rho == pytest.approx([2.0], rel=1e-14)
        assert np.all(np.abs(F) < 1e-14)
        assert np.all(np.abs(f) < 1e-14)

    def test_rest_state(self):
        F, f, rho = remainders(LAW, 0.0, np.zeros(2), 0.0, np.zeros(2))
        assert rho == pytest.approx([1.0])
        assert np.all(F == 0.0) and np.all(f == 0.0)

    def test_flux_parallel_to_gradient(self):
        # the perturbed flux rebuilt from the remainder is rho q
        rng = np.random.default_rng(7)
        Psi = rng.uniform(-0.1, 0.1, size=100)
        Dpsi = rng.uniform(-0.1, 0.1, size=(100, 2))
        F, f, rho = remainders(LAW, PHI0, Q0, Psi, Dpsi)
        base = derivatives(LAW, PHI0, Q0)
        A = flux_A(LAW, PHI0, Q0) + Psi[:, None] * base.dA_dz + Dpsi @ base.dA_dq.T - F
        q = Dpsi + Q0
        assert np.max(np.abs(A[:, 0] * q[:, 1] - A[:, 1] * q[:, 0])) < 1e-14
        assert np.max(np.abs(A - rho[:, None] * q)) < 1e-14

    def test_vacuum(self):
        with pytest.raises(VacuumError):
            remainders(LAW, PHI0, Q0, -3.0, np.zeros(2))


class TestDerivatives:
    def test_hand_values(self):
        d = derivatives(LAW, 0.125, np.array([0.0, 0.5]))
        assert d.dB_dz == pytest.approx(0.5, rel=1e-14)
        assert d.dB_dq == pytest.approx([0.0, -0.25], rel=1e-14)
        assert d.dA_dz == pytest.approx([0.0, 0.25], rel=1e-14)
        assert np.allclose(d.dA_dq, [[1.0, 0.0], [0.0, 0.875]], rtol=1e-14)

    def test_rest_state_structure(self):
        d = derivatives(LAW, 0.5, np.zeros(2))
        B = charge_B(LAW, 0.5, np.zeros(2))
        assert d.dA_dq == pytest.approx(B * np.eye(2), rel=1e-14)
        assert np.all(d.dB_dq == 0.0)

    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
    def test_against_central_differences(self, gamma):
        law = GasLaw(gamma=gamma, k0=1.0)
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(20):
            z = rng.uniform(0.2, 1.5)
            q = rng.uniform(-0.4, 0.4, size=2)
            d = derivatives(law, z, q)
            fd_Az = (flux_A(law, z + h, q) - flux_A(law, z - h, q)) / (2 * h)
            fd_Bz = (charge_B(law, z + h, q) - charge_B(law, z - h, q)) / (2 * h)
            assert d.dA_dz == pytest.approx(fd_Az, rel=1e-6, abs=1e-9)
            assert d.dB_dz == pytest.approx(fd_Bz, rel=1e-6)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd_Aq = (flux_A(law, z, q + e) - flux_A(law, z, q - e)) / (2 * h)
                fd_Bq = (charge_B(law, z, q + e) - charge_B(law, z, q - e)) / (2 * h)
                assert d.dA_dq[:, j] == pytest.approx(fd_Aq, rel=1e-6, abs=1e-9)
                assert d.dB_dq[j] == pytest.approx(fd_Bq, rel=1e-6, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(
    gamma=st.sampled_from([1.0, 1.4, 2.0]),
    z=st.floats(min_value=0.0, max_value=2.0),
    q1=st.floats(min_value=-0.5, max_value=0.5),
    q2=st.floats(min_value=-0.5, max_value=0.5),
)
def test_structural_identity_property(gamma, z, q1, q2):
    law = GasLaw(gamma=gamma, k0=1.0)
    d = derivatives(law, z, np.array([q1, q2]))
    assert np.max(np.abs(d.dA_dz + d.dB_dq)) < 1e-13


def test_structural_identity_bulk():
    rng = np.random.default_rng(42)
    for gamma in (1.0, 1.4, 2.0):
        law = GasLaw(gamma=gamma, k0=1.0)
        z = rng.uniform(0.0, 2.0, size=10_000)
        q = rng.uniform(-0.5, 0.5, size=(10_000, 2))
        d = derivatives(law, z, q)
        assert np.max(np.abs(d.dA_dz + d.dB_dq)) < 1e-13


class TestAij:
    def test_constant_background(self):
        g = build_grid(dim=3, cross_extents=((0, 1), (0, 1)), shape=(8, 8, 9))
        c = make_coeffs(LAW, _constant_background(), g)
        for a, value in enumerate((1.0, 1.0, 0.875)):
            assert c.aii[:, a] == pytest.approx(np.full(g.shape[-1], value), rel=1e-14)
        assert c.lam == pytest.approx(0.875)

    def test_rest_background_isotropic(self):
        g = build_grid(dim=2, shape=(9, 17))
        bg = _constant_background()
        c = make_coeffs(LAW, dataclasses.replace(bg, u=0.0 * bg.u), g)
        for a in range(2):
            assert c.aii[:, a] == pytest.approx(c.rho_bg, rel=1e-14)

    def test_sonic_degeneracy(self):
        # with p = rho^2: speed_sq 2.5 at density 0.875 beats p' = 1.75
        g = build_grid(dim=2, shape=(9, 17))
        bg = _constant_background()
        beyond = dataclasses.replace(
            bg, rho=np.full_like(bg.rho, 0.875), u=np.full_like(bg.u, np.sqrt(2.5))
        )
        with pytest.raises(NotSubsonicError):
            make_coeffs(LAW, beyond, g)


class TestRemainders:
    def test_zero_at_origin(self):
        F, f, _ = remainders(LAW, PHI0, Q0, 0.0, np.zeros(2))
        assert np.all(F == 0.0)
        assert np.all(f == 0.0)

    def test_quadrature_cross_check(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(-0.02, 0.02, size=100)
        q = rng.uniform(-0.02, 0.02, size=(100, 2))
        F, f, _ = remainders(LAW, PHI0, Q0, z, q)
        for i in range(100):
            assert F[i] == pytest.approx(midpoint_remainder_F(LAW, PHI0, Q0, z[i], q[i]), abs=1e-8)
            assert f[i] == pytest.approx(midpoint_remainder_f(LAW, PHI0, Q0, z[i], q[i]), abs=1e-8)

    def test_quadrature_cross_check_spec_point(self):
        z, q = 0.01, np.array([0.0, 0.01])
        F, f, _ = remainders(LAW, PHI0, Q0, z, q)
        assert F[0] == pytest.approx(midpoint_remainder_F(LAW, PHI0, Q0, z, q), abs=1e-8)
        assert f[0] == pytest.approx(midpoint_remainder_f(LAW, PHI0, Q0, z, q), abs=1e-8)

    def test_quadratic_scaling(self):
        z0, q0 = 0.05, np.array([0.03, -0.04])
        ts = 2.0 ** -np.arange(0, 6)
        F, f, _ = remainders(LAW, PHI0, Q0, ts * z0, ts[:, None] * q0)
        slopeF = np.polyfit(np.log(ts), np.log(np.linalg.norm(F, axis=1)), 1)[0]
        slopef = np.polyfit(np.log(ts), np.log(np.abs(f)), 1)[0]
        assert slopeF >= 1.9
        assert slopef >= 1.9

    def test_tangential_perturbation_second_order(self):
        # charge map sees tangential gradient components only at second order
        eps = 1e-5
        _, f, _ = remainders(LAW, PHI0, Q0, 0.0, np.array([eps, 0.0]))
        lin_scale = charge_B(LAW, PHI0, Q0) * eps
        assert abs(f[0]) < 1e-3 * lin_scale

    def test_admissibility_ball(self, state_const):
        # the step refuses iterates outside the ball where remainders are defined
        N = state_const.grid.n_nodes
        data = perturb_data(state_const.background, state_const.grid, 0.0)
        Psi = np.full(N, 3.0 * state_const.coeffs.delta1)
        with pytest.raises(AdmissibilityError, match="remainder-definition ball"):
            state_const.step(FieldPair(np.zeros(N), Psi), data)

    def test_vectorized_matches_pointwise(self):
        rng = np.random.default_rng(5)
        n = 50
        Psi = rng.uniform(-0.02, 0.02, size=n)
        Dpsi = rng.uniform(-0.02, 0.02, size=(n, 2))
        F, f, _ = remainders(LAW, PHI0, Q0, Psi, Dpsi)
        for i in range(0, n, 7):
            F_i, f_i, _ = remainders(LAW, PHI0, Q0, Psi[i], Dpsi[i])
            assert F[i] == pytest.approx(F_i[0], abs=1e-14)
            assert f[i] == pytest.approx(f_i[0], abs=1e-14)


class TestExitDatum:
    def test_unperturbed_exit(self, state_const):
        data = perturb_data(state_const.background, state_const.grid, 0.0)
        g = state_const.exit_datum(np.zeros((state_const.grid.n_nodes, 2)), data)
        assert np.all(np.abs(g) <= 1e-15)

    def test_chord_slope_quadratic_pressure(self, state_const):
        # for p = rho^2 the chord slope between densities 1 and 2 is 3; choose
        # Psi_ex so the perturbed density is 2: h(2) = 2 = Phi0 + Psi - |q0|^2/2
        Psi_ex = 2.0 + 0.125 - PHI0
        pex0 = float(LAW.pressure(1.0))
        g0 = _exit_datum(state_const, np.zeros(2), Psi_ex, pex0)
        g1 = _exit_datum(state_const, np.zeros(2), Psi_ex, pex0 + 6.0)
        assert g0 == pytest.approx(np.full(g0.shape, -1.0), rel=1e-13)  # -(rho_t - 1)
        assert 6.0 / (g1 - g0) == pytest.approx(np.full(g0.shape, 3.0), rel=1e-13)

    def test_chord_equals_quadrature_generic_gamma(self):
        law = GasLaw(gamma=1.4, k0=1.0)
        state = PicardState(law, _constant_background(law), build_grid(dim=2, shape=(9, 17)))
        q = np.array([0.01, -0.02])
        Psi_ex = 0.05
        pex0 = float(law.pressure(1.0))
        g0 = _exit_datum(state, q, Psi_ex, pex0)
        g1 = _exit_datum(state, q, Psi_ex, pex0 + 1e-2)
        chord = 1e-2 / (g1 - g0)
        rho_t = law.density(PHI0 + Psi_ex, float((Q0 + q) @ (Q0 + q)))
        ts = (np.arange(256) + 0.5) / 256
        oracle = np.mean(law.dpressure(ts * rho_t + (1 - ts) * 1.0))
        assert chord == pytest.approx(np.full(chord.shape, oracle), rel=1e-6)

    def test_consistent_triple_residual(self, state_const):
        # build (q, Psi_ex, pex) from an actual perturbed state; the datum must
        # reproduce the linear trace exactly
        rng = np.random.default_rng(9)
        base = derivatives(LAW, PHI0, Q0)
        for _ in range(20):
            q = rng.uniform(-0.05, 0.05, size=2)
            Psi_ex = rng.uniform(-0.05, 0.05)
            rho_t = charge_B(LAW, PHI0 + Psi_ex, Q0 + q)
            g = _exit_datum(state_const, q, Psi_ex, float(LAW.pressure(rho_t)))
            assert np.max(np.abs(base.dB_dq @ q - g)) < 1e-10

    def test_admissibility(self, state_const):
        # an axial slope inside the remainder ball but beyond the exit radius
        c = state_const.coeffs
        slope = 0.5 * (2.0 * c.delta2 + 3.0 * c.delta1)
        assert 2.0 * c.delta2 <= slope < 3.0 * c.delta1
        g = state_const.grid
        data = perturb_data(state_const.background, g, 0.0)
        pair = FieldPair(slope * g.coords[:, -1], np.zeros(g.n_nodes))
        with pytest.raises(AdmissibilityError, match="exit gradient"):
            state_const.step(pair, data)


class TestConormalScale:
    def test_hand_value(self):
        c = make_coeffs(LAW, _constant_background(), build_grid(dim=2, shape=(9, 17)))
        assert c.exit_scale == pytest.approx(np.full(9, 3.5), rel=1e-14)

    def test_mass_flux_guard(self):
        # the scale divides by the mass flux J0, which backgrounds keep positive
        with pytest.raises(DomainError):
            OneDParams(J0=0.0, rho0=1.0, E0=0.0, L=1.0, b=1.0)
