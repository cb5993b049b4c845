import csv

import numpy as np
import pytest

from ep_nozzle.errors import (
    DomainError,
    NoBracketError,
    SonicBreakdown,
    VacuumBreakdown,
)
from ep_nozzle.gas import GasLaw
from ep_nozzle.ode1d import (
    OneDParams,
    _cumulative_simpson,
    _scalar_rhs,
    appendixA_admissible,
    build_background,
    integrate_ivp,
    shoot_bvp,
    sonic_density,
    write_atlas,
)

LAW = GasLaw(gamma=2.0, k0=1.0)
APPA = OneDParams(J0=0.5, rho0=1.2, E0=0.1, L=1.0, b=1.0)


class TestRhs:
    def test_uniform_equilibrium(self):
        assert _scalar_rhs(LAW, OneDParams(0.5, 1.0, 0.0, 1.0, 1.0))(0.0, 1.0, 0.0) == (0.0, 0.0)

    def test_hand_evaluation(self):
        drho, dE = _scalar_rhs(LAW, OneDParams(0.5, 1.0, 0.1, 1.0, 1.0))(0.0, 1.0, 0.1)
        assert drho == pytest.approx(0.1 / 1.75, rel=1e-14)
        assert dE == 0.0

    def test_sonic_guard(self):
        with pytest.raises(SonicBreakdown):
            _scalar_rhs(LAW, OneDParams(np.sqrt(2.0), 1.0, 0.0, 1.0, 1.0))(0.3, 1.0, 0.2)

    def test_sonic_density(self):
        rho_s = sonic_density(LAW, 0.5)
        assert rho_s ** 2 * LAW.dpressure(rho_s) == pytest.approx(0.25, rel=1e-13)


class TestIntegration:
    def test_equilibrium_preserved(self):
        sol = integrate_ivp(LAW, OneDParams(0.5, 1.0, 0.0, 1.0, 1.0), 1024)
        assert np.max(np.abs(sol.rho - 1.0)) < 1e-12
        assert np.max(np.abs(sol.E)) < 1e-12
        assert np.max(np.abs(sol.u - 0.5)) < 1e-12

    def test_monotone_orbit(self):
        sol = integrate_ivp(LAW, APPA, 1024)
        assert np.all(np.diff(sol.rho) > 0)
        assert np.all(np.diff(sol.E) > 0)

    def test_rk4_order(self):
        ref = integrate_ivp(LAW, APPA, 4096).rho[-1]
        errs = [abs(integrate_ivp(LAW, APPA, n).rho[-1] - ref) for n in (32, 64, 128)]
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.35)
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(3.7 <= p <= 4.3 for p in orders)

    def test_mass_flux_conservation(self):
        sol = integrate_ivp(LAW, APPA, 512)
        assert np.max(np.abs(sol.rho * sol.u - sol.J0)) < 1e-10

    def test_branch_confinement(self):
        sol = integrate_ivp(LAW, APPA, 512)
        assert np.all(sol.rho > sonic_density(LAW, sol.J0))

    def test_vacuum_breakdown_reports_location(self):
        # strongly negative field drains the density
        with pytest.raises((VacuumBreakdown, SonicBreakdown)) as exc:
            integrate_ivp(LAW, OneDParams(0.9, 1.05, -6.0, 4.0, 1.0), 2048)
        assert 0.0 < exc.value.x <= 4.0

    def test_min_steps(self):
        with pytest.raises(DomainError):
            integrate_ivp(LAW, APPA, 8)


class TestBoundaryData:
    def test_constant_solution_triple(self):
        sol = integrate_ivp(LAW, OneDParams(0.5, 1.0, 0.0, 1.0, 1.0), 256)
        phi_en0, B00, pex0 = sol.boundary_triple
        assert B00 == pytest.approx(0.125, abs=1e-13)
        assert pex0 == pytest.approx(1.0, abs=1e-13)
        assert phi_en0 == pytest.approx(0.0, abs=1e-13)

    def test_exit_speed_identity(self):
        sol = integrate_ivp(LAW, APPA, 512)
        _, B00, _ = sol.boundary_triple
        assert 0.5 * sol.u[-1] ** 2 == pytest.approx(
            B00 - LAW.enthalpy(sol.rho[-1]), abs=1e-10
        )

    def test_entrance_potential_sign_on_monotone_orbit(self):
        sol = integrate_ivp(LAW, APPA, 512)
        assert sol.rho[-1] > sol.params.rho0
        assert sol.phi_en0 < 0.0


class TestPotentials:
    def test_constant_solution_potentials(self):
        sol = integrate_ivp(LAW, OneDParams(0.5, 1.0, 0.0, 1.0, 1.0), 256)
        assert np.max(np.abs(sol.phi0 - 0.5 * sol.xs)) < 1e-13
        assert np.max(np.abs(sol.Phi0 - 0.125)) < 1e-13

    def test_end_difference_matches_entrance_datum(self):
        sol = integrate_ivp(LAW, APPA, 1024)
        assert sol.Phi0[0] - sol.Phi0[-1] == pytest.approx(sol.phi_en0, abs=1e-9)

    def test_consistency_with_density(self):
        sol = integrate_ivp(LAW, APPA, 1024)
        resid = LAW.enthalpy(sol.rho) - (sol.Phi0 - 0.5 * sol.u ** 2)
        assert np.max(np.abs(resid)) < 1e-8

    def test_consistency_refines_at_second_order(self):
        r = []
        for n in (64, 128, 256):
            sol = integrate_ivp(LAW, APPA, n)
            resid = LAW.enthalpy(sol.rho) - (sol.Phi0 - 0.5 * sol.u ** 2)
            r.append(np.max(np.abs(resid)))
        orders = [np.log2(r[i] / r[i + 1]) for i in range(2)]
        assert all(p >= 2.0 for p in orders)

    def test_build_background_standalone(self):
        sol = integrate_ivp(LAW, APPA, 256)
        phi0, Phi0, triple = build_background(LAW, sol.xs, sol.rho, sol.E, sol.J0)
        assert np.allclose(phi0, sol.phi0)
        assert np.allclose(Phi0, sol.Phi0)
        assert triple == pytest.approx(sol.boundary_triple)


@pytest.mark.parametrize("L", [0.7, 1.0, 2.3])
@pytest.mark.parametrize("n", [17, 64, 65, 320, 321, 1024, 1025, 4097])
def test_cumulative_simpson_matches_scipy(n, L):
    # bit for bit: the background potentials keep their rounding
    from scipy.integrate import cumulative_simpson

    xs = np.linspace(0.0, L, n)
    rng = np.random.default_rng(n)
    for y in (rng.standard_normal(n), np.exp(-xs) * np.cos(7.0 * xs), np.zeros(n)):
        assert np.array_equal(_cumulative_simpson(y, xs),
                              cumulative_simpson(y, x=xs, initial=0.0))


def test_background_potentials_match_scipy_simpson():
    from scipy.integrate import cumulative_simpson

    sol = integrate_ivp(LAW, APPA, 1088)
    assert np.array_equal(sol.phi0, cumulative_simpson(sol.u, x=sol.xs, initial=0.0))
    assert np.array_equal(sol.Phi0, (sol.B00 + sol.phi_en0)
                          + cumulative_simpson(sol.E, x=sol.xs, initial=0.0))


class TestShooting:
    def test_constant_solution_is_recovered(self):
        sol = shoot_bvp(LAW, 1.0, 1.0, rho_en=1.0, rho_ex=1.0, J0=0.5, n_steps=512)
        assert abs(sol.params.E0) < 1e-10
        assert abs(sol.rho[-1] - 1.0) < 1e-10

    def test_forward_inverse_roundtrip(self):
        fwd = integrate_ivp(LAW, APPA, 512)
        sol = shoot_bvp(LAW, 1.0, 1.0, rho_en=1.2, rho_ex=fwd.rho[-1], J0=0.5, n_steps=512)
        assert sol.params.E0 == pytest.approx(0.1, abs=1e-8)

    def test_two_brackets_agree(self):
        fwd = integrate_ivp(LAW, APPA, 512)
        target = fwd.rho[-1]
        s1 = shoot_bvp(LAW, 1.0, 1.0, 1.2, target, 0.5, n_steps=512, bracket=(-5.0, 5.0))
        s2 = shoot_bvp(LAW, 1.0, 1.0, 1.2, target, 0.5, n_steps=512, bracket=(-2.0, 3.0), n_probe=37)
        assert s1.params.E0 == pytest.approx(s2.params.E0, abs=1e-8)
        assert np.max(np.abs(s1.rho - s2.rho)) < 1e-8

    def test_subsonic_branch_guard(self):
        with pytest.raises(NoBracketError):
            shoot_bvp(LAW, 1.0, 1.0, 1.2, 0.9 * sonic_density(LAW, 0.5), 0.5, n_steps=256)


class TestAdmissibility:
    def test_monotone_margins(self):
        ok, margins = appendixA_admissible(LAW, 1.0, 1.2, 0.1, 0.5, 1.0)
        assert ok
        assert all(v >= 0 for v in margins.values())
        sol = integrate_ivp(LAW, APPA, 512)
        assert np.all(np.diff(sol.rho) >= 0)
        assert np.all(np.diff(sol.E) >= 0)

    def test_density_below_charge_rejected(self):
        ok, margins = appendixA_admissible(LAW, 1.0, 0.9, 0.1, 0.5, 1.0)
        assert not ok
        assert margins["density_margin"] < 0

    def test_variable_charge_profile(self):
        b = lambda x: 1.0 + 0.1 * np.sin(np.pi * x)
        ok, _ = appendixA_admissible(LAW, b, 1.3, 0.1, 0.5, 1.0, eps0=0.05)
        assert ok
        sol = integrate_ivp(LAW, OneDParams(0.5, 1.3, 0.1, 1.0, b), 512)
        assert sol.nu0 > 0


def test_atlas_export(tmp_path):
    path = tmp_path / "atlas.csv"
    cases = [(0.5, 1.2, 0.1), (0.5, 1.0, 0.0), (0.9, 1.05, -6.0)]
    write_atlas(path, LAW, 4.0, 1.0, cases, n_steps=512)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert rows[0]["status"] == "ok"
    assert float(rows[0]["nu0"]) > 0
    assert rows[2]["status"].startswith(("sonic@", "vacuum@"))


def test_atlas_overflow_row(tmp_path):
    # rho0 ** (gamma + 1) overflows a float on the first stage: a row, not an abort
    path = tmp_path / "atlas.csv"
    write_atlas(path, LAW, 4.0, 1.0, [(0.5, 1e300, 0.0), (0.5, 1.2, 0.1)], n_steps=512)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["overflow@x=0", "ok"]
    assert rows[0]["nu0"] == "nan"


def test_atlas_bytes(tmp_path):
    # one ok row and one sonic row; "\n" line ends and 17-digit values
    path = tmp_path / "atlas.csv"
    write_atlas(path, LAW, 4.0, 1.0, [(0.5, 1.0, 0.0), (1.0, 0.9, -1.0)], n_steps=512)
    sol = integrate_ivp(LAW, OneDParams(0.5, 1.0, 0.0, 4.0, 1.0), 512)
    with pytest.raises(SonicBreakdown) as sonic:
        integrate_ivp(LAW, OneDParams(1.0, 0.9, -1.0, 4.0, 1.0), 512)
    ok = ",".join(format(v, ".17g") for v in (sol.phi_en0, sol.B00, sol.pex0, sol.nu0))
    expected = (
        "J0,rho0,E0,Phi_en0,B00,pex0,nu0,status\n"
        f"0.5,1,0,{ok},ok\n"
        f"1,0.90000000000000002,-1,nan,nan,nan,nan,sonic@x={sonic.value.x:.6g}\n"
    )
    assert path.read_bytes() == expected.encode()
