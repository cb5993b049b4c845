import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from ep_nozzle.errors import DomainError, VacuumError
from ep_nozzle.gas import GasLaw, bernoulli


def enthalpy_quadrature(law, rho):
    # independent oracle: adaptive quadrature of p'(x)/x from k0 to rho
    val, err = quad(lambda x: law.dpressure(x) / x, law.k0, rho, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-10
    return val


def inverse_bisection(law, s, lo=1e-9, hi=1e6):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if law.enthalpy(mid) < s:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPressure:
    def test_unit_density(self):
        assert GasLaw(gamma=2.0).pressure(1.0) == 1.0

    def test_direct_power(self):
        assert GasLaw(gamma=2.0).pressure(2.0) == 4.0

    def test_derivative_against_finite_differences(self):
        law = GasLaw(gamma=1.4)
        rho, h = 1.3, 1e-6
        fd = (law.pressure(rho + h) - law.pressure(rho - h)) / (2 * h)
        assert law.dpressure(rho) == pytest.approx(fd, rel=1e-8)
        assert law.pressure(rho) == pytest.approx(1.3 ** 1.4, rel=1e-15)

    def test_nonpositive_density_rejected(self):
        with pytest.raises(DomainError):
            GasLaw().pressure(0.0)
        with pytest.raises(DomainError):
            GasLaw().dpressure(-1.0)

    def test_convexity_on_sampled_grid(self):
        for gamma in (1.0, 1.4, 2.0):
            law = GasLaw(gamma=gamma)
            rho = np.linspace(0.05, 5.0, 200)
            assert np.all(law.dpressure(rho) > 0)
            assert np.all(law.d2pressure(rho) >= 0)


class TestEnthalpy:
    def test_reference_value_is_zero(self):
        assert GasLaw(gamma=2.0, k0=1.0).enthalpy(1.0) == 0.0

    def test_against_quadrature(self):
        law = GasLaw(gamma=2.0, k0=1.0)
        assert law.enthalpy(2.0) == pytest.approx(enthalpy_quadrature(law, 2.0), abs=1e-12)
        assert law.enthalpy(2.0) == pytest.approx(2.0, abs=1e-14)

    def test_isothermal_branch_against_quadrature(self):
        law = GasLaw(gamma=1.0, k0=1.0)
        assert law.enthalpy(np.e) == pytest.approx(1.0, abs=1e-12)
        assert law.enthalpy(np.e) == pytest.approx(enthalpy_quadrature(law, np.e), abs=1e-12)

    def test_gamma_snap_to_isothermal(self):
        law = GasLaw(gamma=1.0 + 1e-12)
        assert law.gamma == 1.0


class TestEnthalpyInverse:
    def test_inverse_at_reference(self):
        assert GasLaw(gamma=2.0, k0=1.0).enthalpy_inverse(0.0) == 1.0

    def test_closed_form_against_bisection(self):
        law = GasLaw(gamma=2.0, k0=1.0)
        assert law.enthalpy_inverse(2.0) == pytest.approx(2.0, rel=1e-14)
        assert law.enthalpy_inverse(2.0) == pytest.approx(inverse_bisection(law, 2.0), rel=1e-10)

    def test_roundtrip_gamma_14(self):
        law = GasLaw(gamma=1.4, k0=1.0)
        rho = law.enthalpy_inverse(0.7)
        assert abs(law.enthalpy(rho) - 0.7) < 1e-12
        assert rho == pytest.approx(inverse_bisection(law, 0.7), rel=1e-10)

    def test_vacuum_error(self):
        law = GasLaw(gamma=2.0, k0=1.0)
        with pytest.raises(VacuumError):
            law.enthalpy_inverse(law.vacuum_threshold() - 1e-6)


class TestDensityFromState:
    def test_closed_form_state(self):
        law = GasLaw(2.0, 1.0)
        rho = law.density(3.0, 2.0)
        assert rho == pytest.approx(2.0, rel=1e-14)
        assert 2.0 < law.dpressure(rho)  # subsonic: 2 < p'(2) = 4

    def test_reference_state(self):
        assert GasLaw(2.0, 1.0).density(0.0, 0.0) == 1.0

    def test_vacuum(self):
        with pytest.raises(VacuumError):
            GasLaw(2.0, 1.0).density(-3.0, 0.0)

    def test_negative_speed_rejected(self):
        with pytest.raises(DomainError):
            GasLaw(2.0, 1.0).density(1.0, -0.1)


def copying_density(law, phi, speed_sq):
    """The copying closure: the argument phi - speed_sq / 2 formed in new
    arrays and inverted by the formulas, each step a new array."""
    s = np.asarray(phi, float) - 0.5 * np.asarray(speed_sq, dtype=float)
    s = np.asarray(s, dtype=float)
    if law.gamma == 1.0:
        return law.k0 * np.exp(s)
    g = law.gamma
    return (law.k0 ** (g - 1.0) + (g - 1.0) / g * s) ** (1.0 / (g - 1.0))


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestDensityInPlace:
    # the closure is formed in one buffer, in place; it gives the copying
    # closure's bits and leaves its inputs as they were

    # a 0-d argument takes the scalar power, which differs from the array
    # power in the last bit at some values: the scalar cases run many values
    PHI = np.linspace(0.2, 1.5, 97)
    CASES = {
        "arrays": [(PHI, np.linspace(0.0, 0.6, PHI.size))],
        "broadcast profile": [(np.linspace(0.3, 1.2, 33), np.full((5, 33), 0.25))],
        "0-d arrays": [(np.array(p), np.array(0.3)) for p in PHI],
        "python floats": [(float(p), 0.3) for p in PHI],
        "mixed": [(0.7, np.linspace(0.0, 0.5, 9))],
    }

    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bits_of_the_copying_closure(self, gamma, case):
        law = GasLaw(gamma=gamma, k0=1.3)
        for phi, speed in self.CASES[case]:
            phi_before, speed_before = np.copy(phi), np.copy(speed)
            got = law.density(phi, speed)
            want = copying_density(law, phi, speed)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(bits(got), bits(want))
            assert np.array_equal(bits(phi), bits(phi_before))
            assert np.array_equal(bits(speed), bits(speed_before))

    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
    def test_enthalpy_inverse_copies(self, gamma):
        law = GasLaw(gamma=gamma)
        s = np.linspace(-0.2, 0.9, 101)
        before = s.copy()
        rho = law.enthalpy_inverse(s)
        assert rho is not s and np.array_equal(s, before)
        assert np.array_equal(bits(rho), bits(copying_density(law, s, 0.0)))

    def test_vacuum_message(self):
        law = GasLaw(2.0, 1.0)
        phi = np.array([0.5, -3.0, 0.5])
        before = phi.copy()
        with pytest.raises(VacuumError, match="^enthalpy argument at or below the "
                                              "density-floor threshold$"):
            law.density(phi, np.zeros(3))
        with pytest.raises(VacuumError, match="density-floor threshold"):
            law.density(np.array([0.5, np.nan]), np.zeros(2))
        assert np.array_equal(phi, before)

    def test_negative_speed_message(self):
        with pytest.raises(DomainError, match="^speed_sq must be nonnegative$"):
            GasLaw(2.0, 1.0).density(np.ones(3), np.array([0.1, -0.1, 0.0]))


class TestBernoulli:
    def test_vanishes_at_rest_reference(self):
        assert bernoulli(GasLaw(2.0, 1.0), 0.0, 1.0) == 0.0

    def test_closed_form(self):
        assert bernoulli(GasLaw(2.0, 1.0), 0.25, 1.0) == pytest.approx(0.125, abs=1e-15)

    def test_equals_potential_for_derived_state(self):
        law = GasLaw(2.0, 1.0)
        assert bernoulli(law, 2.0, law.density(3.0, 2.0)) == pytest.approx(3.0, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    gamma=st.sampled_from([1.0, 1.4, 2.0]),
    s=st.floats(min_value=-1.0, max_value=5.0),
)
def test_roundtrip_property(gamma, s):
    law = GasLaw(gamma=gamma, k0=1.0)
    assert abs(law.enthalpy(law.enthalpy_inverse(s)) - s) < 1e-12


def test_roundtrip_bulk():
    rng = np.random.default_rng(42)
    for gamma in (1.0, 1.4, 2.0):
        law = GasLaw(gamma=gamma, k0=1.0)
        s = rng.uniform(-1.0, 5.0, size=10_000)
        assert np.max(np.abs(law.enthalpy(law.enthalpy_inverse(s)) - s)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(gamma=st.floats(min_value=1.0, max_value=3.0))
def test_monotonicity(gamma):
    law = GasLaw(gamma=gamma, k0=1.0)
    rho = np.linspace(0.05, 4.0, 300)
    assert np.all(np.diff(law.enthalpy(rho)) > 0)
    assert np.all(np.diff(law.pressure(rho)) > 0)


@settings(max_examples=200, deadline=None)
@given(
    Phi=st.floats(min_value=-0.5, max_value=4.0),
    speed_sq=st.floats(min_value=0.0, max_value=1.0),
)
def test_bernoulli_equals_potential(Phi, speed_sq):
    law = GasLaw(2.0, 1.0)
    assert abs(bernoulli(law, speed_sq, law.density(Phi, speed_sq)) - Phi) < 1e-10


def test_invalid_law_parameters():
    with pytest.raises(DomainError):
        GasLaw(gamma=0.9)
    with pytest.raises(DomainError):
        GasLaw(k0=0.0)
    with pytest.raises(DomainError):
        GasLaw(rho_floor=-1.0)
