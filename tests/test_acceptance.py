"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test runs one entry of `ep_nozzle.checks.CHECKS`, the list that
`ep-nozzle verify` runs, and builds its own small state. Run with
``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import math
import time

from ep_nozzle import checks

# the most seconds a criterion may take, where it states a bound
ELAPSED_MAX = {
    "manufactured-solution convergence": 120.0,
    "nonlinear fixed point": 300.0,
    "sigma-linear stability": 1200.0,
    "uniqueness probe": 600.0,
    "domain-perturbation degeneracy and smallness": 900.0,
}


def _check(num, name):
    t0 = time.perf_counter()
    passed, detail = checks.CHECKS[name]()
    elapsed = time.perf_counter() - t0
    assert passed, detail
    assert elapsed < ELAPSED_MAX.get(name, math.inf), (elapsed, detail)
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({detail})")


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
    _check(7, "manufactured-solution convergence")


def test_07_manufactured_convergence_3d():
    _check(7, "manufactured-solution convergence, 3D")


def test_08_nonlinear_fixed_point():
    _check(8, "nonlinear fixed point")


def test_08_nonlinear_fixed_point_3d():
    _check(8, "nonlinear fixed point, 3D 17x17x33")


def test_09_sigma_linear_stability():
    _check(9, "sigma-linear stability")


def test_09_sigma_linear_stability_3d():
    _check(9, "sigma-linear stability, 3D 17x17x33")


def test_10_uniqueness_probe():
    _check(10, "uniqueness probe")


def test_10_uniqueness_probe_3d():
    _check(10, "uniqueness probe, 3D 17x17x33")


def test_11_domain_perturbation():
    _check(11, "domain-perturbation degeneracy and smallness")


def test_11_domain_perturbation_3d():
    _check(11, "domain-perturbation smallness, 3D 17x17x33")


def test_12_exit_pressure_faithfulness():
    _check(12, "exit-pressure faithfulness")


def test_12_exit_pressure_faithfulness_3d():
    _check(12, "exit-pressure faithfulness, 3D 17x17x33")
