"""Memory budget of a Picard step and of the strong residual.

The rise of `PicardState.step`, of `nonlinear_residual` and of
`GasLaw.density` over their entry, in bytes per grid node, is measured under
tracemalloc by the `PhaseMeter` of `scripts/phase_memory.py` on one small 2D
and one small 3D solve. The bounds are the measured figures plus about 10%,
so a whole-grid temporary that comes back into any of them fails here.
"""

import importlib.util
import pathlib
import sys
import tracemalloc

import pytest

from ep_nozzle import driver
from ep_nozzle.gas import GasLaw
from ep_nozzle.grid import build_grid
from ep_nozzle.ode1d import OneDParams, integrate_ivp

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "phase_memory.py"
LAW = GasLaw(gamma=2.0, k0=1.0)


def _phase_memory():
    spec = importlib.util.spec_from_file_location("phase_memory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rises(shape):
    """Rise per node of every phase of the script over one fixed-point solve."""
    script = _phase_memory()
    dim = len(shape)
    grid = build_grid(dim=dim, cross_extents=((0.0, 1.0),) * (dim - 1), shape=shape)
    background = integrate_ivp(LAW, OneDParams(0.5, 1.2, 0.1, 1.0, 1.0), shape[-1] - 1)
    data = driver.perturb_data(background, grid, 1e-3)
    meter = script.PhaseMeter(script.PHASES)
    tracemalloc.start()
    sys.setprofile(meter)
    try:
        state = driver.PicardState(LAW, background, grid)
        driver.run_fixed_point(driver.IterationConfig(), data, state)
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    assert meter.calls["step"] >= 2 and meter.calls["nonlinear_residual"] == 1
    return {name: rise / grid.n_nodes for name, rise in meter.rise.items()}


# rise per node measured with this code (one BLAS thread); the 128x256 solve
# is the sweep-2d grid, where one residual slab is the whole grid
MEASURED = {
    (128, 256): {"step": 62.8, "nonlinear_residual": 81.3, "GasLaw.density": 9.1},
    (33, 33, 65): {"step": 73.0, "nonlinear_residual": 49.8, "GasLaw.density": 9.0},
}


@pytest.mark.parametrize("shape", sorted(MEASURED), ids=lambda s: "x".join(map(str, s)))
def test_step_and_residual_stay_within_their_budget(shape):
    rises = _rises(shape)
    for phase, measured in MEASURED[shape].items():
        assert rises[phase] <= 1.1 * measured, (phase, rises[phase])
