"""Memory budget of a Picard step, of the strong residuals and of the field writers.

The rise of `PicardState.step`, of `nonlinear_residual` and of
`GasLaw.density` over their entry, in bytes per grid node, is measured under
tracemalloc by the `PhaseMeter` of `scripts/phase_memory.py` on one small 2D
and one small 3D solve, and that of `domainmap.solve_perturbed` and of
`domainmap.pushforward_residual` on one small 3D perturbed solve, and that
of `export_field_csv` and `export_field_vtk` on that 3D solve's fields. The
bounds are the measured figures plus about 10%, so a whole-grid temporary
that comes back into any of them fails here.
"""

import importlib.util
import pathlib
import sys
import tracemalloc

import pytest

from ep_nozzle import domainmap, driver, export, pool, rowtext  # noqa: F401 (rowtext: see below)
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


def _meter(shape, phases, solve):
    """The script's `PhaseMeter` on phases over solve(state, data): one
    fixed-point solve at sigma 1e-3 on the grid of shape, its `PicardState`
    built under the meter too."""
    script = _phase_memory()
    dim = len(shape)
    grid = build_grid(dim=dim, cross_extents=((0.0, 1.0),) * (dim - 1), shape=shape)
    background = integrate_ivp(LAW, OneDParams(0.5, 1.2, 0.1, 1.0, 1.0), shape[-1] - 1)
    data = driver.perturb_data(background, grid, 1e-3)
    meter = script.PhaseMeter(phases)
    tracemalloc.start()
    sys.setprofile(meter)
    try:
        solve(driver.PicardState(LAW, background, grid), data)
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    return meter, grid.n_nodes


def _rises(shape):
    """Rise per node of every phase of the script over one fixed-point solve."""
    meter, n = _meter(shape, _phase_memory().PHASES,
                      lambda state, data: driver.run_fixed_point(driver.IterationConfig(),
                                                                 data, state))
    assert meter.calls["step"] >= 2 and meter.calls["nonlinear_residual"] == 1
    return {name: rise / n for name, rise in meter.rise.items()}


# rise per node measured with this code (one BLAS thread); the 128x256 solve
# is the sweep-2d grid, where one residual slab is the whole grid and the
# guard's `apply_operator` sets the step's peak (62.8 with numpy's iteration
# buffers on its axial views)
MEASURED = {
    (128, 256): {"step": 59.7, "nonlinear_residual": 81.3, "GasLaw.density": 9.1},
    (33, 33, 65): {"step": 63.4, "nonlinear_residual": 49.8, "GasLaw.density": 5.3},
}


@pytest.mark.parametrize("shape", sorted(MEASURED), ids=lambda s: "x".join(map(str, s)))
def test_step_and_residual_stay_within_their_budget(shape):
    rises = _rises(shape)
    for phase, measured in MEASURED[shape].items():
        assert rises[phase] <= 1.1 * measured, (phase, rises[phase])


# rise per node at 33x33x65 of a wall-shear solve at eps 2e-3 and of the
# pushforward residual after it, measured with this code (one BLAS thread).
# The solve forms J_T on each step slab's rows: 204.0 when it held the nodal
# J_T and its determinant. The residual runs in slabs of 16, 16 and 1 rows
# and their halos: 144.6 when it was formed on the whole grid
PERTURBED_MEASURED = {"solve_perturbed": 184.2, "pushforward_residual": 110.7}


def test_pushforward_residual_stays_within_its_budget():
    def solve(state, data):
        g = state.grid
        shear = domainmap.shear_map(2e-3, g.L, g.cross_extents)
        pair, _ = domainmap.solve_perturbed(shear, driver.IterationConfig(), data, state)
        domainmap.pushforward_residual(shear, state, pair, data)

    meter, n = _meter((33, 33, 65), {"solve_perturbed": domainmap.solve_perturbed,
                                     "pushforward_residual": domainmap.pushforward_residual},
                      solve)
    for phase, measured in PERTURBED_MEASURED.items():
        assert meter.calls[phase] == 1
        rise = meter.rise[phase] / n
        assert rise <= 1.1 * measured, (phase, rise)


# rise per node at 33x33x65 of the writers of a solve's four fields, all the
# rows in this process, measured with this code (one BLAS thread). The table
# writer is imported above, so its import is not counted. Its two block
# buffers are export.BLOCK_BYTES each, and its temporaries are at most about
# as much again, whatever the grid: 0.5-1.3 MB, 7-19 B per node here. The
# VTK writer holds its fields in VTK node order too, 32 B per node. With the
# `%` formatter, 4096 rows per call, the figures were 21.6 and 36.7
EXPORT_MEASURED = {"export_field_csv": 13.6, "export_field_vtk": 47.0}


def test_field_writers_stay_within_their_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(pool, "_usable_cpus", lambda: 1)

    def solve(state, data):
        pair, _ = driver.run_fixed_point(driver.IterationConfig(), data, state)
        g, c = state.grid, state.coeffs
        fields = {"psi": pair.psi, "Psi": pair.Psi,
                  "phi": (c.phi0 + g.sections(pair.psi)).ravel(),
                  "Phi": (c.Phi0 + g.sections(pair.Psi)).ravel()}
        export.export_field_csv(g, fields, tmp_path / "fields.csv")
        export.export_field_vtk(g, fields, tmp_path / "fields.vtk")

    meter, n = _meter((33, 33, 65), {name: getattr(export, name) for name in EXPORT_MEASURED},
                      solve)
    for phase, measured in EXPORT_MEASURED.items():
        assert meter.calls[phase] == 1
        rise = meter.rise[phase] / n
        assert rise <= 1.1 * measured, (phase, rise)
