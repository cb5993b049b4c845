"""The traced benchmark run patches names of the program from outside.

`perfbench/probe.py` replaces every `(module, attribute path)` of its `LAYERS`
list, and the `splu` factorization of `elliptic`, after import. A rename or
deletion of any of them would break traced runs without failing a solve, so
this test resolves each one. `perfbench/record_reference.py` also calls the
CLI's input helpers directly to compute a workload's residual floor; the last
test makes the same calls.
"""

import importlib
import importlib.util
import pathlib

import pytest

PROBE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return [(module, path) for module, path, _ in probe.LAYERS] + [("elliptic", "splu")]


@pytest.mark.parametrize("module, path", _layers())
def test_patched_name_resolves(module, path):
    owner = importlib.import_module(f"ep_nozzle.{module}")
    for name in path.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def test_reference_recorder_calls_work():
    from ep_nozzle import cli, config, driver, ode1d

    cfg = config.parse_config("[nozzle]\nnodes_cross = 17\nnodes_axial = 33\n")
    grid = cli._grid(cfg)
    background = cli._background(cfg, grid)
    base = cfg.values["background"]["ode_steps"]
    assert background.xs.size - 1 == ode1d.aligned_steps(base, grid.shape[-1] - 1)
    state = driver.PicardState(cli._law(cfg), background, grid)
    assert driver.residual_floor(state)[0] >= 0.0
