"""The traced benchmark run patches names of the program from outside.

`perfbench/probe.py` replaces every `(module, attribute path)` of its `LAYERS`
list, and the `splu` factorization of `elliptic`, after import. A rename or
deletion of any of them would break traced runs without failing a solve, so
one test resolves each one. A name that resolves but that the program no
longer calls would read zero in its per-layer metric, so another test traces
small runs of the commands and checks that every layer records a span.
`perfbench/record_reference.py` also calls the CLI's input helpers directly to
compute a workload's residual floor; the last test makes the same calls.
An untraced run takes `setup_s` from the first Picard step that this process
takes (`first_step`), so a `sweep` that splits its rungs over processes must
still take one here; one test checks the record.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROBE = ROOT / "perfbench" / "probe.py"


def _probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def _layers():
    return [(module, path) for module, path, _ in _probe().LAYERS] + [("elliptic", "splu")]


@pytest.mark.parametrize("module, path", _layers())
def test_patched_name_resolves(module, path):
    owner = importlib.import_module(f"ep_nozzle.{module}")
    for name in path.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def test_every_traced_layer_is_called(tmp_path):
    config = tmp_path / "small.ini"
    config.write_text("[nozzle]\nnodes_cross = 17\nnodes_axial = 33\n"
                      "[perturbation]\nsigma = 0.0005\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    names = set()
    for i, command in enumerate((["solve"], ["sweep"], ["perturb-domain", "--format", "vtk"])):
        record = tmp_path / f"record{i}.json"
        subprocess.run(
            [sys.executable, str(PROBE), str(record), "trace", "3221225472", "--", *command,
             "--config", str(config), "--out", str(tmp_path / f"out{i}")],
            env=env, check=True, capture_output=True,
        )
        names |= {span[0] for span in json.loads(record.read_text())["spans"]}
    layers = {name for _, _, name in _probe().LAYERS}
    # the probe's own span for the import of the program; the command line
    # never calls `splu`, so the factor, LU-solve and LU-count spans are absent
    assert names == layers | {"cli.import"}
    assert not names & {"elliptic.factor", "elliptic.lu_solve", "trace.count_factor"}


def test_probe_records_the_first_step_of_a_sweep(tmp_path):
    config = tmp_path / "small.ini"
    config.write_text("[nozzle]\nnodes_cross = 17\nnodes_axial = 33\n"
                      "[sweep]\nsigmas = 0.0001,0.0002,0.0004,0.0008\n")
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(PROBE), str(record), "probe", "3221225472", "--", "sweep",
         "--config", str(config), "--out", str(tmp_path / "out")],
        env=env, check=True, capture_output=True,
    )
    probe = json.loads(record.read_text())
    s0, s1 = probe["first_step"]
    assert probe["start"] < s0 < s1 < probe["end"]


def test_reference_recorder_calls_work():
    from ep_nozzle import cli, config, driver, ode1d

    cfg = config.parse_config("[nozzle]\nnodes_cross = 17\nnodes_axial = 33\n")
    grid = cli._grid(cfg)
    background = cli._background(cfg, grid)
    base = cfg.values["background"]["ode_steps"]
    assert background.xs.size - 1 == ode1d.aligned_steps(base, grid.shape[-1] - 1)
    state = driver.PicardState(cli._law(cfg), background, grid)
    assert driver.residual_floor(state)[0] >= 0.0
