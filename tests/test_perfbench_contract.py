"""The traced benchmark run patches names of the program from outside.

`perfbench/probe.py` replaces every `(module, attribute path)` of its `LAYERS`
list, and the `splu` factorization of `elliptic`, after import. A rename or
deletion of any of them would break traced runs without failing a solve, so
this test resolves each one.
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
