"""`scripts/byte_identity.py` edits the benchmark's workload configs into its
extra cases. Each case must be a config the program accepts, with the edits
applied, or the check would compare two identical refusals."""

import importlib.util
import pathlib

from ep_nozzle.config import parse_config

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "byte_identity.py"


def _cases():
    spec = importlib.util.spec_from_file_location("byte_identity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.cases())


def test_cases_are_accepted_configs_with_their_edits():
    cases = _cases()
    assert len(cases) == 4 * 4 + 3
    values = {name: parse_config(text).values for name, _, text in cases}
    perturb = values["perturb-3d/snapshots"]
    assert perturb["nozzle"]["dim"] == 3 and perturb["output"]["snapshots"] is True
    assert perturb["domain_map"]["eps"] == (0.0025,)
    assert values["sweep-3d/eps-ladder"]["nozzle"]["dim"] == 3
    assert values["sweep-3d/eps-ladder"]["domain_map"]["eps"] == (0.001, 0.002, 0.004, 0.008)
    assert values["sweep-2d/eps-ladder"]["domain_map"]["eps"] == (0.001, 0.002, 0.004)
    # the edit keeps every other key of the workload's config
    ladder = dict(values["sweep-2d/eps-ladder"], domain_map=None)
    assert ladder == dict(values["sweep-2d/seed3"], domain_map=None)
