"""`scripts/byte_identity.py` edits the benchmark's workload configs into its
extra cases. Each case must be a config the program accepts, with the edits
applied, or the check would compare two identical refusals. An item that
differs is printed with its magnitude (`magnitude`)."""

import importlib.util
import json
import pathlib

from ep_nozzle.config import parse_config
from ep_nozzle.grid import build_grid, slabs

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "byte_identity.py"


def _module():
    spec = importlib.util.spec_from_file_location("byte_identity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cases():
    return list(_module().cases())


def test_cases_are_accepted_configs_with_their_edits():
    cases = _cases()
    assert len(cases) == 4 * 4 + 7
    values = {name: parse_config(text).values for name, _, text in cases}
    perturb = values["perturb-3d/snapshots"]
    assert perturb["nozzle"]["dim"] == 3 and perturb["output"]["snapshots"] is True
    assert perturb["domain_map"]["eps"] == (0.0025,)
    # solve-3d's seed-1 config on a 33x33x65 grid: three slabs in a Picard step
    three = values["perturb-3d/three-slabs"]
    assert (three["nozzle"]["nodes_cross"], three["nozzle"]["nodes_cross2"],
            three["nozzle"]["nodes_axial"]) == (33, 33, 65)
    assert three["domain_map"]["eps"] == (0.0025,)
    assert dict(three, nozzle=None, domain_map=None) == \
        dict(values["solve-3d/seed1"], nozzle=None, domain_map=None)
    assert dict(three["nozzle"], nodes_cross=None, nodes_cross2=None, nodes_axial=None) == \
        dict(values["solve-3d/seed1"]["nozzle"], nodes_cross=None, nodes_cross2=None,
             nodes_axial=None)
    commands = {name: command for name, command, _ in cases}
    assert commands["perturb-3d/three-slabs"] == "perturb-domain"
    g = build_grid(dim=3, cross_extents=((0.0, 1.0),) * 2, shape=(33, 33, 65))
    assert len(list(slabs(g, 0, halo=1))) == 3
    # perturb-2d on solve-2d's grid, two slabs in the step and the residuals
    assert values["perturb-2d/two-slabs"]["nozzle"] == values["solve-2d/seed0"]["nozzle"]
    assert values["perturb-2d/two-slabs"]["nozzle"]["nodes_cross"] == 160
    assert dict(values["perturb-2d/two-slabs"], nozzle=None) == \
        dict(values["perturb-2d/seed0"], nozzle=None)
    assert values["sweep-3d/eps-ladder"]["nozzle"]["dim"] == 3
    assert values["sweep-3d/eps-ladder"]["domain_map"]["eps"] == (0.001, 0.002, 0.004, 0.008)
    assert values["sweep-2d/eps-ladder"]["domain_map"]["eps"] == (0.001, 0.002, 0.004)
    # the edit keeps every other key of the workload's config
    ladder = dict(values["sweep-2d/eps-ladder"], domain_map=None)
    assert ladder == dict(values["sweep-2d/seed3"], domain_map=None)
    # the refused solves: one Picard-step budget and one iteration ball cut
    assert values["solve-2d/max-iter-2"]["iteration"]["max_iter"] == 2
    assert values["perturb-2d/small-ball"]["iteration"]["ball_multiplier"] == 0.5
    for name, base in (("solve-2d/max-iter-2", "solve-2d/seed0"),
                       ("perturb-2d/small-ball", "perturb-2d/seed0")):
        assert dict(values[name], iteration=None) == dict(values[base], iteration=None)


def test_magnitude_of_fields_and_reports(tmp_path):
    magnitude = _module().magnitude
    ref, here = tmp_path / "ref", tmp_path / "here"
    ref.mkdir()
    here.mkdir()
    (ref / "fields.csv").write_text("x,y,psi,Psi\n0,0,2,-4\n0,1,1,1\n")
    (here / "fields.csv").write_text("x,y,psi,Psi\n0,0,2,-4\n0,1,1.5,1\n")
    assert magnitude("fields.csv", ref / "fields.csv", here / "fields.csv", 2) == \
        "psi 2.50e-01, Psi 0.00e+00"
    (ref / "report.json").write_text(json.dumps({"iterations": 5, "diffs": [1.0, 0.5], "a": "x"}))
    (here / "report.json").write_text(json.dumps({"iterations": 6, "diffs": [1.0, 0.4], "a": "x"}))
    assert magnitude("report.json", ref / "report.json", here / "report.json", 2) == \
        "iterations 5 -> 6, max rel 2.00e-01 at diffs[1]"
    assert magnitude("stderr", ref / "fields.csv", None, 2) == ""


def test_magnitude_keeps_the_largest_differences(tmp_path):
    # the script's last line gives the largest of these over all cases
    magnitude = _module().magnitude
    ref, here = tmp_path / "ref", tmp_path / "here"
    ref.mkdir()
    here.mkdir()
    (ref / "fields.csv").write_text("x,y,psi,Psi\n0,0,2,-4\n0,1,1,1\n")
    (here / "fields.csv").write_text("x,y,psi,Psi\n0,0,2,-4\n0,1,1,2\n")
    seen = {}
    magnitude("fields.csv", ref / "fields.csv", here / "fields.csv", 2, seen)
    assert seen == {"field": 0.25}
    (ref / "report.json").write_text(json.dumps({"iterations": 5, "diffs": [1.0, 0.5]}))
    (here / "report.json").write_text(json.dumps({"iterations": 5, "diffs": [0.5, 0.5]}))
    magnitude("report.json", ref / "report.json", here / "report.json", 2, seen)
    assert seen == {"field": 0.25, "report": 0.5}
