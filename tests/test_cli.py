import contextlib
import io
import json

import numpy as np
import pytest

from ep_nozzle import cli, elliptic
from ep_nozzle.config import (
    TEMPLATE,
    default_config,
    parse_config,
    serialize_config,
)
from ep_nozzle.errors import DomainError

SMALL = """
[nozzle]
nodes_cross = 17
nodes_axial = 33

[perturbation]
sigma = 0.0005
"""


def run_cli(*argv):
    return cli.main(list(argv))


class TestConfig:
    def test_roundtrip_fixed_point(self):
        cfg = parse_config(TEMPLATE)
        text = serialize_config(cfg)
        cfg2 = parse_config(text)
        assert cfg.values == cfg2.values
        assert serialize_config(cfg2) == text

    def test_partial_file_gets_defaults(self):
        cfg = parse_config(SMALL)
        assert cfg.get("nozzle", "nodes_cross") == 17
        assert cfg.get("gas", "gamma") == 2.0
        assert cfg.get("perturbation", "sigma") == 0.0005

    def test_validation(self):
        with pytest.raises(DomainError):
            parse_config("[gas]\ngamma = 0.5\n")
        with pytest.raises(DomainError):
            parse_config("[output]\nformat = hdf5\n")
        with pytest.raises(DomainError):
            parse_config("[nozzle]\nnodes_cross = 4\n")


class TestTemplate:
    def test_emit_template(self, capsys):
        assert run_cli("solve", "--emit-template") == 0
        out = capsys.readouterr().out
        assert out == TEMPLATE
        parse_config(out)


class TestBackground:
    def test_writes_profiles_and_summary(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(SMALL)
        code = run_cli("background", "--config", str(cfgfile), "--out", str(tmp_path / "o"))
        assert code == 0
        prof = (tmp_path / "o" / "profiles.csv").read_text().splitlines()
        assert prof[0] == "x,rho,u,E,phi0,Phi0"
        summary = json.loads((tmp_path / "o" / "background.json").read_text())
        assert summary["nu0"] > 0
        assert summary["monotone_admissible"] is True

    def test_sonic_config_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text("[background]\nJ0 = 1.4142135\nrho0 = 1.0\nE0 = 0.5\n")
        code = run_cli("background", "--config", str(cfgfile), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "at x=" in capsys.readouterr().err


class TestSolve:
    def test_sigma_zero(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(SMALL.replace("sigma = 0.0005", "sigma = 0.0"))
        code = run_cli("solve", "--config", str(cfgfile), "--out", str(tmp_path / "o"))
        assert code == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["converged"] is True
        assert report["iterations"] == 1
        fields = (tmp_path / "o" / "fields.csv").read_text().splitlines()
        assert fields[0] == "x,y,psi,Psi,phi,Phi"

    def test_small_sigma_contracts(self, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(SMALL)
        code = run_cli("solve", "--config", str(cfgfile), "--out", str(tmp_path / "o"))
        assert code == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert all(r < 1.0 for r in report["contraction_factors"])
        assert report["subsonic_margin"] > 0

    def test_oversized_sigma_refused_exit_4(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(SMALL.replace("sigma = 0.0005", "sigma = 0.05"))
        code = run_cli("solve", "--config", str(cfgfile), "--out", str(tmp_path / "o"))
        assert code == 4
        assert "refusing" in capsys.readouterr().err

    def test_deterministic_outputs(self, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(SMALL)
        run_cli("solve", "--config", str(cfgfile), "--out", str(tmp_path / "a"))
        run_cli("solve", "--config", str(cfgfile), "--out", str(tmp_path / "b"))
        for name in ("fields.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        # echoes agree up to the differing output directory itself
        ea = (tmp_path / "a" / "config_echo.ini").read_text().replace(str(tmp_path / "a"), "OUT")
        eb = (tmp_path / "b" / "config_echo.ini").read_text().replace(str(tmp_path / "b"), "OUT")
        assert ea == eb

    def test_vtk_format(self, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(SMALL)
        code = run_cli("solve", "--config", str(cfgfile), "--out", str(tmp_path / "o"),
                       "--format", "vtk")
        assert code == 0
        head = (tmp_path / "o" / "fields.vtk").read_text().splitlines()[0]
        assert head.startswith("# vtk DataFile")


class TestSweep:
    def test_slope_reported(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(SMALL + "\n[sweep]\nsigmas = 0.0002,0.0004,0.0008\n")
        code = run_cli("sweep", "--config", str(cfgfile), "--out", str(tmp_path / "o"))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.9 <= payload["slope_norm"] <= 1.1
        files = list((tmp_path / "o").glob("sweep_*.json"))
        assert len(files) == 1


class TestPerturbDomain:
    def test_identity_matches_solve(self, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(SMALL + "\n[domain_map]\neps = 0.0\n")
        run_cli("solve", "--config", str(cfgfile), "--out", str(tmp_path / "a"))
        code = run_cli("perturb-domain", "--config", str(cfgfile), "--out", str(tmp_path / "b"))
        assert code == 0
        a = np.genfromtxt(tmp_path / "a" / "fields.csv", delimiter=",", names=True)
        b = np.genfromtxt(tmp_path / "b" / "fields_deformed.csv", delimiter=",", names=True)
        assert np.array_equal(a["psi"], b["psi"])
        assert np.array_equal(a["Psi"], b["Psi"])
        assert np.array_equal(a["x"], b["x"])

    def test_shear_run(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(SMALL + "\n[domain_map]\neps = 0.002\n")
        code = run_cli("perturb-domain", "--config", str(cfgfile), "--out", str(tmp_path / "o"))
        assert code == 0
        report = json.loads((tmp_path / "o" / "report_perturbed.json").read_text())
        assert report["sigmaG"] == 0.002
        assert "pushforward_residual" in report


@pytest.fixture(scope="class")
def verify_run(tmp_path_factory):
    """One `verify` run: exit code, stdout and the number of factorizations."""
    factorizations = []
    splu = elliptic.splu

    def counting_splu(*args, **kwargs):
        factorizations.append(1)
        return splu(*args, **kwargs)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(elliptic, "splu", counting_splu)
        code = run_cli("verify", "--out", str(tmp_path_factory.mktemp("verify")))
    return code, out.getvalue(), len(factorizations)


class TestVerify:
    def test_battery_passes(self, verify_run):
        code, out, _ = verify_run
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 6

    def test_runs_the_shared_checks_with_one_factorization(self, verify_run):
        # only the trivial fixed point factorizes; the forms read the blocks
        code, out, factorizations = verify_run
        assert factorizations == 1
        lines = out.splitlines()
        assert lines == [line for line in lines if line.startswith("PASS ")]
        assert [line.split(":")[0] for line in lines] == [f"PASS {name}" for name in cli.CHECKS]


class TestSnapshots:
    def test_per_iteration_snapshots(self, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(SMALL + "\n[output]\nsnapshots = true\n")
        code = run_cli("solve", "--config", str(cfgfile), "--out", str(tmp_path / "o"))
        assert code == 0
        snaps = sorted((tmp_path / "o").glob("snapshot_*.csv"))
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert len(snaps) == report["iterations"]
        head = snaps[0].read_text().splitlines()[0]
        assert head == "x,y,psi,Psi"
