import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ep_nozzle import checks, cli, driver, elliptic, export, pool
from ep_nozzle.config import TEMPLATE, parse_config, serialize_config
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


def edited(section, key, value):
    """SMALL with one key set (or added)."""
    sections = {"nozzle": {"nodes_cross": "17", "nodes_axial": "33"},
                "perturbation": {"sigma": "0.0005"}}
    sections.setdefault(section, {})[key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


class TestConfig:
    def test_roundtrip_fixed_point(self):
        cfg = parse_config(TEMPLATE)
        text = serialize_config(cfg)
        cfg2 = parse_config(text)
        assert cfg.values == cfg2.values
        assert serialize_config(cfg2) == text

    def test_partial_file_gets_defaults(self):
        cfg = parse_config(SMALL)
        assert cfg.values["nozzle"]["nodes_cross"] == 17
        assert cfg.values["gas"]["gamma"] == 2.0
        assert cfg.values["perturbation"]["sigma"] == 0.0005

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

    @pytest.mark.parametrize("command, text, name", [
        ("solve", SMALL, "report.json"),
        ("perturb-domain", SMALL + "\n[domain_map]\neps = 0.002\n", "report_perturbed.json")],
        ids=["solve", "perturb-domain"])
    def test_report_carries_the_norm_summary(self, tmp_path, monkeypatch, command, text, name):
        # the commands that write a report call `driver.pair_norms` on the
        # fixed point, through the module attribute, once
        calls = []
        pair_norms = driver.pair_norms
        monkeypatch.setattr(driver, "pair_norms",
                            lambda *a, **k: calls.append(0) or pair_norms(*a, **k))
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(text)
        assert run_cli(command, "--config", str(cfgfile), "--out", str(tmp_path / "o")) == 0
        report = json.loads((tmp_path / "o" / name).read_text())
        assert len(calls) == 1
        assert sorted(report["norm_summary"]) == ["Psi", "psi"]
        assert report["norm_summary"]["psi"]["sup"] > 0.0

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


class TestOutputFilesAreReplaced:
    # every output is written as a new file: one already there is unlinked,
    # not truncated, so a rerun gives the same bytes in new inodes

    @pytest.mark.parametrize("argv", [("background",), ("solve",), ("solve", "--format", "vtk"),
                                      ("sweep",), ("perturb-domain", "--format", "vtk")],
                             ids=lambda argv: "-".join(a.strip("-") for a in argv))
    def test_rerun_writes_new_files_with_the_same_bytes(self, tmp_path, argv):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(SMALL)
        out, kept = tmp_path / "o", tmp_path / "kept"
        kept.mkdir()
        assert run_cli(argv[0], "--config", str(cfgfile), "--out", str(out), *argv[1:]) == 0
        first = {}
        for path in out.iterdir():
            # a second link keeps the old inode alive, so its number is not reused
            os.link(path, kept / path.name)
            first[path.name] = (path.read_bytes(), path.stat().st_ino)
        assert run_cli(argv[0], "--config", str(cfgfile), "--out", str(out), *argv[1:]) == 0
        second = {path.name: (path.read_bytes(), path.stat().st_ino) for path in out.iterdir()}
        assert sorted(second) == sorted(first) and len(first) >= 2
        for name, (data, inode) in second.items():
            assert data == first[name][0]
            assert inode != first[name][1]
            assert (kept / name).read_bytes() == data     # the old file was not written

    def test_a_symlink_at_an_output_path_is_replaced(self, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(SMALL)
        out, target = tmp_path / "o", tmp_path / "elsewhere.json"
        out.mkdir()
        target.write_text("kept\n")
        (out / "report.json").symlink_to(target)
        assert run_cli("solve", "--config", str(cfgfile), "--out", str(out)) == 0
        assert not (out / "report.json").is_symlink()
        assert json.loads((out / "report.json").read_text())["converged"] is True
        assert target.read_text() == "kept\n"


class TestSweep:
    def test_slope_reported(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(SMALL + "\n[sweep]\nsigmas = 0.0002,0.0004,0.0008\n")
        code = run_cli("sweep", "--config", str(cfgfile), "--out", str(tmp_path / "o"))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.9 <= payload["slope_norm"] <= 1.1
        assert len(payload["iterations"]) == len(payload["nonlinear_residuals"]) == 3
        assert "wall" not in payload  # one eps runs no wall ladder
        files = list((tmp_path / "o").glob("sweep_*.json"))
        assert len(files) == 1

    def test_wall_ladder_3d(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(edited("nozzle", "dim", "3")
                           + "[domain_map]\neps = 0.001,0.002,0.004,0.008\n")
        code = run_cli("sweep", "--config", str(cfgfile), "--out", str(tmp_path / "o"))
        assert code == 0
        wall = json.loads(capsys.readouterr().out)["wall"]
        assert sorted(wall) == ["eps", "iterations", "pushforward_residuals", "slope_corrections",
                                "slope_response", "sup_H1", "sup_H2", "sup_norms"]
        assert wall["eps"] == [0.001, 0.002, 0.004, 0.008]
        assert all(len(wall[key]) == 4 for key in ("sup_norms", "sup_H1", "sup_H2",
                                                   "iterations", "pushforward_residuals"))
        assert 0.85 <= wall["slope_response"] <= 1.15
        assert 0.85 <= wall["slope_corrections"] <= 1.15


LADDERS = {
    "sigma-2d": SMALL + "\n[sweep]\nsigmas = 0.0001,0.0002,0.0004,0.0008\n",
    "wall-3d": edited("nozzle", "dim", "3") + "[domain_map]\neps = 0.001,0.002,0.004,0.008\n",
}


def sweep_with_cpus(tmp_path, capsys, monkeypatch, text, n):
    """`sweep` with n usable CPUs: exit code, stdout, stderr, sweep_*.json bytes."""
    monkeypatch.setattr(pool, "_usable_cpus", lambda: n)
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(text)
    out = tmp_path / f"o{n}"
    code = run_cli("sweep", "--config", str(cfgfile), "--out", str(out))
    stdout, stderr = capsys.readouterr()
    return code, stdout, stderr, [f.read_bytes() for f in sorted(out.glob("sweep_*.json"))]


class TestLadderProcesses:
    """The rungs of a ladder run in one process (w = 1) or split over two
    (w = 2, rung 1 in a forked child) with the same outcome."""

    @pytest.mark.parametrize("ladder", list(LADDERS))
    def test_payload_independent_of_cpus(self, tmp_path, capsys, monkeypatch, ladder):
        one, two = (sweep_with_cpus(tmp_path, capsys, monkeypatch, LADDERS[ladder], n)
                    for n in (1, 2))
        assert one[0] == 0 and len(one[3]) == 1
        assert one == two

    def test_failure_in_a_childs_rung(self, tmp_path, capsys, monkeypatch):
        text = SMALL + "\n[sweep]\nsigmas = 0.0001,1.0\n"
        one, two = (sweep_with_cpus(tmp_path, capsys, monkeypatch, text, n) for n in (1, 2))
        assert one[0] == 4
        err = one[2].splitlines()
        assert len(err) == 1 and err[0].startswith("admissibility: M*sigma"), err
        assert one == two

    def test_dead_child_gives_the_full_payload(self, tmp_path, capsys, monkeypatch):
        here = os.getpid()
        run_fixed_point = driver.run_fixed_point

        def dies_in_a_child(*args, **kwargs):
            if os.getpid() != here:
                os._exit(1)
            return run_fixed_point(*args, **kwargs)

        text = LADDERS["sigma-2d"]
        one = sweep_with_cpus(tmp_path, capsys, monkeypatch, text, 1)
        monkeypatch.setattr(driver, "run_fixed_point", dies_in_a_child)
        assert sweep_with_cpus(tmp_path, capsys, monkeypatch, text, 2) == one
        assert len(json.loads(one[1])["iterations"]) == 4

    def test_warnings_independent_of_cpus(self, tmp_path):
        # stderr of a fresh interpreter, where the default warning filters apply
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(LADDERS["sigma-2d"])
        script = "\n".join([
            "import sys, warnings",
            "from ep_nozzle import cli, driver, pool",
            "run_fixed_point = driver.run_fixed_point",
            "def warns(config, data, state, **kwargs):",
            "    warnings.warn(f'rung at sigma {data.sigma}', RuntimeWarning)",
            "    warnings.warn('every rung', RuntimeWarning)",
            "    return run_fixed_point(config, data, state, **kwargs)",
            "driver.run_fixed_point = warns",
            "pool._usable_cpus = lambda: int(sys.argv[1])",
            f"sys.exit(cli.main(['sweep', '--config', {str(cfgfile)!r}, "
            f"'--out', {str(tmp_path / 'o')!r}]))",
        ])
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        runs = [subprocess.run([sys.executable, "-c", script, str(n)], env=env,
                               capture_output=True, text=True) for n in (1, 2)]
        assert runs[0].returncode == 0
        lines = runs[0].stderr.splitlines()
        assert sum("RuntimeWarning: rung at sigma" in line for line in lines) == 4
        assert sum("RuntimeWarning: every rung" in line for line in lines) == 1
        assert [(r.returncode, r.stdout, r.stderr) for r in runs[1:]] == \
            [(runs[0].returncode, runs[0].stdout, runs[0].stderr)]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one usable CPU")
def test_solve_outputs_independent_of_the_cpus(tmp_path):
    # four float columns just above two shares: the table is split over two
    # processes unless the command may run on one CPU only
    axial = 257
    cross = 2 * export.MIN_SHARE_VALUES // (4 * axial) + 1
    assert 4 * cross * axial // export.MIN_SHARE_VALUES == 2
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"[nozzle]\nnodes_cross = {cross}\nnodes_axial = {axial}\n"
                       "[perturbation]\nsigma = 0.0005\n")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    cpu = min(os.sched_getaffinity(0))
    outputs = []
    for pin in (lambda: os.sched_setaffinity(0, {cpu}), None):
        cwd = tmp_path / ("one" if pin else "all")
        cwd.mkdir()
        run = subprocess.run([sys.executable, "-m", "ep_nozzle.cli", "solve", "--config",
                              str(cfgfile), "--out", "out"], cwd=cwd, env=env,
                             preexec_fn=pin, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert os.listdir(cwd) == ["out"]
        outputs.append({p.name: p.read_bytes() for p in (cwd / "out").iterdir()})
    assert sorted(outputs[0]) == ["config_echo.ini", "fields.csv", "report.json"]
    assert outputs[0] == outputs[1]


def test_heap_frozen_once_per_process(tmp_path):
    # a fresh interpreter: the first call freezes, the second freezes nothing more
    script = "\n".join([
        "import gc, sys",
        "from ep_nozzle import cli",
        "counts = [gc.get_freeze_count()]",
        "for k in range(2):",
        f"    cli.main(['background', '--out', {str(tmp_path)!r} + f'/{{k}}'])",
        "    counts.append(gc.get_freeze_count())",
        "print(*counts, file=sys.stderr)",
    ])
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert run.returncode == 0, run.stderr
    before, first, second = map(int, run.stderr.split())
    assert before == 0 < first == second


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
        assert len(out.splitlines()) == len(checks.CHECKS) == 20

    def test_runs_the_shared_checks_with_one_factorization(self, verify_run):
        # only the cross-check of the separable solve factors K by sparse LU;
        # the forms read the blocks
        code, out, factorizations = verify_run
        assert factorizations == 1
        lines = out.splitlines()
        assert lines == [line for line in lines if line.startswith("PASS ")]
        assert [line.split(":")[0] for line in lines] == [f"PASS {name}" for name in checks.CHECKS]


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

    def test_perturb_domain_snapshots_on_deformed_coordinates(self, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(SMALL + "\n[output]\nsnapshots = true\n[domain_map]\neps = 0.002\n")
        code = run_cli("perturb-domain", "--config", str(cfgfile), "--out", str(tmp_path / "o"))
        assert code == 0
        snaps = sorted((tmp_path / "o").glob("snapshot_*.csv"))
        report = json.loads((tmp_path / "o" / "report_perturbed.json").read_text())
        assert len(snaps) == report["iterations"]
        last = np.genfromtxt(snaps[-1], delimiter=",", names=True)
        final = np.genfromtxt(tmp_path / "o" / "fields_deformed.csv", delimiter=",", names=True)
        for name in ("x", "y", "psi", "Psi"):
            assert np.array_equal(last[name], final[name])


# no command but `verify` loads scipy: `scipy.optimize` (brentq, in
# `shoot_bvp`), `scipy.sparse` (the reference maps and K) and
# `scipy.sparse.linalg` (the sparse-LU cross-check); "scipy" itself stands
# for every scipy module. Nor does any other command load the checks
ON_DEMAND = ("scipy", "scipy.integrate", "scipy.optimize", "scipy.sparse.linalg",
             "ep_nozzle.checks")


class TestImports:
    def test_commands_leave_on_demand_packages_unloaded(self, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(SMALL)
        ladder = tmp_path / "ladder.ini"
        ladder.write_text(SMALL + "\n[domain_map]\neps = 0.001,0.002\n")
        runs = [[command, "--config", str(cfgfile), "--out", str(tmp_path / command)]
                for command in ("solve", "background", "sweep", "perturb-domain")]
        runs.append(["sweep", "--config", str(ladder), "--out", str(tmp_path / "ladder")])
        script = "\n".join([
            "import contextlib, io, json, sys",
            "from ep_nozzle import cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    codes = [cli.main(argv) for argv in {runs!r}]",
            f"print(json.dumps([codes, [m for m in {ON_DEMAND!r} if m in sys.modules]]))",
        ])
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout
        codes, loaded = json.loads(out)
        assert codes == [0, 0, 0, 0, 0]
        assert loaded == []


# (command, config text or None for a missing file, extra args, exit code,
# stderr label or None where argparse writes its own usage message)
PROBES = [
    pytest.param("solve", edited("perturbation", "sigma", "nan"), (), 1, "error", id="sigma-nan"),
    pytest.param("solve", edited("gas", "gamma", "nan"), (), 1, "error", id="gamma-nan"),
    pytest.param("solve", edited("gas", "gamma", "abc"), (), 1, "error", id="gamma-abc"),
    pytest.param("solve", edited("gas", "k0", "0"), (), 1, "error", id="k0-zero"),
    pytest.param("solve", edited("nozzle", "length", "-1"), (), 1, "error", id="length-negative"),
    pytest.param("solve", edited("nozzle", "cross_max", "-1"), (), 1, "error",
                 id="cross-max-negative"),
    pytest.param("solve", edited("background", "J0", "-1"), (), 1, "error", id="J0-negative"),
    pytest.param("perturb-domain", edited("domain_map", "eps", "0.5"), (), 4, "admissibility",
                 id="fold-over"),
    # a 3D cross block's determinant overflows to inf here: refused as a
    # fold-over, with no numpy overflow warning on stderr
    pytest.param("perturb-domain",
                 edited("nozzle", "dim", "3") + "[domain_map]\neps = 1e300\n", (), 4,
                 "admissibility", id="fold-over-3d-overflow",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    # the map itself overflows here (eps * w and eps * dw), before the
    # determinant: still one line and no warning
    pytest.param("perturb-domain",
                 edited("nozzle", "dim", "3") + "[domain_map]\neps = 1e308\n", (), 4,
                 "admissibility", id="fold-over-3d-map-overflow",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    pytest.param("perturb-domain", edited("domain_map", "eps", "nan"), (), 1, "error",
                 id="eps-nan"),
    pytest.param("perturb-domain", edited("domain_map", "eps", "0.001,0.002"), (), 1, "error",
                 id="eps-list-perturb-domain"),
    pytest.param("perturb-domain", edited("domain_map", "eps", ""), (), 1, "error",
                 id="eps-empty"),
    pytest.param("sweep", edited("domain_map", "eps", "0.001,0.001"), (), 1, "error",
                 id="eps-repeated"),
    pytest.param("sweep", edited("domain_map", "eps", "0,0.001"), (), 1, "error",
                 id="eps-ladder-zero"),
    pytest.param("sweep", edited("sweep", "sigmas", "0"), (), 1, "error", id="sigmas-zero"),
    pytest.param("sweep", edited("sweep", "sigmas", "0.001,0.001"), (), 1, "error",
                 id="sigmas-repeated"),
    pytest.param("solve", edited("output", "seed", "-5"), (), 1, "error", id="seed-negative"),
    pytest.param("solve", edited("iteration", "ball_multiplier", "-1"), (), 1, "error",
                 id="ball-multiplier-negative"),
    pytest.param("solve", edited("iteration", "max_iter", "0"), (), 1, "error",
                 id="max-iter-zero"),
    pytest.param("solve", edited("output", "snapshots", "ture"), (), 1, "error",
                 id="snapshots-typo"),
    pytest.param("solve", SMALL + "\n[nozzle]\nnodes_cross = 17\n", (), 1, "error",
                 id="duplicate-section"),
    pytest.param("solve", edited("perturbation", "sigam", "0.1"), (), 1, "error",
                 id="unknown-key"),
    pytest.param("solve", edited("nozle", "dim", "2"), (), 1, "error", id="unknown-section"),
    pytest.param("solve", None, (), 1, "error", id="missing-config"),
    pytest.param("solve", SMALL, ("--bogus",), 1, None, id="unknown-flag"),
    pytest.param("solve", SMALL, ("--seed", "abc"), 1, None, id="bad-seed-flag"),
    # the flags are range-checked with the file's values, before any output
    pytest.param("solve", SMALL, ("--seed", "-1"), 1, "error", id="seed-flag-negative"),
    pytest.param("solve", SMALL, ("--help",), 0, None, id="help"),
    pytest.param("background", edited("background", "rho0", "0.3"), (), 2,
                 "background breakdown", id="sonic-background"),
    # finite values whose background integration overflows a float
    pytest.param("solve", edited("gas", "gamma", "1e5"), (), 2, "background breakdown",
                 id="gamma-overflow"),
    pytest.param("solve", edited("background", "J0", "1e300"), (), 2, "background breakdown",
                 id="J0-overflow"),
    pytest.param("solve", edited("background", "rho0", "1e300"), (), 2,
                 "background breakdown", id="rho0-overflow"),
    pytest.param("solve", edited("background", "E0", "1e300"), (), 2, "background breakdown",
                 id="E0-overflow"),
    # the state overflows to inf by addition, with no OverflowError
    pytest.param("solve", edited("background", "rho0", "1e100"), (), 2,
                 "background breakdown", id="rho0-1e100"),
    # the iterate's gradient norm overflows to inf: refused, with no numpy
    # overflow warning on stderr
    pytest.param("solve", edited("background", "J0", "1e-200"), (), 4, "admissibility",
                 id="J0-tiny", marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    pytest.param("solve", edited("background", "ode_steps", "8"), (), 1, "error",
                 id="ode-steps-below-16"),
    # a grid step whose cube or square overflows, or whose square underflows
    # to 0: refused by the grid, with no traceback or numpy warning
    pytest.param("solve", edited("nozzle", "cross_max", "1e150"), (), 1, "error",
                 id="cross-max-1e150", marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    pytest.param("solve", edited("nozzle", "cross_max", "1e200"), (), 1, "error",
                 id="cross-max-1e200", marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    pytest.param("solve", edited("nozzle", "length", "1e-300"), (), 1, "error",
                 id="length-1e-300", marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    pytest.param("solve", edited("perturbation", "sigma", "0.05"), (), 4, "admissibility",
                 id="oversized-sigma"),
    pytest.param("solve", edited("perturbation", "c_pex", "2"), (), 1, "error",
                 id="amplitude-above-one"),
    # more nodes than numpy can address: refused before np.linspace raises
    pytest.param("solve", edited("nozzle", "nodes_cross", str(10 ** 21)), (), 1, "error",
                 id="nodes-cross-1e21"),
]


class TestExitCodes:
    @pytest.mark.parametrize("command, text, extra, code, label", PROBES)
    def test_probe(self, tmp_path, capsys, command, text, extra, code, label):
        cfgfile = tmp_path / "run.ini"
        if text is not None:
            cfgfile.write_text(text)
        got = run_cli(command, "--config", str(cfgfile), "--out", str(tmp_path / "o"), *extra)
        assert got == code
        # refused input writes nothing; iteration and admissibility failures
        # leave the config echo for diagnosis
        assert (tmp_path / "o").exists() == (code in (3, 4))
        if label is not None:
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"{label}: "), err

    @pytest.mark.parametrize("key, value", [("c_phi_en", "2.0"), ("c_charge", "-1.5")])
    def test_amplitude_above_one_is_refused_at_parse_time(self, tmp_path, capsys, key, value):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(edited("perturbation", key, value))
        assert run_cli("solve", "--config", str(cfgfile), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: [perturbation] {key} must lie in [-1, 1]"], err
        assert not (tmp_path / "o").exists()

    def test_config_that_is_not_utf8_exits_1(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_bytes(SMALL.encode() + b"; \xff\n")
        assert run_cli("solve", "--config", str(cfgfile), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: config file {cfgfile} is not UTF-8 text"], err
        assert not (tmp_path / "o").exists()

    def test_memory_error_propagates(self, tmp_path, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(elliptic, "_factor_modes", out_of_memory)
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(SMALL)
        with pytest.raises(MemoryError):
            run_cli("solve", "--config", str(cfgfile), "--out", str(tmp_path / "o"))

    def test_singular_factor_exits_1(self, tmp_path, capsys, monkeypatch):
        axial_blocks = elliptic._axial_blocks

        def singular(*args):
            # node 0 holds identity rows only, so the pivot block of node 1
            # is its diagonal block: zero the axial one, which is the whole
            # block of mode 0 (cross eigenvalue 0)
            lower, upper, diag = axial_blocks(*args)
            diag[1] = 0.0
            return lower, upper, diag

        monkeypatch.setattr(elliptic, "_axial_blocks", singular)
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(SMALL)
        assert run_cli("solve", "--config", str(cfgfile), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: banded factorization"), err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_pivot_block_exits_1(self, tmp_path, capsys):
        # the cross eigenvalues of a 1e-100 wide section overflow the pivot
        # determinants: the singular-pivot error alone, no numpy warning
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(edited("nozzle", "cross_max", "1e-100"))
        assert run_cli("solve", "--config", str(cfgfile), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: banded factorization of the mode systems failed "
                       "(singular pivot block at axial node 1)"], err


    @pytest.mark.parametrize("command, text, report", [
        ("solve", SMALL, "report.json"),
        ("perturb-domain", edited("domain_map", "eps", "0.002"), "report_perturbed.json"),
    ], ids=["solve", "perturb-domain"])
    def test_fixed_point_not_subsonic_exits_4(self, tmp_path, capsys, monkeypatch,
                                              command, text, report):
        # every command refuses a fixed point that is not subsonic alike:
        # exit 4, one line naming the margin, and no report
        walk = driver.PicardState.maxima_and_margin
        monkeypatch.setattr(driver.PicardState, "maxima_and_margin",
                            lambda self, pair: (walk(self, pair)[0], -1.0))
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(text)
        assert run_cli(command, "--config", str(cfgfile), "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["admissibility: subsonic margin -1.000e+00 of the fixed point "
                       "is not positive"], err
        assert not (tmp_path / "o" / report).exists()

    def test_solve_residual_above_bound_exits_1(self, tmp_path, capsys, monkeypatch):
        solve = elliptic.solve

        def inaccurate(op, rhs):
            v, W, _ = solve(op, rhs)
            return v, W, 2e-8

        monkeypatch.setattr(elliptic, "solve", inaccurate)
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(SMALL)
        assert run_cli("solve", "--config", str(cfgfile), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: Picard iteration 1: relative residual of the linear solve "
                       "2.000e-08 exceeds 1e-08"]


# node counts and ODE steps stay small so a drawn run takes milliseconds
CAPS = {"nodes_cross": 40, "nodes_cross2": 40, "nodes_axial": 40, "ode_steps": 4096}
COMMANDS = {"background": "background", "sweep": "sweep", "domain_map": "perturb-domain"}
DEFAULTS = parse_config(TEMPLATE).values
FUZZ_KEYS = [(section, name) for section, keys in DEFAULTS.items()
             for name in keys if (section, name) != ("output", "directory")]


def command_for(section, value):
    """The command an edit runs: a list of eps is the wall ladder of `sweep`."""
    if section == "domain_map" and "," in value:
        return "sweep"
    return COMMANDS.get(section, "solve")


def near_default(name, default):
    """Well-formed values near a template default."""
    if isinstance(default, bool):
        return st.sampled_from(("true", "false"))
    if isinstance(default, int):
        return st.integers(default // 2, 2 * default).map(
            lambda n: str(min(n, CAPS.get(name, n))))
    if isinstance(default, float):
        lo, hi = sorted((0.5 * default, 2.0 * default)) if default else (-0.5, 0.5)
        return st.floats(lo, hi).map(repr)
    if isinstance(default, tuple):
        return st.lists(st.floats(1e-5, 1e-3), min_size=1, max_size=3).map(
            lambda vals: ",".join(map(repr, vals)))
    return st.sampled_from(("csv", "vtk"))


@st.composite
def single_key_edits(draw):
    section, name = draw(st.sampled_from(FUZZ_KEYS))
    value = draw(st.sampled_from(("nan", "inf", "-inf", "-1", "0", "abc", ""))
                 | near_default(name, DEFAULTS[section][name]))
    return section, name, value


class TestConfigFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(single_key_edits())
    # every run of the fuzz sends at least one list of eps to the wall ladder
    @example(("domain_map", "eps", "1e-05,0.0005,0.001"))
    def test_single_key_edit_gives_documented_exit(self, edit):
        section, name, value = edit
        with tempfile.TemporaryDirectory() as tmp:
            cfgfile = f"{tmp}/run.ini"
            with open(cfgfile, "w") as fh:
                fh.write(edited(section, name, value))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_cli(command_for(section, value), "--config", cfgfile,
                               "--out", f"{tmp}/o")
        assert code in range(5)
        if code:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
