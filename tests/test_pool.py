"""The fork pool: the table writer's shares and the ladders' rungs in forked
children, with the outcome of one process."""

import os
import threading
import time

import numpy as np
import pytest

import test_grid
from ep_nozzle import driver, export, pool
from ep_nozzle.export import export_deformed_vtk, export_field_csv, export_field_vtk
from ep_nozzle.grid import build_grid

# the writer's children format into unnamed files, which Linux alone makes
pytestmark = pytest.mark.skipif(not hasattr(os, "O_TMPFILE"), reason="no O_TMPFILE")


def _processes(monkeypatch, w):
    """Tables split over w processes: w usable CPUs, a share of one value."""
    monkeypatch.setattr(pool, "_usable_cpus", lambda: w)
    monkeypatch.setattr(export, "MIN_SHARE_VALUES", 1)


def _recording_fork(monkeypatch):
    """The pids of the children this process forks from now on."""
    forked = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return forked


def _write(writer, directory):
    """One writer's file on the 2D oracle grid, with awkward values, in a
    directory of its own; returns the bytes and what the directory holds."""
    g = build_grid(**test_grid.GRIDS["2d"])
    fields = {"f": test_grid._awkward(g.n_nodes), "Psi": test_grid._awkward(g.n_nodes, 5)}
    cross = test_grid._awkward(g.n_nodes, 3)[:, None]
    directory.mkdir()
    path = directory / ("field.csv" if writer.startswith("csv") else "field.vtk")
    {"csv": lambda: export_field_csv(g, fields, path),
     "csv-deformed": lambda: export_field_csv(g, fields, path, cross=cross),
     "vtk": lambda: export_field_vtk(g, fields, path),
     "vtk-deformed": lambda: export_deformed_vtk(g, cross, fields, path)}[writer]()
    return path.read_bytes(), os.listdir(directory)


WRITERS = ["csv", "csv-deformed", "vtk", "vtk-deformed"]


@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("kind", list(test_grid.GRIDS))
def test_oracles_hold_in_w_processes(tmp_path, monkeypatch, kind, w):
    _processes(monkeypatch, w)
    forked = _recording_fork(monkeypatch)
    oracle = test_grid.TestExport()
    for deformed in (False, True):
        oracle.test_csv_bytes_match_oracle(tmp_path, kind, deformed)
    oracle.test_csv_bytes_match_oracle_on_awkward_axes(tmp_path, kind)
    oracle.test_structured_points_bytes_match_oracle(tmp_path, kind)
    oracle.test_structured_grid_bytes_match_oracle(tmp_path, kind)
    assert bool(forked) == (w > 1)


@pytest.mark.parametrize("w", [2, 3])
@pytest.mark.parametrize("writer", WRITERS)
def test_bytes_independent_of_processes(tmp_path, monkeypatch, writer, w):
    _processes(monkeypatch, 1)
    one = _write(writer, tmp_path / "one")
    _processes(monkeypatch, w)
    forked = _recording_fork(monkeypatch)
    assert _write(writer, tmp_path / "w") == one
    assert len(forked) >= w - 1
    assert one[1] == ["field.csv" if writer.startswith("csv") else "field.vtk"]


def test_real_share_minimum_splits_a_table_of_two_shares(tmp_path, monkeypatch):
    # two float columns of 2^15 + 1 rows hold two shares at the real minimum
    g = build_grid(dim=2, shape=(129, 257))
    f = np.sin(np.arange(g.n_nodes) * 0.37)
    assert 2 * g.n_nodes // export.MIN_SHARE_VALUES == 2
    written = []
    for w in (1, 3):
        monkeypatch.setattr(pool, "_usable_cpus", lambda: w)
        forked = _recording_fork(monkeypatch)
        path = tmp_path / f"{w}" / "field.csv"
        path.parent.mkdir()
        export_field_csv(g, {"f": f, "g": -f}, path)
        written.append((path.read_bytes(), len(forked), os.listdir(path.parent)))
    assert written[1] == (written[0][0], 1, ["field.csv"])
    assert written[0][1] == 0


def test_share_of_a_dead_child_formatted_here(tmp_path, monkeypatch):
    # w = 3: the child of the last share exits early, the other one finishes
    _processes(monkeypatch, 1)
    one = _write("csv", tmp_path / "one")
    _processes(monkeypatch, 3)
    here = os.getpid()
    format_rows = export._format_rows

    def last_share_dies(fh, row, columns, start, stop):
        if os.getpid() != here and stop == columns[0].size:
            os._exit(1)
        format_rows(fh, row, columns, start, stop)

    monkeypatch.setattr(export, "_format_rows", last_share_dies)
    forked = _recording_fork(monkeypatch)
    assert _write("csv", tmp_path / "w") == one
    assert len(forked) == 2


def test_no_fork_while_other_threads_run(tmp_path, monkeypatch):
    _processes(monkeypatch, 1)
    one = _write("vtk", tmp_path / "one")
    _processes(monkeypatch, 2)
    forked = _recording_fork(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10.0,))
    thread.start()
    try:
        written = _write("vtk", tmp_path / "w")
    finally:
        release.set()
        thread.join(10.0)
    assert not thread.is_alive()
    assert written == one
    assert forked == []


def test_children_killed_and_reaped_when_this_share_raises(tmp_path, monkeypatch):
    _processes(monkeypatch, 3)
    here = os.getpid()

    def rows(fh, row, columns, start, stop):
        if os.getpid() == here:
            raise KeyboardInterrupt
        time.sleep(60)   # a child still runs when this process leaves

    monkeypatch.setattr(export, "_format_rows", rows)
    forked = _recording_fork(monkeypatch)
    fds = os.listdir("/proc/self/fd")
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _write("csv", tmp_path / "w")
    assert time.monotonic() - t0 < 30.0     # killed, not waited for
    assert len(forked) == 2
    for pid in forked:
        with pytest.raises(ChildProcessError):   # reaped: no zombie is left
            os.waitpid(pid, os.WNOHANG)
    assert os.listdir(tmp_path / "w") == ["field.csv"]
    assert os.listdir("/proc/self/fd") == fds   # the unnamed files are closed


def test_no_fork_inside_a_share(tmp_path, monkeypatch):
    # a rung in a ladder child, or in this process while the child runs,
    # writes a table and runs a ladder of its own, each in its own process
    _processes(monkeypatch, 2)
    g = build_grid(dim=2, shape=(9, 17))
    f = np.cos(np.arange(g.n_nodes) * 0.11)
    forked = _recording_fork(monkeypatch)

    def rung(i):
        before = len(forked)
        export_field_csv(g, {"f": f}, tmp_path / f"{i}.csv")
        pids = driver.ladder_map(lambda x: os.getpid(), range(3))
        return len(forked) - before, pids == [os.getpid()] * 3

    assert driver.ladder_map(rung, range(4)) == [(0, True)] * 4
    assert len(forked) == 1      # the ladder's child, and no other process
    export_field_csv(g, {"f": f}, tmp_path / "here.csv")
    assert len(forked) == 2      # outside a share, the table is split again
    texts = {p.read_bytes() for p in tmp_path.glob("*.csv")}
    assert len(texts) == 1
