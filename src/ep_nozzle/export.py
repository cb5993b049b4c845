"""Field writers: CSV and legacy VTK, all through one 17-digit table writer.

Coordinate columns are text columns built from the grid axes: each axis
value is formatted once, not once per node. The deformed writers take only
the mapped cross coordinates, because the wall shear keeps x_n: their axial
column is the grid axis too.

A table's rows are formatted on every usable CPU: w contiguous shares, w =
min(usable CPUs, float values / MIN_SHARE_VALUES), at least 1, through the
fork pool of `pool` that the stability ladders use too. A row's text does
not depend on its share, so the bytes do not depend on the CPU count, and
the children write to unnamed files, so nothing but the output is left on
disk.
"""

from __future__ import annotations

import os

import numpy as np

from . import pool
from .errors import DomainError
from .grid import Nozzle

# rows per `%` call: bounds the size of the temporary strings
BLOCK_ROWS = 4096

# float values per process at least: a fork costs about 2-3 ms at 40 MiB
# and "%.17g" about 0.6 us per value, so a share is several forks long
MIN_SHARE_VALUES = 1 << 15


def _format_rows(fh, row, columns, start, stop):
    """Rows start:stop of the columns, BLOCK_ROWS rows per `%` call."""
    k = len(columns)
    for begin in range(start, stop, BLOCK_ROWS):
        end = min(begin + BLOCK_ROWS, stop)
        values = [None] * ((end - begin) * k)
        for j, c in enumerate(columns):
            values[j::k] = c.flat[begin:end].tolist()
        fh.write(row * (end - begin) % tuple(values))


def _unnamed_files(directory, count):
    """count unnamed temporary files in directory (Linux's O_TMPFILE): they
    have no name, so nothing is left on disk whatever happens. [] where the
    platform or the file system makes none."""
    fds = []
    try:
        for _ in range(count):
            fds.append(os.open(directory, os.O_TMPFILE | os.O_RDWR, 0o600))
    except (AttributeError, OSError):   # no O_TMPFILE here, or no such file
        for fd in fds:
            os.close(fd)
        return []
    return fds


def _append(fh, fd):
    """The whole of file fd after what fh holds."""
    fh.flush()
    offset = 0
    while sent := os.sendfile(fh.fileno(), fd, offset, 1 << 30):
        offset += sent


def _write_table(fh, columns, sep):
    """Columns of equal length as rows joined by sep.

    A float column is printed with "%.17g". A text column (an object array of
    str) is printed as it is, so a value formatted once may serve many rows.
    Every column is read in its `.flat` order, BLOCK_ROWS rows at a time, so
    a text column may be a broadcast view of a few strings: it is never
    expanded to one object per row.

    The rows are split into w contiguous shares, w = `pool.width` of the
    float values over MIN_SHARE_VALUES. This process formats share 0 into fh
    while forked child j formats share j into an unnamed file in fh's
    directory; the children's files are then appended in order, and a share
    whose child did not finish is formatted here. A row's text does not
    depend on its share, so the bytes do not depend on w.
    """
    columns = [c if isinstance(c, np.ndarray) and c.dtype == object
               else np.asarray(c, dtype=float).ravel() for c in columns]
    row = sep.join("%s" if c.dtype == object else "%.17g" for c in columns) + "\n"
    n = columns[0].size
    n_float = sum(c.dtype != object for c in columns)
    w = pool.width(n * n_float // MIN_SHARE_VALUES)
    spills = _unnamed_files(os.path.dirname(fh.name) or ".", w - 1)
    if not spills:
        _format_rows(fh, row, columns, 0, n)
        return
    bounds = [n * j // w for j in range(w + 1)]

    def child(j):
        with open(spills[j - 1], "w", encoding=fh.encoding, closefd=False) as out:
            _format_rows(out, row, columns, bounds[j], bounds[j + 1])

    try:
        _, done = pool.fork_shares(
            w, child, lambda: _format_rows(fh, row, columns, 0, bounds[1]))
        for j in range(1, w):
            if j in done:
                _append(fh, spills[j - 1])
            else:
                _format_rows(fh, row, columns, bounds[j], bounds[j + 1])
    finally:
        for fd in spills:
            os.close(fd)


def _axis_text(grid: Nozzle, axis):
    """Coordinate `axis` of every node as a text column in C node order: the
    axis values formatted once and broadcast over the grid, not copied."""
    shape = [1] * grid.dim
    shape[axis] = -1
    text = np.array(["%.17g" % v for v in grid.axes[axis].tolist()], dtype=object)
    return np.broadcast_to(text.reshape(shape), grid.shape)


def _conforming(grid: Nozzle, name, values, order="C"):
    """One value per node, flattened in the given node order."""
    values = np.asarray(values, dtype=float)
    if values.size != grid.n_nodes:
        raise DomainError(f"field {name} does not conform to the grid")
    return values.reshape(grid.shape).ravel(order=order)


def _cross_columns(grid: Nozzle, cross, order):
    """Deformed cross coordinates (n_nodes, dim - 1) as float columns."""
    cross = np.asarray(cross, dtype=float)
    if cross.shape != (grid.n_nodes, grid.dim - 1):
        raise DomainError(f"deformed cross coordinates must have shape "
                          f"({grid.n_nodes}, {grid.dim - 1}); the axial one is the grid's")
    return [col.reshape(grid.shape).ravel(order=order) for col in cross.T]


def write_csv(path, columns):
    """(name, values) pairs of equal length as a CSV table with a header row.
    values is a float column or a text column (see `_write_table`)."""
    names, values = zip(*columns)
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        _write_table(fh, values, ",")


def export_field_csv(grid: Nozzle, fields: dict, path, cross=None):
    """Nodal fields as CSV with coordinate columns first.

    cross, the deformed cross coordinates (n_nodes, dim - 1) in node order,
    replaces the reference cross coordinates (deformed-domain output). The
    axial column is always the grid axis.
    """
    names = "xyz"[: grid.dim]
    coords = [_axis_text(grid, a) for a in range(grid.dim)]
    if cross is not None:
        coords[:-1] = _cross_columns(grid, cross, "C")
    write_csv(path, [*zip(names, coords),
                     *((name, _conforming(grid, name, v)) for name, v in fields.items())])


def _write_vtk(grid: Nozzle, path, title, dataset, geometry, fields):
    """Legacy ASCII file: header, geometry, then one scalar block per field.

    geometry is a list of (leading text, columns) sections. Every field is
    checked before the file is opened.
    """
    # VTK wants the first axis varying fastest
    scalars = {name: _conforming(grid, name, v, order="F") for name, v in fields.items()}
    dims = " ".join(map(str, tuple(grid.shape) + (1,) * (3 - grid.dim)))
    with open(path, "w") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
                 f"DATASET {dataset}\nDIMENSIONS {dims}\n")
        for text, columns in geometry:
            fh.write(text)
            _write_table(fh, columns, " ")
        fh.write(f"POINT_DATA {grid.n_nodes}\n")
        for name, column in scalars.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            _write_table(fh, [column], " ")


def export_field_vtk(grid: Nozzle, fields: dict, path):
    """Legacy ASCII structured-points file on the reference grid."""
    pad = 3 - grid.dim
    origin = [axis[0] for axis in grid.axes] + [0.0] * pad
    spacing = list(grid.spacing) + [1.0] * pad
    _write_vtk(grid, path, "nozzle fields", "STRUCTURED_POINTS",
               [("ORIGIN ", origin), ("SPACING ", spacing)], fields)


def export_deformed_vtk(grid: Nozzle, cross, fields: dict, path):
    """Legacy ASCII structured-grid file with deformed node positions.

    cross holds the deformed cross coordinates (n_nodes, dim - 1) in node
    order; the axial coordinate is the grid axis. A 2D grid gets z = 0.
    """
    # the transposed view reads the axial text in F order, the first axis fastest
    points = [*_cross_columns(grid, cross, "F"), _axis_text(grid, grid.dim - 1).T]
    points += [np.broadcast_to(np.array("0", dtype=object), grid.shape)] * (3 - grid.dim)
    _write_vtk(grid, path, "deformed nozzle", "STRUCTURED_GRID",
               [(f"POINTS {grid.n_nodes} double\n", points)], fields)
