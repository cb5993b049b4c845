"""Field writers: CSV and legacy VTK, all through one 17-digit table writer.

A table's rows are built with numpy, a block of rows at a time
(`rowtext.Layout`): every float value as "%.17g" % v prints it, byte for
byte, and every text column from a table of its distinct strings. The bytes
go to the file's binary buffer, without a str for the rows. Coordinate
columns are text columns built from the grid axes: each axis value is
formatted once, not once per node, and gathered by its index. The deformed
writers take only the mapped cross coordinates, because the wall shear
keeps x_n: their axial column is the grid axis too.

A file's tables (a CSV's one, a VTK file's geometry and scalar blocks) are
formatted on every usable CPU as one run of rows: w contiguous shares, w =
min(usable CPUs, the file's float values / MIN_SHARE_VALUES), at least 1,
decided once per file, through the fork pool of `pool` that the stability
ladders use too. A row's text does not depend on its share, so the bytes do
not depend on the CPU count, and the children write to unnamed files, so
nothing but the output is left on disk.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np

from . import pool
from .errors import DomainError
from .grid import Nozzle

# bytes of each of a block's two (rows, row width) buffers, so that the
# buffers and the block's temporaries stay the same size whatever the grid
BLOCK_BYTES = 1 << 18

# float values per process at least: a value costs about 0.2 us to format
# (0.18-0.24 us on solve-2d's fields as VTK, in one process, on a 2-vCPU
# host) and a share's child about 3-4 ms (an empty share of `fork_shares` at
# 40 MiB: 2.9-4.1 ms), so a share of 2^15 values, 6-8 ms, is about two
# children long
MIN_SHARE_VALUES = 1 << 15


class Text(NamedTuple):
    """A text column: row i reads strings[codes.flat[i]], so codes may be a
    broadcast view and each string is formatted once."""
    strings: list
    codes: np.ndarray


def _format_rows(out, layout, columns, start, stop):
    """Rows start:stop of the columns into the binary file out, a block of
    rows per `rowtext.Layout.render`, through one pair of block buffers."""
    block = max(1, BLOCK_BYTES // layout.width)
    chars, kept = layout.buffers(min(block, stop - start))
    for begin in range(start, stop, block):
        out.write(layout.render(columns, begin, min(begin + block, stop), chars, kept))


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


def _append(out, fd):
    """The whole of file fd after what the binary file out holds."""
    out.flush()
    offset = 0
    while sent := os.sendfile(out.fileno(), fd, offset, 1 << 30):
        offset += sent


def _write_tables(fh, tables, sep):
    """(leading text, columns) tables, one after another: each table's text,
    then its columns, of equal length, as rows joined by sep, one character.

    A float column is printed as "%.17g" prints it, by `rowtext`. A text
    column, a `Text`, is printed as it is, and each of its strings is
    encoded once. Every column is read in its `.flat` order, so a text
    column's codes may be a broadcast view. A table may have no columns, and
    so no rows: its text is written alone. The bytes go to fh's binary
    buffer, in fh's encoding.

    The pool width is decided once per file: the rows of all the tables are
    split into w contiguous shares, w = `pool.width` of the file's float
    values over MIN_SHARE_VALUES, and a share's run of rows may cross from
    one table into the next. A table's text is written by the share that
    holds the table's first row (by the last share if the table has no rows
    and ends the file). This process formats share 0 into fh while forked
    child j formats share j into an unnamed file in fh's directory; the
    children's files are then appended in order, and a share whose child did
    not finish is formatted here. A row's text does not depend on its share,
    so the bytes do not depend on w.
    """
    from . import rowtext    # here: only a command that writes a table compiles it
    encoding = fh.encoding
    parts = []           # (first row in the file, rows, text, layout, columns)
    n = n_float = 0
    for text, columns in tables:
        texts, arrays = [], []
        for c in columns:
            if isinstance(c, Text):
                texts.append([s.encode(encoding) for s in c.strings])
                arrays.append(c.codes)
            else:
                texts.append(None)
                arrays.append(np.asarray(c, dtype=float).ravel())
        rows = arrays[0].size if arrays else 0
        parts.append((n, rows, text.encode(encoding),
                      rowtext.Layout(texts, sep.encode(encoding)), arrays))
        n += rows
        n_float += rows * texts.count(None)

    def share(out, start, stop):
        """Rows start:stop of the file, with the texts of the tables they open."""
        for first, rows, text, layout, columns in parts:
            if start <= first < stop or first == stop == n:
                out.write(text)
            lo, hi = max(start, first), min(stop, first + rows)
            if lo < hi:
                _format_rows(out, layout, columns, lo - first, hi - first)

    fh.flush()
    out = fh.buffer
    w = pool.width(n_float // MIN_SHARE_VALUES)
    spills = _unnamed_files(os.path.dirname(fh.name) or ".", w - 1)
    if not spills:
        share(out, 0, n)
        return
    bounds = [n * j // w for j in range(w + 1)]

    def child(j):
        with open(spills[j - 1], "wb", closefd=False) as spill:
            share(spill, bounds[j], bounds[j + 1])

    try:
        _, done = pool.fork_shares(w, child, lambda: share(out, 0, bounds[1]))
        for j in range(1, w):
            if j in done:
                _append(out, spills[j - 1])
            else:
                share(out, bounds[j], bounds[j + 1])
    finally:
        for fd in spills:
            os.close(fd)


def _axis_text(grid: Nozzle, axis, order="C"):
    """Coordinate `axis` of every node as a text column in the given node
    order: the axis values formatted once, and their codes broadcast over
    the grid, not copied."""
    shape = [1] * grid.dim
    shape[axis] = -1
    codes = np.broadcast_to(np.arange(grid.shape[axis]).reshape(shape), grid.shape)
    return Text(["%.17g" % v for v in grid.axes[axis].tolist()],
                codes if order == "C" else codes.T)


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


def open_new(path):
    """path opened for writing as a new file. A file already there is
    unlinked first, not truncated: a truncated file waits for the writeback
    of its old contents, and a new one does not. So a symlink at path is
    replaced, not written through. Every output file is opened here."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "w")


def write_text(path, text):
    """text as a new file at path (`open_new`)."""
    with open_new(path) as fh:
        fh.write(text)


def write_csv(path, columns):
    """(name, values) pairs of equal length as a CSV table with a header row.
    values is a float column or a text column (see `_write_tables`)."""
    names, values = zip(*columns)
    with open_new(path) as fh:
        _write_tables(fh, [(",".join(names) + "\n", values)], ",")


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
    with open_new(path) as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
                 f"DATASET {dataset}\nDIMENSIONS {dims}\n")
        _write_tables(fh, [*geometry, (f"POINT_DATA {grid.n_nodes}\n", []),
                           *((f"SCALARS {name} double 1\nLOOKUP_TABLE default\n", [column])
                             for name, column in scalars.items())], " ")


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
    points = [*_cross_columns(grid, cross, "F"), _axis_text(grid, grid.dim - 1, "F")]
    points += [Text(["0"], np.broadcast_to(0, grid.shape))] * (3 - grid.dim)
    _write_vtk(grid, path, "deformed nozzle", "STRUCTURED_GRID",
               [(f"POINTS {grid.n_nodes} double\n", points)], fields)
