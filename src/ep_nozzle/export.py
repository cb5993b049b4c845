"""Field writers: CSV and legacy VTK, all through one 17-digit table writer.

Coordinate columns are text columns built from the grid axes: each axis
value is formatted once, not once per node. The deformed writers take only
the mapped cross coordinates, because the wall shear keeps x_n: their axial
column is the grid axis too.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .grid import Nozzle

# rows per `%` call: bounds the size of the temporary strings
BLOCK_ROWS = 4096


def _write_table(fh, columns, sep):
    """Columns of equal length as rows joined by sep.

    A float column is printed with "%.17g". A text column (an object array of
    str) is printed as it is, so a value formatted once may serve many rows.
    Every column is read in its `.flat` order, BLOCK_ROWS rows at a time, so
    a text column may be a broadcast view of a few strings: it is never
    expanded to one object per row.
    """
    columns = [c if isinstance(c, np.ndarray) and c.dtype == object
               else np.asarray(c, dtype=float).ravel() for c in columns]
    row = sep.join("%s" if c.dtype == object else "%.17g" for c in columns) + "\n"
    n, k = columns[0].size, len(columns)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        values = [None] * ((stop - start) * k)
        for j, c in enumerate(columns):
            values[j::k] = c.flat[start:stop].tolist()
        fh.write(row * (stop - start) % tuple(values))


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
