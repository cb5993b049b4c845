"""Field writers: CSV and legacy VTK, all through one 17-digit table writer."""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .grid import Nozzle

# rows per `%` call: bounds the size of the temporary strings
BLOCK_ROWS = 4096


def _write_table(fh, columns, sep):
    """Columns of equal length as rows of "%.17g" values joined by sep."""
    columns = [np.asarray(c, dtype=float).ravel() for c in columns]
    row = sep.join(["%.17g"] * len(columns)) + "\n"
    for start in range(0, columns[0].size, BLOCK_ROWS):
        block = np.column_stack([c[start:start + BLOCK_ROWS] for c in columns])
        fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _conforming(grid: Nozzle, name, values, order="C"):
    """One value per node, flattened in the given node order."""
    values = np.asarray(values, dtype=float)
    if values.size != grid.n_nodes:
        raise DomainError(f"field {name} does not conform to the grid")
    return values.reshape(grid.shape).ravel(order=order)


def write_csv(path, columns):
    """(name, values) pairs of equal length as a CSV table with a header row."""
    names, values = zip(*columns)
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        _write_table(fh, values, ",")


def export_field_csv(grid: Nozzle, fields: dict, path, coords=None):
    """Nodal fields as CSV with coordinate columns first.

    coords overrides the grid coordinates (used for deformed-domain output).
    """
    pts = grid.coords if coords is None else np.asarray(coords, dtype=float)
    columns = [*zip("xyz", pts.T[: grid.dim]), *fields.items()]
    write_csv(path, [(name, _conforming(grid, name, v)) for name, v in columns])


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


def export_deformed_vtk(grid: Nozzle, coords, fields: dict, path):
    """Legacy ASCII structured-grid file with deformed node positions."""
    pts = np.asarray(coords, dtype=float)
    points = [_conforming(grid, name, col, order="F")
              for name, col in zip("xyz", pts.T[: grid.dim])]
    points += [np.zeros(grid.n_nodes)] * (3 - grid.dim)
    _write_vtk(grid, path, "deformed nozzle", "STRUCTURED_GRID",
               [(f"POINTS {grid.n_nodes} double\n", points)], fields)
