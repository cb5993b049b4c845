"""Field writers: CSV and legacy VTK."""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .grid import Nozzle

FLOAT_FMT = ".17g"


def _fmt(x):
    return format(float(x), FLOAT_FMT)


def export_field_csv(grid: Nozzle, fields: dict, path, coords=None):
    """Nodal fields as CSV with coordinate columns first.

    coords overrides the grid coordinates (used for deformed-domain output).
    """
    pts = grid.coords if coords is None else np.asarray(coords, dtype=float)
    names = ["x", "y", "z"][: grid.dim]
    cols = [pts[:, a] for a in range(grid.dim)]
    for name, values in fields.items():
        values = np.asarray(values, dtype=float)
        if values.size != grid.n_nodes:
            raise DomainError(f"field {name} does not conform to the grid")
        names.append(name)
        cols.append(values.ravel())
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*cols):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _vtk_dims(grid: Nozzle):
    if grid.dim == 2:
        return (grid.shape[0], grid.shape[1], 1)
    return (grid.shape[0], grid.shape[1], grid.shape[2])


def export_field_vtk(grid: Nozzle, fields: dict, path):
    """Legacy ASCII structured-points file on the reference grid."""
    dims = _vtk_dims(grid)
    origin = [grid.axes[a][0] for a in range(grid.dim)] + [0.0] * (3 - grid.dim)
    spacing = list(grid.spacing) + [1.0] * (3 - grid.dim)
    n = grid.n_nodes
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("nozzle fields\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}\n")
        fh.write(f"ORIGIN {_fmt(origin[0])} {_fmt(origin[1])} {_fmt(origin[2])}\n")
        fh.write(f"SPACING {_fmt(spacing[0])} {_fmt(spacing[1])} {_fmt(spacing[2])}\n")
        fh.write(f"POINT_DATA {n}\n")
        for name, values in fields.items():
            values = np.asarray(values, dtype=float)
            if values.size != n:
                raise DomainError(f"field {name} does not conform to the grid")
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            # VTK wants the first axis varying fastest
            for v in values.reshape(grid.shape).ravel(order="F"):
                fh.write(_fmt(v) + "\n")


def export_deformed_vtk(grid: Nozzle, coords, fields: dict, path):
    """Legacy ASCII structured-grid file with deformed node positions."""
    dims = _vtk_dims(grid)
    pts = np.asarray(coords, dtype=float)
    n = grid.n_nodes
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("deformed nozzle\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_GRID\n")
        fh.write(f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}\n")
        fh.write(f"POINTS {n} double\n")
        order = np.arange(n).reshape(grid.shape).ravel(order="F")
        for k in order:
            xyz = list(pts[k]) + [0.0] * (3 - grid.dim)
            fh.write(" ".join(_fmt(v) for v in xyz) + "\n")
        fh.write(f"POINT_DATA {n}\n")
        for name, values in fields.items():
            values = np.asarray(values, dtype=float).ravel()
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for k in order:
                fh.write(_fmt(values[k]) + "\n")
