"""Structured grids on the cylindrical nozzle and nodal difference operators.

The nozzle is a box cross-section times the axial interval (0, L), with the
axial axis last. A grid is a tensor product, so it keeps only its 1D axes:
nodes are numbered in C order of `shape`, the entrance and the exit are the
planes of axial index 0 and n_axial - 1, the wall is the first and last
index of each cross axis, and the interior is the `[1:-1]` box. A boundary
piece of a nodal field is a view of it (`face`, `interior`), never a set of
node numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Nozzle:
    dim: int
    cross_extents: tuple
    L: float
    shape: tuple
    axes: tuple      # one 1D coordinate array per axis, axial last
    spacing: tuple   # one step per axis, the metric of every nodal stencil

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    def cross_shape(self):
        return self.shape[:-1]

    def sections(self, field):
        """A nodal field (N, ...) viewed as (n_cross, n_axial, ...).

        C order puts the axial index last, so this is a reshape, and an axial
        profile (n_axial, ...) broadcasts against the view.
        """
        field = np.asarray(field)
        return field.reshape((-1, self.shape[-1]) + field.shape[1:])

    def _box(self, field):
        """A nodal field (N, ...) viewed as (*shape, ...)."""
        field = np.asarray(field)
        return field.reshape(self.shape + field.shape[1:])

    def face(self, field, axis, side):
        """A nodal field (N, ...) on the face of the box at index side (0 or
        -1) of axis, shaped (other axes..., ...); another index gives the
        plane of nodes that far in. The exit is face(field, -1, -1). A view:
        writing to it writes a contiguous field."""
        return self._box(field)[(slice(None),) * (axis % self.dim) + (side,)]

    def interior(self, field):
        """A nodal field (N, ...) on the interior `[1:-1]` box, as a view."""
        return self._box(field)[(slice(1, -1),) * self.dim]


def build_grid(dim=2, cross_extents=((0.0, 1.0),), L=1.0, shape=(33, 65)) -> Nozzle:
    if dim not in (2, 3):
        raise DomainError("dim must be 2 or 3")
    if len(cross_extents) != dim - 1 or len(shape) != dim:
        raise DomainError("cross_extents/shape inconsistent with dim")
    if L <= 0.0:
        raise DomainError("nozzle length must be positive")
    if any(n < 8 for n in shape):
        raise DomainError("need at least 8 nodes per axis")
    for lo, hi in cross_extents:
        if not hi > lo:
            raise DomainError("degenerate cross-section extents")

    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(cross_extents, shape[:-1])]
    axes.append(np.linspace(0.0, L, shape[-1]))
    spacing = tuple(float(ax[1] - ax[0]) for ax in axes)
    for a, h in enumerate(spacing):
        # the stencils divide by h^2 and the wall check scales by h^3
        if not all(0.0 < p < np.inf for p in (h * h, h * h * h)):
            raise DomainError(f"grid step {h:.3g} of axis {a} is out of range "
                              f"(its square or cube is not a positive finite float)")
    return Nozzle(
        dim=dim,
        cross_extents=tuple(tuple(map(float, e)) for e in cross_extents),
        L=float(L),
        shape=tuple(int(n) for n in shape),
        axes=tuple(axes),
        spacing=spacing,
    )


def gradient(grid: Nozzle, field) -> np.ndarray:
    """Nodal gradient at the axes' spacing: central interior, one-sided second
    order at boundaries."""
    field = np.asarray(field, dtype=float)
    if field.size != grid.n_nodes:
        raise DomainError("field does not conform to the grid")
    if not np.all(np.isfinite(field)):
        raise DomainError("field must be finite")
    box = field.reshape(grid.shape)
    # one axis at a time, so one component is in flight besides the result
    out = np.empty((grid.n_nodes, grid.dim))
    for a, h in enumerate(grid.spacing):
        out[:, a] = np.gradient(box, h, axis=a, edge_order=2).ravel()
    return out


def normal_derivative(grid: Nozzle, field, axis, side) -> np.ndarray:
    """Component axis of `gradient(grid, field)` on the face at index side
    (0 or -1) of that axis, from the three nodes next to the face alone:
    np.gradient's second-order edge formula at the axis's spacing."""
    h = grid.spacing[axis]
    near = [grid.face(field, axis, i) for i in ((0, 1, 2) if side == 0 else (-3, -2, -1))]
    a, b, c = (-1.5 / h, 2.0 / h, -0.5 / h) if side == 0 else (0.5 / h, -2.0 / h, 1.5 / h)
    return a * near[0] + b * near[1] + c * near[2]


def corner_distance(grid: Nozzle) -> np.ndarray:
    """Distance to the corner set (entrance/exit rings of the wall).

    Each axis contributes a 1D distance; they meet by broadcasting over the
    open mesh of the axes.
    """
    *cross, xn = np.meshgrid(*grid.axes, indexing="ij", sparse=True)
    axial = np.minimum(np.abs(xn), np.abs(grid.L - xn))
    lateral = np.inf
    for x, (lo, hi) in zip(cross, grid.cross_extents):
        lateral = np.minimum(lateral, np.minimum(np.abs(x - lo), np.abs(hi - x)))
    return np.sqrt(lateral ** 2 + axial ** 2).ravel()
