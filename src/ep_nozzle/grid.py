"""Structured grids on the cylindrical nozzle and nodal difference operators.

The nozzle is a box cross-section times the axial interval (0, L), with the
axial axis last. A grid is a tensor product, so it keeps only its 1D axes:
nodes are numbered in C order of `shape`, the entrance and the exit are the
planes of axial index 0 and n_axial - 1, the wall is the first and last
index of each cross axis, and the interior is the `[1:-1]` box. A boundary
piece of a nodal field is a view of it (`face`), never a set of node
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError

# nodes per slab (`slabs`): the temporaries of a pass over the slabs scale
# with a slab, not with the grid. A slab's arrays stay above glibc's default
# mmap threshold (128 KiB), so their pages go back to the system when freed:
# at 1 << 14 the peak RSS of a 160x320 solve was 1.9 MB higher
SLAB_NODES = 1 << 15


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

    def face(self, field, axis, side):
        """A nodal field (N, ...) on the face of the box at index side (0 or
        -1) of axis, shaped (other axes..., ...); another index gives the
        plane of nodes that far in. The exit is face(field, -1, -1). A view:
        writing to it writes a contiguous field."""
        field = np.asarray(field)
        box = field.reshape(self.shape + field.shape[1:])
        return box[(slice(None),) * (axis % self.dim) + (side,)]

    def rows(self, rows):
        """The nodes at rows (a slice) of cross axis 0 as a grid of their own,
        at the same spacing: its nodal fields are the `slab(field, rows)` of
        the grid's, and a nodal stencil on it reads these nodes only. Its
        faces on axis 0 are walls only where rows reach them."""
        axis0 = self.axes[0][rows]
        return replace(self, shape=(axis0.size,) + self.shape[1:],
                       axes=(axis0,) + self.axes[1:])

    def slab(self, field, rows):
        """The nodes of a nodal field (N, ...) at rows (a slice) of cross axis
        0, a contiguous view: the field on the grid `rows(rows)`."""
        field = np.asarray(field)
        tail = field.shape[1:]
        return field.reshape((self.shape[0], -1) + tail)[rows].reshape((-1,) + tail)


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


def slabs(grid: Nozzle, axis, halo=0):
    """The slabs of about SLAB_NODES nodes across one axis, in order.

    Yields (rows, own) per slab: rows, a slice of the axis, is the slab
    widened by up to halo rows on each side, within the grid, and own, a
    slice of rows, is the slab itself. A slab is at least four times as wide
    as its two halos, so the halo rows add at most a quarter to the work of a
    pass over the slabs (`walk`).
    """
    n = grid.shape[axis]
    step = max(1, SLAB_NODES * n // grid.n_nodes, 8 * halo)
    for start in range(0, n, step):
        stop = min(start + step, n)
        lo, hi = max(start - halo, 0), min(stop + halo, n)
        yield slice(lo, hi), slice(start - lo, stop - lo)


def walk(grid: Nozzle, part, halo=0):
    """A pass over the `slabs` of cross axis 0: part(sub, rows, own, fold) per
    slab, sub = grid.rows(rows). fold(name, values) folds np.max(values), if
    values has any, into the pass's maximum of that name (nan if one is nan).
    The own rows of a nodal field of sub that part returns, scalar or stacked
    ([v; W]), go into the pass's field, part's own array if one slab covers
    the grid. Returns (maxima by name, field or None). A max over overlapping
    rows is exact and only own rows are written, so a part that reaches at
    most halo rows across gives the pass the whole grid's bits."""
    maxima, field = {}, None

    def fold(name, values):
        if np.size(values):
            top = np.max(values)
            maxima[name] = np.maximum(maxima.get(name, top), top)

    for rows, own in slabs(grid, 0, halo):
        out = part(sub := grid.rows(rows), rows, own, fold)
        if out is None or own == slice(0, grid.shape[0]):
            field = field if out is None else out
            continue
        if field is None:
            field = np.empty(out.size // sub.n_nodes * grid.n_nodes)
        field.reshape((-1,) + grid.shape)[:, rows][:, own] = out.reshape((-1,) + sub.shape)[:, own]
    return maxima, field


def gradient(grid: Nozzle, field, rows=slice(None)) -> np.ndarray:
    """Nodal gradient at the axes' spacing: central interior, one-sided second
    order at boundaries.

    rows, a slice of cross axis 0, gives the gradient on the nodes at those
    rows only, (nodes of `grid.rows(rows)`, d), formed from the field there
    and one row beyond each side (two at a wall): a central difference
    reaches one row across and the one-sided rule at a wall two rows in, so
    the rows get the whole grid's bits."""
    field = np.asarray(field, dtype=float)
    if field.size != grid.n_nodes:
        raise DomainError("field does not conform to the grid")
    n0 = grid.shape[0]
    lo, hi, _ = rows.indices(n0)
    # the rows and one row each side, and at least the three rows of the wall rule
    wlo, whi = max(lo - 1, 0), min(hi + 1, n0)
    wlo, whi = min(wlo, max(whi - 3, 0)), max(whi, min(wlo + 3, n0))
    wide = grid.rows(slice(wlo, whi))
    box = grid.slab(field, slice(wlo, whi))
    if not np.all(np.isfinite(box)):
        raise DomainError("field must be finite")
    box = box.reshape(wide.shape)
    # one axis at a time, so one component is in flight besides the result
    out = np.empty((wide.n_nodes, grid.dim))
    for a, h in enumerate(grid.spacing):
        out[:, a] = np.gradient(box, h, axis=a, edge_order=2).ravel()
    return wide.slab(out, slice(lo - wlo, hi - wlo))


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
