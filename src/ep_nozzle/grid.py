"""Structured grids on the cylindrical nozzle and nodal difference operators.

The nozzle is a box cross-section times the axial interval (0, L), with the
axial axis last. Boundary nodes carry exactly one tag: entrance, exit, wall,
or corner (the closed entrance/exit rings meeting the wall).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TAG_INTERIOR = 0
TAG_GAMMA0 = 1
TAG_GAMMAL = 2
TAG_GAMMAW = 3
TAG_CORNER = 4


@dataclass(frozen=True)
class Nozzle:
    dim: int
    cross_extents: tuple
    L: float
    shape: tuple
    axes: tuple
    spacing: tuple
    coords: np.ndarray  # (n_nodes, dim), C-order flattening of shape
    tags: np.ndarray
    gamma0: np.ndarray  # closed entrance plane (includes corner ring)
    gammaL: np.ndarray  # closed exit plane
    wall: np.ndarray    # closed wall, includes corner rings
    corner: np.ndarray

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
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)

    idx = np.indices(shape)
    on_gamma0 = (idx[-1] == 0).ravel()
    on_gammaL = (idx[-1] == shape[-1] - 1).ravel()
    on_wall = np.zeros(int(np.prod(shape)), dtype=bool)
    for a in range(dim - 1):
        on_wall |= ((idx[a] == 0) | (idx[a] == shape[a] - 1)).ravel()
    corner = (on_gamma0 | on_gammaL) & on_wall

    tags = np.full(int(np.prod(shape)), TAG_INTERIOR, dtype=np.int8)
    tags[on_wall] = TAG_GAMMAW
    tags[on_gamma0 & ~on_wall] = TAG_GAMMA0
    tags[on_gammaL & ~on_wall] = TAG_GAMMAL
    tags[corner] = TAG_CORNER

    return Nozzle(
        dim=dim,
        cross_extents=tuple(tuple(map(float, e)) for e in cross_extents),
        L=float(L),
        shape=tuple(int(n) for n in shape),
        axes=tuple(axes),
        spacing=spacing,
        coords=coords,
        tags=tags,
        gamma0=on_gamma0,
        gammaL=on_gammaL,
        wall=on_wall,
        corner=corner,
    )


def gradient(grid: Nozzle, field) -> np.ndarray:
    """Nodal gradient: central interior, one-sided second order at boundaries."""
    field = np.asarray(field, dtype=float)
    if field.size != grid.n_nodes:
        raise DomainError("field does not conform to the grid")
    if not np.all(np.isfinite(field)):
        raise DomainError("field must be finite")
    parts = np.gradient(field.reshape(grid.shape), *grid.axes, edge_order=2)
    return np.stack([p.ravel() for p in parts], axis=1)


def interior_mask(grid: Nozzle) -> np.ndarray:
    return grid.tags == TAG_INTERIOR


def corner_distance(grid: Nozzle) -> np.ndarray:
    """Distance to the corner set (entrance/exit rings of the wall)."""
    xn = grid.coords[:, -1]
    axial = np.minimum(np.abs(xn), np.abs(grid.L - xn))
    lateral = np.inf
    for a, (lo, hi) in enumerate(grid.cross_extents):
        x = grid.coords[:, a]
        lateral = np.minimum(lateral, np.minimum(np.abs(x - lo), np.abs(hi - x)))
    return np.sqrt(lateral ** 2 + axial ** 2)
