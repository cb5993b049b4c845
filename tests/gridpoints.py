"""Grid helpers for tests: per-node coordinates, for tests that evaluate
fields at the nodes, and one-row slabs, for tests that a pass over the slabs
changes no bit."""

import numpy as np


def node_coords(g):
    """(n_nodes, dim) coordinates in node order (C order of the axes)."""
    return np.stack([m.ravel() for m in np.meshgrid(*g.axes, indexing="ij")], axis=1)


def one_row_slabs(grid, axis, halo=0):
    """`grid.slabs` with every row a slab of its own."""
    n = grid.shape[axis]
    for start in range(n):
        lo, hi = max(start - halo, 0), min(start + 1 + halo, n)
        yield slice(lo, hi), slice(start - lo, start + 1 - lo)
