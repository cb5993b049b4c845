"""Per-node coordinates of a grid, for tests that evaluate fields at the nodes."""

import numpy as np


def node_coords(g):
    """(n_nodes, dim) coordinates in node order (C order of the axes)."""
    return np.stack([m.ravel() for m in np.meshgrid(*g.axes, indexing="ij")], axis=1)
