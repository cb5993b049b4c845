"""Grid helpers for tests: per-node coordinates (the checks' own), for tests
that evaluate fields at the nodes, and one-row slabs, for tests that a pass
over the slabs changes no bit."""

from ep_nozzle.checks import node_coords  # noqa: F401


def one_row_slabs(grid, axis, halo=0):
    """`grid.slabs` with every row a slab of its own."""
    n = grid.shape[axis]
    for start in range(n):
        lo, hi = max(start - halo, 0), min(start + 1 + halo, n)
        yield slice(lo, hi), slice(start - lo, start + 1 - lo)
