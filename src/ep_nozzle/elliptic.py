"""Assembly and direct solution of one linearized mixed boundary-value problem.

The bilinear form is the cell-corner (trapezoid) quadrature of the weak
integrals with per-cell edge-difference gradients. Coefficients are sampled
at the quadrature points, which coincide with grid nodes, so the coupling
cancellation between the two equations and the coercivity bound hold
algebraically on the discrete level, not just in the refinement limit.

The coefficients are the entries of one `coeffs.derivatives` call at the
one-dimensional background (the linearization `verify` checks and the Taylor
remainders expand about), stored as axial profiles, one value per axial node:
they depend on the axial coordinate only by construction, and the coupling is
purely axial.

Unknown layout: stacked vector [v; W] over all nodes. Dirichlet rows (v on
the entrance plane, W on both end planes) are identity rows whose right-hand
side holds the data: 0 for v, the end-plane values for W. Their columns stay
in the operator, so the data reach the free rows through the solve itself.

Direct solve: the grid is a tensor product and the coefficients are axial
profiles, so K is separable. On each cross axis the DCT-I
cosines V are the generalized eigenvectors of the 1D Neumann stiffness
against the trapezoid mass T, with V^T T V = I. Mapping every cross-section
to these modes (V^T on free rows, V^T T = V^-1 on the identity rows, which
are whole end planes) leaves one 2 n_axial system per cross mode (Hockney,
J. ACM 12 (1965)). With the unknowns of axial node k interleaved as
x_k = (v_k, W_k), each mode system is block tridiagonal with 2x2 blocks.
The axial blocks are shared by all modes; a mode adds its cross eigenvalue
times the axial mass to the diagonal blocks. Of the block LU without
pivoting (Varah, Math. Comp. 26 (1972)), run from both ends of the axis
(`_fold`), only the inverted pivot blocks are kept, factored once per
operator in one pass; each solve runs the two-ended sweeps over them and
the shared axial blocks in the layout (n_axial, 2, *cross), nodes folded.
The free rows are positive real, so no pivot block vanishes in exact
arithmetic, and the solve's residual guards the rounding.

The assembled sparse K and the per-point quadrature maps are the reference:
they are built on first use, for the quadratic form, the coercivity check
and the sparse-LU cross-checks, and no command's solve builds them. Only
they broadcast the profiles back to the quadrature points. The axial
operator is built once, as the 2x2 blocks the mode systems share
(`_axial_blocks`): the factorization and the sweeps read them, and the
solve's residual (`apply_operator`) applies them along the axis, with the
cross-section stiffness from the quadrature's edge weights. The right-hand
side applies the corner rule with slices and face views (`Nozzle.face`). No
command's solve imports scipy.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from . import coeffs as cf
from . import grid as gridmod
from .errors import DomainError, NotSubsonicError, SingularAssemblyError
from .gas import GasLaw
from .grid import Nozzle
from .ode1d import BackgroundSolution


def splu(A):
    """Sparse LU of A (`scipy.sparse.linalg.splu`), the reference the separable
    solve is checked against. Imported on the first call: no command but
    `verify` factors K, and the package costs most of the start-up time."""
    from scipy.sparse.linalg import splu as sparse_lu
    return sparse_lu(A)


# ---------------------------------------------------------------------------
# quadrature over cells (corner rule) and boundary faces (trapezoid rule)


@dataclass(frozen=True)
class Quadrature:
    """The weights of the corner rule, as products of 1D trapezoid weights.

    Eager: the weights the solve path applies with slices and face views of
    the nodal fields (`Nozzle.face`). The nodal mass is exit_w ⊗ tau. Built
    on first use and then kept: the per-point maps `qnode`, `w`, `G` and
    `P`, the independent reference that the CSR blocks of K,
    `cross_term_sum` and the tests read.
    """

    grid: Nozzle
    edge_w: tuple            # per axis a: trapezoid mass of the other axes, 1 along a
    exit_w: np.ndarray       # trapezoid mass of the cross-section, (cross shape)
    tau: np.ndarray          # trapezoid weights of the axial axis
    wall_faces: tuple        # (axis, side, outward sign, surface weights) per wall face

    def rows(self, rows):
        """The weights on the nodes at rows (a slice) of cross axis 0, for the
        grid of those rows (`Nozzle.rows`): views of this quadrature's, so
        each row keeps the whole grid's weights. Its faces of axis 0 are
        the rows' first and last rows, walls or not."""
        edge_w = tuple(w if a == 0 else w[rows] for a, w in enumerate(self.edge_w))
        faces = tuple((a, side, sign, fw if a == 0 else fw[rows])
                      for a, side, sign, fw in self.wall_faces)
        return Quadrature(grid=self.grid.rows(rows), edge_w=edge_w, exit_w=self.exit_w[rows],
                          tau=self.tau, wall_faces=faces)

    @functools.cached_property
    def qnode(self):
        """Node index of each quadrature point."""
        _, _, base, offset = _corner_layout(self.grid.shape)
        return (base[:, None] + offset).ravel()

    @functools.cached_property
    def w(self):
        """Quadrature weights, one per point."""
        n_corners = 2 ** self.grid.dim
        return np.full(self.qnode.size, float(np.prod(self.grid.spacing)) / n_corners)

    @functools.cached_property
    def G(self):
        """Per-axis gradient maps, (nq x N) CSR: each row of G[a] is (-1/h, +1/h)
        on the cell edge through its point along axis a, the minus node, then
        the plus node one stride further."""
        import scipy.sparse as sp

        corners, stride, base, offset = _corner_layout(self.grid.shape)
        nq, n_nodes = self.qnode.size, self.grid.n_nodes
        G = []
        for a in range(self.grid.dim):
            minus = (base[:, None] + (offset - corners[:, a] * stride[a])).ravel()
            inv_h = 1.0 / self.grid.spacing[a]
            G.append(sp.csr_matrix(
                (np.tile([-inv_h, inv_h], nq),
                 np.stack([minus, minus + stride[a]], axis=1).ravel(),
                 np.arange(0, 2 * nq + 1, 2)),
                shape=(nq, n_nodes),
            ))
        return tuple(G)

    @functools.cached_property
    def P(self):
        """Nodal sampling at the quadrature points, (nq x N) CSR."""
        import scipy.sparse as sp

        nq = self.qnode.size
        return sp.csr_matrix((np.ones(nq), self.qnode, np.arange(nq + 1)),
                             shape=(nq, self.grid.n_nodes))


def _corner_layout(shape):
    """Quadrature point q = cell * 2^d + corner sits on node base[cell] +
    offset[corner]; returns the corners, the node strides, base and offset."""
    d = len(shape)
    corners = np.array(list(itertools.product((0, 1), repeat=d)))   # (2^d, d)
    stride = np.array([int(np.prod(shape[a + 1:])) for a in range(d)])
    base = np.arange(int(np.prod(shape))).reshape(shape)[(slice(-1),) * d].ravel()
    return corners, stride, base, corners @ stride


def _face_weights(grid: Nozzle, axes_used):
    weight = np.ones(1)
    for a in axes_used:
        n = grid.shape[a]
        tr = np.full(n, grid.spacing[a])
        tr[0] *= 0.5
        tr[-1] *= 0.5
        weight = np.multiply.outer(weight, tr).ravel()
    return weight


def build_quadrature(grid: Nozzle) -> Quadrature:
    d = grid.dim
    shape = grid.shape
    # the corner rule summed over the cells around an edge along axis a gives
    # the edge the weight h_a times the trapezoid mass of the other axes, the
    # surface weights of the faces normal to axis a
    edge_w = tuple(
        _face_weights(grid, [b for b in range(d) if b != a]).reshape(
            [1 if b == a else n for b, n in enumerate(shape)])
        for a in range(d)
    )
    faces = tuple((a, side, sign, edge_w[a][_along(a, 0)])
                  for a in range(d - 1) for side, sign in ((0, -1.0), (-1, 1.0)))
    return Quadrature(grid=grid, edge_w=edge_w, exit_w=edge_w[-1][..., 0],
                      tau=_face_weights(grid, [d - 1]), wall_faces=faces)


# ---------------------------------------------------------------------------
# frozen linearization coefficients on the grid


@dataclass(frozen=True)
class BackgroundCoeffs:
    """Background fields and linearization coefficients as axial profiles.

    Every array holds one entry per axial node (leading dimension n_axial);
    a nodal field viewed as (n_cross, n_axial, ...) (`Nozzle.sections`)
    broadcasts against it. aii, dzA, dqB and dzB are the entries of
    `coeffs.derivatives` at (Phi0, u e_n), the one frozen linearization. The
    coupling dzA = -dqB is purely axial, so only its axial component is kept.
    """

    Phi0: np.ndarray
    u: np.ndarray
    E: np.ndarray
    phi0: np.ndarray
    rho_bg: np.ndarray       # closure density rho(Phi0, u^2)
    pprime: np.ndarray
    aii: np.ndarray          # (n_axial, d) diagonal of dA_dq
    dzA: np.ndarray          # axial coupling
    dqB: np.ndarray          # = -dzA, shared-negation exact
    dzB: np.ndarray
    b_bg: np.ndarray         # background charge
    lam: float
    delta1: float
    delta2: float
    delta3: float
    exit_scale: float        # conormal scale on the exit plane
    exit_wflux: float        # J0 / p'(rho_bg) on the exit plane


def make_coeffs(law: GasLaw, sol: BackgroundSolution, grid: Nozzle) -> BackgroundCoeffs:
    k = sol.index_of(grid.axes[-1])
    Phi0 = sol.Phi0[k]
    u = sol.u[k]
    E = sol.E[k]
    phi0 = sol.phi0[k]
    rho_bg = law.density(Phi0, u * u)
    b_bg = sol.b_values()[k]
    pprime = law.dpressure(rho_bg)
    nu_bg = float(np.min(pprime - u * u))
    if nu_bg <= 0.0:
        raise NotSubsonicError("background is not uniformly subsonic on the grid")

    # the one linearization, at the axial background velocity: dA_dq is
    # diagonal and dA_dz = -dB_dq is axial
    q0 = np.zeros((u.size, grid.dim))
    q0[:, -1] = u
    lin = cf.derivatives(law, Phi0, q0)
    aii = np.diagonal(lin.dA_dq, axis1=1, axis2=2)
    if np.min(aii[:, -1]) <= 0.0:
        raise NotSubsonicError("axial coefficient nonpositive")

    # operational admissibility radii: keep the density-closure argument well
    # above the floor and preserve half of the subsonic margin
    h_bg = Phi0 - 0.5 * u * u
    m_vac = float(np.min(h_bg) - law.enthalpy(100.0 * law.rho_floor))
    c_arg = 1.0 + float(np.max(np.abs(u)))
    c_sub = (
        float(np.max(rho_bg * law.d2pressure(rho_bg) / pprime)) * c_arg
        + 2.0 * float(np.max(np.abs(u)))
        + 1.0
    )
    delta1 = min(1.0, m_vac / (2.0 * c_arg), nu_bg / (2.0 * c_sub)) / 3.0
    m_vac_ex = float(h_bg[-1] - law.enthalpy(100.0 * law.rho_floor))
    nu_ex = float(pprime[-1] - u[-1] * u[-1])
    delta2 = min(1.0, m_vac_ex / (2.0 * c_arg), nu_ex / (2.0 * c_sub)) / 3.0
    delta3 = min(delta1, delta2, 1.0)

    return BackgroundCoeffs(
        Phi0=Phi0, u=u, E=E, phi0=phi0, rho_bg=rho_bg, pprime=pprime,
        aii=aii, dzA=lin.dA_dz[:, -1], dqB=lin.dB_dq[:, -1], dzB=lin.dB_dz, b_bg=b_bg,
        lam=float(np.min(aii)), delta1=float(delta1), delta2=float(delta2), delta3=float(delta3),
        exit_scale=float(aii[-1, -1] * pprime[-1] / sol.J0),
        exit_wflux=float(sol.J0 / pprime[-1]),
    )


# ---------------------------------------------------------------------------
# end-plane Dirichlet data


def check_wall_compatibility(W_en, W_ex, grid: Nozzle) -> None:
    """Warn when the end-plane data have a wall-normal derivative at the wall."""
    cross_shape = grid.cross_shape()
    W_en = np.asarray(W_en, dtype=float).reshape(cross_shape)
    W_ex = np.asarray(W_ex, dtype=float).reshape(cross_shape)
    # one-sided edge stencils see O(h^3) on compatible smooth data
    h = max(grid.spacing[:-1])
    scale = 1.0 + float(np.max(np.abs(W_en))) + float(np.max(np.abs(W_ex)))
    warn_tol = 50.0 * h ** 3 * scale

    violation = 0.0
    for data in (W_en, W_ex):
        for a, dx in enumerate(grid.spacing[:-1]):
            gr = np.gradient(data, dx, axis=a, edge_order=2)
            violation = max(violation, float(np.max(np.abs(np.take(gr, [0, -1], axis=a)))))
    if violation > warn_tol:
        warnings.warn(
            f"end-plane data violate the wall compatibility condition "
            f"(max wall-normal derivative {violation:.3e})",
            stacklevel=2,
        )


# ---------------------------------------------------------------------------
# linear data and system


@dataclass
class LinearData:
    """Right-hand-side data of one linearized solve.

    F enters in divergence form against the first equation; g_exit is the
    exit datum converted to a conormal flux by the background scale; f is a
    plain volume source and F2 a divergence-form source of the second
    equation. wall_flux_v/_W are nodal fields (N, d) whose outward normal
    component on the wall is extra conormal data of the v and W equations.
    W_en/W_ex are the Dirichlet values of W on the entrance/exit planes,
    written straight into the identity rows of the right-hand side.
    """

    W_en: np.ndarray
    W_ex: np.ndarray
    F: np.ndarray | None = None
    f: np.ndarray | None = None
    g_exit: np.ndarray | None = None
    F2: np.ndarray | None = None
    wall_flux_v: np.ndarray | None = None
    wall_flux_W: np.ndarray | None = None


class DiscreteOperator:
    """Operator part of the weak system and its separable factorization
    (background-dependent only).

    Built eagerly: the quadrature, the axial 2x2 blocks (`axial_blocks`) and
    their two-ended order (`fold`), the cross eigenmodes and `pivot_inv`, the
    one stored factor of the mode systems and their one (n_axial, 2, 2,
    n_modes) array; the factorization, the sweeps and `apply_operator` read
    the axial blocks, and the Dirichlet rows come from `_dirichlet_rows` alone.
    Built on first use and then kept: the CSR blocks (`blocks`) and the
    assembled operator `K`, which serve the quadratic form, the coercivity
    check and the sparse-LU cross-checks.
    """

    def __init__(self, coeffs: BackgroundCoeffs, grid: Nozzle):
        self.coeffs = coeffs
        self.grid = grid
        self.quad = build_quadrature(grid)
        self.axial_blocks = _axial_blocks(coeffs, self.quad)
        self.cross_modes = tuple(_cross_modes(grid, a) for a in range(grid.dim - 1))
        self.fold = _fold(self.axial_blocks)
        self.pivot_inv = _factor_modes(self.fold, coeffs, self.quad, self.cross_modes)

    @functools.cached_property
    def blocks(self):
        """CSR blocks Kvv, KvW, KWv, KWW of K and the Dirichlet form Dsemi."""
        import scipy.sparse as sp

        coeffs, q = self.coeffs, self.quad
        wq = q.w
        k = q.qnode % self.grid.shape[-1]      # axial node of each point
        d = self.grid.dim
        N = self.grid.n_nodes

        def row_scaled(mat, c):
            # shares the index arrays of mat; only the values are new
            data = mat.data * np.repeat(c, np.diff(mat.indptr))
            return sp.csr_matrix((data, mat.indices, mat.indptr), shape=mat.shape)

        Kvv = sum(
            (q.G[a].T @ row_scaled(q.G[a], wq * coeffs.aii[k, a]) for a in range(d)),
            start=sp.csr_matrix((N, N)),
        )
        KvW = q.G[-1].T @ row_scaled(q.P, wq * coeffs.dzA[k])
        KWv = q.P.T @ row_scaled(q.G[-1], wq * coeffs.dqB[k])
        Dsemi = sum(
            (q.G[a].T @ row_scaled(q.G[a], wq) for a in range(d)),
            start=sp.csr_matrix((N, N)),
        )
        KWW = Dsemi + q.P.T @ row_scaled(q.P, wq * coeffs.dzB[k])
        return {"Kvv": Kvv.tocsr(), "KvW": KvW.tocsr(),
                "KWv": KWv.tocsr(), "KWW": KWW.tocsr(), "Dsemi": Dsemi.tocsr()}

    @functools.cached_property
    def K(self):
        """The assembled operator, identity rows included: the reference that
        `apply_operator` and the separable solve are checked against."""
        import scipy.sparse as sp

        identity = np.zeros((2, self.grid.n_nodes))
        copy_dirichlet_rows(self.grid.shape[-1], identity, 1.0)
        identity = identity.ravel()
        K = sp.bmat(
            [[self.blocks["Kvv"], self.blocks["KvW"]],
             [self.blocks["KWv"], self.blocks["KWW"]]],
            format="csr",
        )
        return (sp.diags(1.0 - identity) @ K + sp.diags(identity)).tocsr()


# ---------------------------------------------------------------------------
# separable direct solve: cross-section eigenmodes, one block LU over all modes


def _dirichlet_rows(n_axial):
    """Identity rows of one mode as an (n_axial, 2) mask over (v_k, W_k): v
    on the entrance plane, W on both end planes. Every Dirichlet row of the
    system is one of these, on every cross node."""
    mask = np.zeros((n_axial, 2), dtype=bool)
    mask[0] = True
    mask[-1, 1] = True
    return mask


def copy_dirichlet_rows(n_axial, dst, src):
    """Set the Dirichlet rows of dst = (v, W), two contiguous nodal fields,
    in place to those of src = (v, W), or to src itself if it is a scalar."""
    for i, rows in enumerate(_dirichlet_rows(n_axial).T):
        view = dst[i].reshape(-1, n_axial)
        view[:, rows] = src if np.isscalar(src) else src[i].reshape(-1, n_axial)[:, rows]


def _cross_modes(grid: Nozzle, axis: int):
    """DCT-I cosines on a cross axis and their eigenvalues.

    They solve S V = T V diag(lam) for the Neumann stiffness S and the
    trapezoid mass T of the axis, scaled so that V^T T V = I.
    """
    n = grid.shape[axis]
    h = grid.spacing[axis]
    j = np.arange(n)
    # reduce j*m modulo the period 2(n-1) so the cosine argument stays small
    V = np.cos(np.pi * (np.outer(j, j) % (2 * (n - 1))) / (n - 1))
    scale = np.full(n, 2.0)
    scale[[0, -1]] = 1.0
    V *= np.sqrt(scale / (h * (n - 1)))
    return V, 2.0 * (1.0 - np.cos(np.pi * j / (n - 1))) / h ** 2


def _axial_blocks(coeffs: BackgroundCoeffs, quad: Quadrature):
    """The 2x2 blocks of the axial operator in the interleaved (v_k, W_k)
    order, per unit cross mass: lower[k] (row k+1 on node k), upper[k] (row k
    on node k+1) and diag[k]. They hold the axial corner-rule forms Kvv, KvW,
    KWv = -KvW^T and KWW, with identity rows for the Dirichlet data. Every
    mode system shares lower and upper; `apply_operator` reads all three.
    """
    n, h = quad.grid.shape[-1], quad.grid.spacing[-1]
    A = coeffs.aii[:, -1]
    e = 0.5 * h * (A[:-1] + A[1:]) / h ** 2   # axial v stiffness per edge
    c = 0.5 * coeffs.dzA       # coupling of an edge difference to each end node
    lower = np.empty((n - 1, 2, 2))
    upper = np.empty((n - 1, 2, 2))
    lower[:, 0, 0] = upper[:, 0, 0] = -e
    lower[:, 1, 1] = upper[:, 1, 1] = -1.0 / h
    lower[:, 0, 1] = c[:-1]
    lower[:, 1, 0] = c[1:]
    upper[:, 0, 1] = -c[1:]
    upper[:, 1, 0] = -c[:-1]
    diag = np.zeros((n, 2, 2))
    for side in (slice(1, None), slice(None, -1)):
        diag[side, 0, 0] += e
        diag[side, 1, 1] += 1.0 / h
    diag[:, 1, 1] += quad.tau * coeffs.dzB
    # a node couples to its own W by +c from its left edge and -c from its
    # right edge; on free rows only the v row of the exit node keeps a term
    diag[-1, 0, 1] = c[-1]
    identity = _dirichlet_rows(n)
    diag[identity] = np.eye(2)[np.nonzero(identity)[1]]
    upper[identity[:-1]] = 0.0
    lower[identity[1:]] = 0.0
    return lower, upper, diag


def _fold(axial_blocks):
    """The two-ended order (Parlett and Dhillon, Linear Algebra Appl. 267
    (1997)): a top front eliminates axial nodes 0, 1, ..., a bottom front
    n-1, n-2, ... (block UL), meeting at the twist node n // 2. Position j
    holds node j // 2 (even j) or n-1 - j // 2 (odd j), the twist last.
    Returns that order, diag in it, the blocks A[s], B[s] by which position
    s enters the next node of its front (s + 2, or the twist from the last
    two), the first pair and the forward steps (positions, sources), two
    positions each; the backward sweep runs them in reverse."""
    lower, upper, diag = axial_blocks
    j = np.arange(n := diag.shape[0])
    perm = np.where(j % 2, n - 1 - j // 2, j // 2)
    top, edge = (perm[:-1] < n // 2)[:, None, None], perm[:-1] - (perm[:-1] > n // 2)
    A, B = (np.where(top, x[edge], y[edge]) for x, y in ((lower, upper), (upper, lower)))
    forward = [(slice(j, min(j + 2, n - 1)), slice(j - 2, min(j, n - 3)))
               for j in range(2, n - 1, 2)] + [(slice(n - 1, n), slice(max(n - 3, 0), n - 1))]
    return perm, diag[perm], A, B, slice(0, min(2, n - 1)), forward


def _factor_modes(fold, coeffs: BackgroundCoeffs, quad: Quadrature, cross_modes) -> np.ndarray:
    """Two-ended block LU, without pivoting, of all mode systems (`_fold`) in
    one pass, vectorized over the modes, kept as its inverted pivot blocks
    P_j^-1 (n, 2, 2, n_modes) in folded order: P_j = D_j - A[j-2] P_j-2^-1
    B[j-2], less both fronts' terms at the twist. D_j = diag + mu[j], mu the
    cross eigenvalue times the axial mass on the free rows. A singular or
    non-finite pivot (an overflow is singular) is refused after the pass,
    named by the node where a front first meets one, the lower, else the twist."""
    perm, diag, A, B, first, forward = fold
    grid, tau, n = quad.grid, quad.tau[perm], quad.grid.shape[-1]
    eye, pivot_inv = np.eye(2)[:, :, None], np.zeros((n, 2, 2, grid.n_nodes // n))
    # mu is held in place, in pivot_inv[:, :, 0]: row j is read before pivot_inv[j] is written
    mu = pivot_inv.reshape((n, 2, 2) + grid.cross_shape())[:, :, 0]
    # a step's products in buf: fresh ones past malloc's mmap threshold fault in at every step
    good, buf = np.empty(n, dtype=bool), np.empty((3, 2, 2, 2, grid.n_nodes // n))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for a, (_, lam) in enumerate(cross_modes):
            lam = lam.reshape([-1 if b == a else 1 for b in range(grid.dim - 1)])
            axial = (n,) + (1,) * (grid.dim - 1)
            mu[:, 0] += (tau * coeffs.aii[perm, a]).reshape(axial) * lam
            mu[:, 1] += tau.reshape(axial) * lam
        mu[_dirichlet_rows(n)[perm]] = 0.0
        for at, src in [(first, None)] + forward:
            S = np.multiply(eye, pivot_inv[at, :, :1], out=buf[0, :len(diag[at])])
            S += diag[at][..., None]
            if src is not None:
                M = np.einsum("kij,kjlm->kilm", A[src], pivot_inv[src], out=buf[1, :len(A[src])])
                M = np.einsum("kijm,kjl->kilm", M, B[src], out=buf[2, :len(M)])
                S -= M.sum(0) if len(M) > len(S) else M
            det = S[:, 0, 0] * S[:, 1, 1] - S[:, 0, 1] * S[:, 1, 0]
            good[at] = np.all(np.isfinite(det) & (det != 0.0), axis=-1)
            out = pivot_inv[at]
            out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = \
                S[:, 1, 1], -S[:, 0, 1], -S[:, 1, 0], S[:, 0, 0]
            out /= det[:, None, None]
    if not good.all():
        bad = perm[~good]
        node = bad.min() if bad.min() < n // 2 else bad.max()
        raise SingularAssemblyError("banded factorization of the mode systems failed "
                                    f"(singular pivot block at axial node {node})")
    return pivot_inv


def _sweep(pivot_inv, fold, R):
    """Two-ended solve of all mode systems in place for R (n, 2, n_modes),
    folded (`_fold`): y_j = P_j^-1 (r_j - A[j-2] y_j-2) from both ends, less
    both fronts' terms at the twist, then x_j = y_j - P_j^-1 B[j] x_j+2 in reverse."""
    _, _, A, B, first, forward = fold
    R[first] = np.einsum("kijm,kjm->kim", pivot_inv[first], R[first])
    buf = np.empty((2, 2) + R.shape[1:])   # as in `_factor_modes`
    for r_at, r_src, p, a in ((R[at], R[src], pivot_inv[at], A[src]) for at, src in forward):
        r = np.matmul(a, r_src, out=buf[0, :len(r_src)])
        r = r.sum(0, keepdims=True) if len(r) > len(r_at) else r   # the twist: both fronts
        np.subtract(r_at, r, out=r)
        np.einsum("kijm,kjm->kim", p, r, out=r_at)
    for r_at, r_nxt, p, b in ((R[src], R[at], pivot_inv[src], B[src]) for at, src in forward[::-1]):
        r = np.matmul(b, r_nxt, out=buf[0, :len(r_at)])
        r_at -= np.einsum("kijm,kjm->kim", p, r, out=buf[1, :len(r_at)])
    return R


def _axis_last(X):
    """X (n, 2, *cross) with axis 2 moved last, C-contiguous: X itself when
    it is last already (2D), else a copy, which the caller keeps in place of
    X, so that the input is freed before the product."""
    return np.ascontiguousarray(X.swapaxes(2, -1))


def _cross_transform(X, V, transpose):
    """Apply V^T (transpose) or V along the last axis of X (n, 2, ..., c),
    C-contiguous, in one product; the modes stay last. With axis 2 moved
    last before each call (`_axis_last`), applied once per cross axis the
    order comes back. It is the product of np.tensordot over axis 2, the
    same call on the same bytes, without the input held beside its
    transposed copy."""
    return np.dot(X.reshape(-1, X.shape[-1]), V if transpose else V.T).reshape(X.shape)


def _along(axis, sl):
    """Index that slices one axis and keeps the leading ones whole."""
    return (slice(None),) * axis + (sl,)


def apply_operator(op: DiscreteOperator, U, rows=slice(None)) -> np.ndarray:
    """K U without the assembled K or the factorization, on the nodes at
    rows (a slice) of cross axis 0, all by default, with U the pair there:
    it reaches one row across, so on all rows but the first and the last,
    which it takes for walls, it gives the whole operator's bits.

    Along the axis: the axial blocks of the mode systems, times the trapezoid
    mass of the cross-section; on each cross axis: the Neumann stiffness with
    the corner-rule edge weights, times aii on the v rows; Dirichlet rows:
    identity. Equal to `op.K @ U` up to the rounding of the summation order.
    Each product and each cross-axis flux is formed in one nodal scratch
    buffer and added to out from there.
    """
    q = op.quad.rows(rows)
    grid = q.grid
    lower, upper, diag = op.axial_blocks
    x = U.reshape((2,) + grid.shape)
    out = np.empty_like(x)
    scratch = np.empty(grid.shape)
    bands = ((lower, slice(1, None), slice(None, -1)), (upper, slice(None, -1), slice(1, None)))
    for i in range(2):
        np.multiply(diag[:, i, 0], x[0], out=out[i])
        out[i] += np.multiply(diag[:, i, 1], x[1], out=scratch)
        # a band's two products are added one at a time, so one scratch
        # buffer serves them
        for band, dst, src in bands:
            for j in range(2):
                out[i, ..., dst] += np.multiply(band[:, i, j], x[j, ..., src],
                                                out=scratch[..., src])
    out *= q.exit_w[..., None]
    # out_j += flux_j-1 - flux_j along a cross axis, no flux beyond the ends
    for ax in range(grid.dim - 1):
        hi, lo = _along(ax, slice(1, None)), _along(ax, slice(None, -1))
        weight = q.edge_w[ax] / grid.spacing[ax]
        for i in range(2):
            flux = np.subtract(x[i][hi], x[i][lo], out=scratch[lo])
            flux *= weight
            if i == 0:
                flux *= op.coeffs.aii[:, ax]
            out[i][hi] += flux
            out[i][lo] -= flux
    copy_dirichlet_rows(grid.shape[-1], out, x)
    return out.reshape(-1)


def _divergence_form(quad: Quadrature, F, out) -> np.ndarray:
    """sum_a G[a]^T (w F[qnode, a]) with slices, added into the nodal field
    out in place: the corner rule puts the flux (1/2) T_other (F_a[lo] +
    F_a[hi]) on each edge along axis a, + to hi and - to lo, where T_other is
    the trapezoid mass of the other axes. Returns out."""
    shape = quad.grid.shape
    F = np.asarray(F, dtype=float).reshape(shape + (len(shape),))
    box = out.reshape(shape)
    buffer = np.empty(quad.grid.n_nodes)     # the edge fluxes of one axis at a time
    for a, edge_w in enumerate(quad.edge_w):
        hi, lo = _along(a, slice(1, None)), _along(a, slice(None, -1))
        Fa = F[..., a]
        edges = Fa[lo].shape
        flux = np.add(Fa[lo], Fa[hi], out=buffer[:np.prod(edges)].reshape(edges))
        flux *= 0.5 * edge_w
        box[hi] += flux
        box[lo] -= flux
    return out


def _lumped_mass(q: Quadrature, s):
    """The trapezoid mass times a nodal field, (exit_w ⊗ tau) * s, (n_cross, n_axial)."""
    out = np.multiply.outer(q.exit_w.ravel(), q.tau)
    out *= q.grid.sections(s)
    return out


def _wall_flux(q: Quadrature, b, X, update):
    """update(b, fw (n . X)) in place on every wall face, update np.add or
    np.subtract: fw the surface weights, n . X the outward normal component
    of a nodal field X (N, d)."""
    X = np.asarray(X, dtype=float)
    for axis, side, sign, fw in q.wall_faces:
        b_face = q.grid.face(b, axis, side)
        update(b_face, fw * (sign * q.grid.face(X, axis, side)[..., axis]), out=b_face)


def assemble_rhs(op: DiscreteOperator, data: LinearData, rows=slice(None)) -> np.ndarray:
    """Right-hand side of K U = rhs; the Dirichlet rows carry the data. On
    the nodes at rows of cross axis 0, as `apply_operator`, with data there.
    The end-plane data are checked by the callers
    (`check_wall_compatibility`), on the whole planes."""
    q, coeffs = op.quad.rows(rows), op.coeffs
    grid = q.grid
    rhs = np.zeros((2, grid.n_nodes))
    bv, bW = rhs
    bv_exit = grid.face(bv, -1, -1)

    W_ex = np.asarray(data.W_ex, dtype=float).reshape(q.exit_w.shape)

    if data.F is not None:
        F = np.asarray(data.F, dtype=float)
        # bv holds zeros here, so the sums go straight into it: each node's
        # additions run in the order of a separate sum added to zero
        _divergence_form(q, F, bv)
        _wall_flux(q, bv, F, np.subtract)
        bv_exit -= q.exit_w * grid.face(F, -1, -1)[..., -1]
    if data.g_exit is not None:
        bv_exit -= q.exit_w * coeffs.exit_scale * np.reshape(data.g_exit, q.exit_w.shape)
    # exit surface term of the coupling flux, determined by the exit trace of W
    bv_exit += q.exit_w * coeffs.exit_wflux * W_ex

    if data.f is not None:
        bW -= _lumped_mass(q, data.f).ravel()
    if data.F2 is not None:
        F2 = np.asarray(data.F2, dtype=float)
        bW += _divergence_form(q, F2, np.zeros(grid.n_nodes))
        _wall_flux(q, bW, F2, np.subtract)
    if data.wall_flux_v is not None:
        _wall_flux(q, bv, data.wall_flux_v, np.add)
    if data.wall_flux_W is not None:
        _wall_flux(q, bW, data.wall_flux_W, np.add)

    copy_dirichlet_rows(grid.shape[-1], rhs, 0.0)
    grid.face(bW, -1, 0)[...] = np.reshape(data.W_en, q.exit_w.shape)
    grid.face(bW, -1, -1)[...] = W_ex
    return rhs.reshape(-1)


def _max_abs(a) -> float:
    """max |a| without the copy np.abs makes; the same bits, and NaN if a
    holds one (both reductions propagate it)."""
    return float(max(a.max(), -a.min()))


def _residual_max(op: DiscreteOperator, U, rhs) -> float:
    """max |K U - rhs| (`_max_abs`), folded per slab of cross axis 0
    (`grid.slabs`, halo one row): `apply_operator` reaches one row across,
    so a slab's own rows are the whole grid's, and no nodal residual of the
    whole grid is formed. A max is exact, so the bits are the whole one's,
    and a NaN anywhere gives NaN."""
    shape = (2,) + op.grid.shape
    worst = []
    for rows, own in gridmod.slabs(op.grid, 0, halo=1):
        U_rows = U.reshape(shape)[:, rows]
        res = apply_operator(op, U_rows, rows).reshape(U_rows.shape)[:, own]
        res -= rhs.reshape(shape)[:, rows][:, own]
        worst.append(_max_abs(res))
    return float(np.max(worst))


def solve(op: DiscreteOperator, rhs):
    """Separable direct solve of one linearized problem, given its
    right-hand side as `assemble_rhs` gives it (a Picard step assembles it
    per slab). Returns v, W and the algebraic residual
    max|K U - rhs| / max|rhs| of the solve. The Dirichlet entries of v and
    W equal those of rhs exactly, and rhs is left as it was. Besides rhs, at
    most two nodal arrays are held at a time: the operand of a transform and
    its product.
    """
    grid = op.grid
    N, n = grid.n_nodes, grid.shape[-1]
    # (v, W) over (*cross, n) to the sweep layout (n, 2, *cross), cross axis 0
    # last, nodes folded (`_fold`): the one copy out of rhs, by two slice copies
    by_node = np.moveaxis(rhs.reshape((2,) + grid.shape), (-1, 1), (0, -1))
    X = np.empty(by_node.shape)
    X[0::2], X[1::2] = by_node[:(n + 1) // 2], by_node[::-1][:n // 2]
    # V^T T = V^-1 on the identity rows: their modes are those of the data
    X[_dirichlet_rows(n)[op.fold[0]]] *= op.quad.exit_w.T
    for a, (V, _) in enumerate(op.cross_modes):
        if a:
            X = _axis_last(X)
        X = _cross_transform(X, V, transpose=True)
    X = _sweep(op.pivot_inv, op.fold, X.reshape(n, 2, -1)).reshape(X.shape)
    for V, _ in op.cross_modes:
        X = _axis_last(X)
        X = _cross_transform(X, V, transpose=False)
    # back to (v, W) over (*cross, n), the one copy out of the sweep layout, by slices
    U = np.empty(2 * N)
    by_node = np.moveaxis(U.reshape((2,) + grid.shape), -1, 0)
    by_node[:(n + 1) // 2], by_node[::-1][:n // 2] = X[0::2], X[1::2]
    del X
    if not np.all(np.isfinite(U)):
        raise SingularAssemblyError("the banded mode solve gave no finite solution")
    rel = _residual_max(op, U, rhs) / max(_max_abs(rhs), 1e-300)
    # identity rows hold exactly; scrub the rounding of the mode transforms
    copy_dirichlet_rows(n, U.reshape(2, N), rhs.reshape(2, N))
    return U[:N], U[N:], rel


def quadratic_form(op: DiscreteOperator, xi, eta):
    """Discrete bilinear form at a test pair and its seminorm denominator."""
    blocks = op.blocks
    cross_1 = float(xi @ (blocks["KvW"] @ eta))
    cross_2 = float(eta @ (blocks["KWv"] @ xi))
    Q = (
        float(xi @ (blocks["Kvv"] @ xi))
        + cross_1
        + cross_2
        + float(eta @ (blocks["KWW"] @ eta))
    )
    D = float(xi @ (blocks["Dsemi"] @ xi)) + float(eta @ (blocks["Dsemi"] @ eta))
    return Q, D, cross_1, cross_2


def cross_term_sum(op: DiscreteOperator, xi, eta):
    """Coupling contributions evaluated with identical quadrature weights.

    Returns (sum, |first| + |second|); the two terms are exact negations of
    each other whenever the pointwise identity holds.
    """
    quad, coeffs = op.quad, op.coeffs
    wq, qn = quad.w, quad.qnode
    k = qn % op.grid.shape[-1]       # axial node of each point
    eta_q = eta[qn]
    # the coupling is axial: only the axial difference of xi enters
    gxi = quad.G[-1] @ xi
    total_1 = float(np.sum(wq * coeffs.dzA[k] * eta_q * gxi))
    total_2 = float(np.sum(wq * coeffs.dqB[k] * eta_q * gxi))
    return total_1 + total_2, abs(total_1) + abs(total_2)


def coercivity_check(op: DiscreteOperator, trials: int = 100, seed: int = 42):
    """Min Rayleigh ratio of the quadratic form over random admissible pairs."""
    rng = np.random.default_rng(seed)
    N = op.grid.n_nodes
    best = np.inf
    for _ in range(trials):
        xi = rng.standard_normal(N)
        eta = rng.standard_normal(N)
        copy_dirichlet_rows(op.grid.shape[-1], (xi, eta), 0.0)
        Q, D, _, _ = quadratic_form(op, xi, eta)
        if D <= 0.0:
            raise DomainError("degenerate (zero) test pair")
        best = min(best, Q / D)
    return best
