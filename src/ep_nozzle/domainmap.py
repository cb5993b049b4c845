"""Nozzle-wall deformations and the pullback of the flow problem.

A deformation moves the cross-section by a separable shear that is rigid at
the end caps. The transformed problem is recast on the reference nozzle with
a flat principal part plus correction sources and wall data, so the same
fixed-point driver solves it. All corrections vanish identically for the
identity map.

The shear is a product of 1D factors, so its Jacobian is evaluated from
them on the axes of a tensor-product point set (the nodes, or the edge
midpoints along one axis) and meets over the points by broadcasting. The
flux maps are written out per component for d = 2 and 3, vectorized over the
points: no per-point LAPACK call. They take the determinant that
jacobian_JT returns with J_T. Matrices are component-major stacks
(d, d, ...), where each entry is one contiguous array over the points: the
products then stream contiguous arrays, where reading one entry per matrix
with a stride would load whole cache lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import driver as drv
from . import grid as gridmod
from .errors import DomainError, FoldOverError
from .gas import GasLaw
from .grid import Nozzle


@dataclass(frozen=True)
class WallShear:
    """Separable shear G(x', x_n) = x' + eps * w(x') * s(x_n), per cross
    component G_a = x_a + eps * w_a(x_a) * s(x_n).

    w_a = cos(pi t_a), t_a = (x_a - lo_a) / (hi_a - lo_a), has a vanishing
    wall-normal derivative; s = sin^2(pi x_n / L) and s' vanish at both end
    caps, so the full map is rigid there.
    """

    eps: float
    L: float
    cross_extents: tuple

    @property
    def sigmaG(self) -> float:
        return abs(self.eps)

    def axial(self, xn):
        """s and s' at the axial coordinates xn."""
        return (np.sin(np.pi * xn / self.L) ** 2,
                (np.pi / self.L) * np.sin(2.0 * np.pi * xn / self.L))

    def cross(self, a, x):
        """w_a and w_a' at the coordinates x of cross axis a."""
        lo, hi = self.cross_extents[a]
        span = hi - lo
        t = (x - lo) / span
        return np.cos(np.pi * t), -np.pi / span * np.sin(np.pi * t)

    def map_cross(self, grid: Nozzle):
        """Deformed cross coordinates G(x', x_n) at the grid nodes, (n_nodes,
        dc) in node order; the map keeps x_n."""
        *cross, xn = np.meshgrid(*grid.axes, indexing="ij", sparse=True)
        s, _ = self.axial(xn)
        out = np.empty(grid.shape + (len(cross),))
        for a, x in enumerate(cross):
            out[..., a] = x + self.eps * self.cross(a, x)[0] * s
        return out.reshape(grid.n_nodes, -1)


def shear_map(eps: float, L: float, cross_extents=((0.0, 1.0),)) -> WallShear:
    """The wall shear of size eps on a nozzle of length L."""
    return WallShear(float(eps), float(L), tuple(tuple(map(float, e)) for e in cross_extents))


def _matvec(M, q):
    """M q for a component-major stack of matrices (k, k, ...) and vectors (k, ...)."""
    k = M.shape[0]
    out = np.empty((k,) + np.broadcast_shapes(M.shape[2:], q.shape[1:]))
    for i in range(k):
        np.multiply(M[i, 0], q[0], out=out[i, ...])
        for j in range(1, k):
            out[i, ...] += M[i, j] * q[j]
    return out


def _sqnorm(v):
    """|v|^2 of a component-major vector (k, ...)."""
    out = v[0] * v[0]
    for c in v[1:]:
        out += c * c
    return out


def _node_major(v):
    """Component-major (k, ...) back to a C-contiguous (..., k)."""
    return np.ascontiguousarray(np.moveaxis(v, 0, -1))


def jacobian_JT(shear: WallShear, axes):
    """Inverse-map Jacobian J_T = M^{-T}, component-major (d, d, n_points),
    and det J_T = 1 / det M on the tensor product of axes.

    axes holds one 1D coordinate array per axis, axial last, and the points
    are numbered in C order: the grid axes give the nodes, and one axis
    replaced by its half points gives the edge midpoints along it. The
    factors w_a, w_a', s and s' are evaluated on the axes only.

    The forward Jacobian is M = [[A, b], [0, 1]] with the diagonal cross block
    A_aa = 1 + eps w_a' s and b_a = eps w_a s', so det M = prod_a A_aa, the
    cross block of M^{-T} is diagonal with entries (prod_{b != a} A_bb) /
    det M, and its axial row is -b_a times them. A non-finite or nonpositive
    determinant is a fold-over; a map that overflows gives one, so it is
    evaluated without overflow warnings.
    """
    *cross, xn = np.meshgrid(*axes, indexing="ij", sparse=True)
    dc = len(cross)
    s, ds = shear.axial(xn)
    with np.errstate(over="ignore", invalid="ignore"):
        factors = [shear.cross(a, x) for a, x in enumerate(cross)]
        A = [1.0 + shear.eps * dw * s for _, dw in factors]
        b = [shear.eps * w * ds for w, _ in factors]
        detM = A[0] * A[1] if dc == 2 else A[0]
        folded = ~np.isfinite(detM) | (detM <= 0.0)
    if np.any(folded):
        raise FoldOverError("deformation folds over: nonpositive or non-finite Jacobian determinant")
    JT = np.zeros((dc + 1, dc + 1) + detM.shape)
    JT[-1, -1] = 1.0
    for a in range(dc):
        JT[a, a] = (A[1 - a] if dc == 2 else 1.0) / detM
        JT[-1, a] = -(JT[a, a] * b[a])
    return JT.reshape(dc + 1, dc + 1, -1), (1.0 / detM).ravel()


def _field_map(M, q, detM):
    """M^T M q / det M, component-major, for a component-major M and q."""
    return _matvec(M.swapaxes(0, 1), _matvec(M, q)) / detM


def _mass_map(law: GasLaw, z, q, M, detM):
    """rho M^T M q / det M, component-major, and rho = rho(z, |M q|^2), for a
    component-major M and q."""
    Mq = _matvec(M, q)
    rho = law.density(z, _sqnorm(Mq))
    return rho * _matvec(M.swapaxes(0, 1), Mq) / detM, rho


def pullback_operators(law: GasLaw, z, q1, q2, M, detM):
    """Pulled-back flux maps for matrix argument M (the inverse-map Jacobian).

    A1 = rho M^T M q1 / det M with rho = rho(z, |M q1|^2), and
    A2 = M^T M q2 / det M, for a component-major stack M (d, d, ...) of
    general matrices, d = 2 or 3, its determinant detM (the one
    jacobian_JT returns with J_T), and node-major q1, q2 (..., d).
    Returns A1, A2 (node-major) and rho.
    """
    q1 = np.moveaxis(np.asarray(q1, dtype=float), -1, 0)
    q2 = np.moveaxis(np.asarray(q2, dtype=float), -1, 0)
    M = np.asarray(M, dtype=float)
    A1, rho = _mass_map(law, z, q1, M, detM)
    A1 = _node_major(A1)  # drops the component-major A1 before the field map
    return A1, _node_major(_field_map(M, q2, detM)), rho


@dataclass
class Corrections:
    H1: np.ndarray     # (N, d)
    H2: np.ndarray     # (N, d)
    src2: np.ndarray   # (N,)
    g3: np.ndarray     # exit-plane pressure shift


def correction_terms(
    law: GasLaw,
    state: drv.PicardState,
    JT: np.ndarray,
    detJT: np.ndarray,
    pair: drv.FieldPair,
    b: np.ndarray,
    Dpsi: np.ndarray | None = None,
):
    """Recast sources at the current iterate for the transformed problem."""
    g = state.grid
    c = state.coeffs
    if Dpsi is None:
        Dpsi = gridmod.gradient(g, pair.psi)
    grad_phi = Dpsi.copy()
    g.sections(grad_phi)[..., -1] += c.u
    grad_Phi = gridmod.gradient(g, pair.Psi)
    g.sections(grad_Phi)[..., -1] += c.E
    z = (c.Phi0 + g.sections(pair.Psi)).ravel()

    speed_flat = _sqnorm(grad_phi.T)
    rho_flat = law.density(z, speed_flat)
    A_flat = rho_flat[:, None] * grad_phi

    A1_map, A2_map, rho_map = pullback_operators(law, z, grad_phi, grad_Phi, JT, detJT)

    H1 = A_flat - A1_map
    H2 = grad_Phi - A2_map
    src2 = (rho_map - b) / detJT - (rho_flat - b)
    exit_idx = state.exit_idx
    g3 = law.pressure(rho_flat[exit_idx]) - law.pressure(rho_map[exit_idx])
    return Corrections(H1=H1, H2=H2, src2=src2, g3=g3)


def solve_perturbed(
    shear: WallShear,
    config: drv.IterationConfig,
    data: drv.BoundaryData,
    state: drv.PicardState,
    on_iterate=None,
):
    """Fixed-point solve of the transformed problem on the reference grid;
    on_iterate goes to `driver.run_fixed_point`."""
    JT, detJT = jacobian_JT(shear, state.grid.axes)

    def corrections(pair, Dpsi):
        return correction_terms(state.law, state, JT, detJT, pair, data.b, Dpsi)

    scale = data.sigma + shear.sigmaG
    pair, report = drv.run_fixed_point(
        config, data, state, corrections=corrections, scale=scale, on_iterate=on_iterate,
    )
    report.meta["sigmaG"] = shear.sigmaG
    return pair, report


def pushforward_residual(shear: WallShear, state: drv.PicardState, pair: drv.FieldPair, data: drv.BoundaryData):
    """Physical-equation residual on the deformed domain, interior nodes.

    The physical equations are evaluated through their exact pullback to the
    reference grid: compact conservative edge differences of the transformed
    fluxes, with the chain-rule Jacobian sampled analytically at the edge
    midpoints. This is an independent check of the recast solve.
    """
    g = state.grid
    law = state.law
    c = state.coeffs
    phi = (c.phi0 + g.sections(pair.psi)).ravel()
    Phi = (c.Phi0 + g.sections(pair.Psi)).ravel()

    def fluxes(axis, z_e, q_phi, q_Phi):
        # one edge Jacobian, at the midpoints of the edges along axis,
        # serves the mass and the field flux
        axes = list(g.axes)
        axes[axis] = 0.5 * (axes[axis][:-1] + axes[axis][1:])
        JT_e, detJT_e = jacobian_JT(shear, axes)
        return (_mass_map(law, z_e, q_phi.T, JT_e, detJT_e)[0],
                _field_map(JT_e, q_Phi.T, detJT_e))

    grad_phi = gridmod.gradient(g, phi)
    div_mass, div_field = drv.edge_divergence(g, (phi, Phi), fluxes, z=Phi,
                                              grads=(grad_phi, None))

    JT, detJT = jacobian_JT(shear, g.axes)
    rho_map = law.density(Phi, _sqnorm(_matvec(JT, grad_phi.T)))
    source = (rho_map - data.b) / detJT

    interior = gridmod.interior_mask(g)
    r1 = float(np.max(np.abs(div_mass[interior])))
    r2 = float(np.max(np.abs(div_field[interior] - source[interior])))
    return max(r1, r2), {"mass": r1, "poisson": r2}


def wall_sweep(config: drv.IterationConfig, state: drv.PicardState, eps) -> dict:
    """Wall-shear ladder at sigma = 0 with log-log slope fits.

    Per shear size: the fixed-point sup norm and Picard iterations, the sup of
    the corrections H1 and H2 at the zero pair, and the pushforward residual.
    The response slope fits the sup norms, the correction slope sup |H1|.
    """
    eps = [float(e) for e in eps]
    if len(set(eps)) < 2 or min(eps) <= 0.0:
        raise DomainError("a slope fit needs at least two distinct positive eps")
    g = state.grid
    data = drv.perturb_data(state.background, g, 0.0)
    zero = drv.FieldPair(np.zeros(g.n_nodes), np.zeros(g.n_nodes))

    def rung(e):
        shear = shear_map(e, g.L, g.cross_extents)
        JT, detJT = jacobian_JT(shear, g.axes)
        corr = correction_terms(state.law, state, JT, detJT, zero, data.b)
        pair, report = solve_perturbed(shear, config, data, state)
        resid, _ = pushforward_residual(shear, state, pair, data)
        return (pair.sup(), float(np.max(np.abs(corr.H1))), float(np.max(np.abs(corr.H2))),
                report.iterations, resid)

    keys = ("sup_norms", "sup_H1", "sup_H2", "iterations", "pushforward_residuals")
    results = drv.ladder_map(rung, eps, drv.RUNG_BYTES_PER_NODE * g.n_nodes)
    rows = {key: list(column) for key, column in zip(keys, zip(*results))}
    return {"eps": eps, **rows,
            "slope_response": drv.loglog_slope(eps, rows["sup_norms"]),
            "slope_corrections": drv.loglog_slope(eps, rows["sup_H1"])}
