"""Nozzle-wall deformations and the pullback of the flow problem.

A deformation moves the cross-section by a separable shear that is rigid at
the end caps. The transformed problem is recast on the reference nozzle with
a flat principal part plus correction sources and wall data, so the same
fixed-point driver solves it. All corrections vanish identically for the
identity map.

The small-matrix algebra (the cross-block determinant, the inverse-map
Jacobian, the flux maps) is written out per component for d = 2 and 3,
vectorized over the nodes or edges: no per-point LAPACK call. The flux maps
take the determinant that jacobian_JT_at returns with J_T. Matrices are component-major
stacks (d, d, ...), where each entry is one contiguous array over the points:
the products then stream contiguous arrays, where reading one entry per
matrix with a stride would load whole cache lines. The inverse relies on the
block structure M = [[A, b], [0, 1]] of the forward Jacobian (see
jacobian_JT_at).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import driver as drv
from . import grid as gridmod
from .elliptic import _along
from .errors import DomainError, FoldOverError
from .gas import GasLaw
from .grid import Nozzle


@dataclass(frozen=True)
class DomainMap:
    """Cross-section deformation x' -> G(x', x_n) with its exact partials."""

    gfun: object                 # (xprime (..., dc), xn (...)) -> (..., dc)
    dg_dxprime: object           # -> (..., dc, dc)
    dg_dxn: object               # -> (..., dc)
    sigmaG: float = 0.0

    def map_coords(self, coords):
        xprime = coords[:, :-1]
        xn = coords[:, -1]
        out = coords.copy()
        out[:, :-1] = self.gfun(xprime, xn)
        return out


def shear_map(eps: float, L: float, dim: int = 2, cross_extents=((0.0, 1.0),)) -> DomainMap:
    """Separable shear G = x' + eps * w(x') * s(x_n).

    w is a cosine mode with vanishing wall-normal derivative; s and s' vanish
    at both end caps, so the full map is rigid there.
    """
    dc = dim - 1
    extents = np.asarray(cross_extents, dtype=float)

    def s(xn):
        return np.sin(np.pi * np.asarray(xn, float) / L) ** 2

    def ds(xn):
        return (np.pi / L) * np.sin(2.0 * np.pi * np.asarray(xn, float) / L)

    def w(xprime):
        xprime = np.asarray(xprime, dtype=float)
        t = (xprime - extents[:, 0]) / (extents[:, 1] - extents[:, 0])
        return np.cos(np.pi * t)

    def dw(xprime):
        xprime = np.asarray(xprime, dtype=float)
        span = extents[:, 1] - extents[:, 0]
        t = (xprime - extents[:, 0]) / span
        return -np.pi / span * np.sin(np.pi * t)

    def gfun(xprime, xn):
        return xprime + eps * w(xprime) * s(xn)[..., None]

    def dgx(xprime, xn):
        base = np.zeros(np.asarray(xprime).shape[:-1] + (dc, dc))
        diag = 1.0 + eps * dw(xprime) * s(xn)[..., None]
        for a in range(dc):
            base[..., a, a] = diag[..., a]
        return base

    def dgn(xprime, xn):
        return eps * w(xprime) * ds(xn)[..., None]

    return DomainMap(gfun=gfun, dg_dxprime=dgx, dg_dxn=dgn, sigmaG=abs(eps))


def _det(A):
    """Determinant of a component-major stack (k, k, ...), k = 1 or 2, written out."""
    if A.shape[0] == 1:
        return A[0, 0].copy()
    return A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]


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


def jacobian_JT_at(dmap: DomainMap, coords):
    """Inverse-map Jacobian J_T = M^{-T}, component-major (d, d, n_points),
    and det J_T = 1 / det M at given points.

    The forward Jacobian is block upper triangular, M = [[A, b], [0, 1]] with
    the cross block A = dG/dx' (dc x dc, dc = 1 or 2) and b = dG/dx_n, so
    det M = det A and M^{-1} = [[A^{-1}, -A^{-1} b], [0, 1]], with A^{-1} the
    adjugate over the determinant. A non-finite or nonpositive determinant is
    a fold-over; a map that overflows gives one, so it is evaluated without
    overflow warnings.
    """
    coords = np.asarray(coords, dtype=float)
    xprime, xn = coords[:, :-1], coords[:, -1]
    dc = xprime.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        A = np.moveaxis(dmap.dg_dxprime(xprime, xn), (-2, -1), (0, 1))
        b = np.moveaxis(dmap.dg_dxn(xprime, xn), -1, 0)
        detM = _det(A)
        folded = ~np.isfinite(detM) | (detM <= 0.0)
    if np.any(folded):
        raise FoldOverError("deformation folds over: nonpositive or non-finite Jacobian determinant")
    JT = np.zeros((dc + 1, dc + 1, coords.shape[0]))
    JT[-1, -1] = 1.0
    if dc == 1:
        Ainv = (1.0 / detM)[None, None]
    else:
        # the adjugate of A over det A
        Ainv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / detM
    JT[:dc, :dc] = Ainv.swapaxes(0, 1)
    JT[-1, :dc] = -_matvec(Ainv, b)
    return JT, 1.0 / detM


def jacobian_JT(dmap: DomainMap, grid: Nozzle):
    """Inverse-map derivative matrix J_T = M^{-T} (d, d, N) and det J_T at every node."""
    return jacobian_JT_at(dmap, grid.coords)


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
    jacobian_JT_at returns with J_T), and node-major q1, q2 (..., d).
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
    dmap: DomainMap,
    config: drv.IterationConfig,
    data: drv.BoundaryData,
    state: drv.PicardState,
    on_iterate=None,
):
    """Fixed-point solve of the transformed problem on the reference grid;
    on_iterate goes to `driver.run_fixed_point`."""
    JT, detJT = jacobian_JT(dmap, state.grid)

    def corrections(pair, Dpsi):
        return correction_terms(state.law, state, JT, detJT, pair, data.b, Dpsi)

    scale = data.sigma + dmap.sigmaG
    pair, report = drv.run_fixed_point(
        config, data, state, corrections=corrections, scale=scale, on_iterate=on_iterate,
    )
    report.meta["sigmaG"] = dmap.sigmaG
    return pair, report


def pushforward_residual(dmap: DomainMap, state: drv.PicardState, pair: drv.FieldPair, data: drv.BoundaryData):
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
    coords = g.coords.reshape(g.shape + (g.dim,))

    def fluxes(axis, z_e, q_phi, q_Phi):
        # one edge Jacobian, at the midpoints of the edges along axis,
        # serves the mass and the field flux
        mid = 0.5 * (coords[_along(axis, slice(0, -1))] + coords[_along(axis, slice(1, None))])
        JT_e, detJT_e = jacobian_JT_at(dmap, mid.reshape(-1, g.dim))
        return (_mass_map(law, z_e, q_phi.T, JT_e, detJT_e)[0],
                _field_map(JT_e, q_Phi.T, detJT_e))

    grad_phi = gridmod.gradient(g, phi)
    div_mass, div_field = drv.edge_divergence(g, (phi, Phi), fluxes, z=Phi,
                                              grads=(grad_phi, None))

    JT, detJT = jacobian_JT(dmap, g)
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
        dmap = shear_map(e, g.L, dim=g.dim, cross_extents=g.cross_extents)
        JT, detJT = jacobian_JT(dmap, g)
        corr = correction_terms(state.law, state, JT, detJT, zero, data.b)
        pair, report = solve_perturbed(dmap, config, data, state)
        resid, _ = pushforward_residual(dmap, state, pair, data)
        return (pair.sup(), float(np.max(np.abs(corr.H1))), float(np.max(np.abs(corr.H2))),
                report.iterations, resid)

    keys = ("sup_norms", "sup_H1", "sup_H2", "iterations", "pushforward_residuals")
    rows = {key: list(column) for key, column in zip(keys, zip(*drv.ladder_map(rung, eps)))}
    return {"eps": eps, **rows,
            "slope_response": drv.loglog_slope(eps, rows["sup_norms"]),
            "slope_corrections": drv.loglog_slope(eps, rows["sup_H1"])}
