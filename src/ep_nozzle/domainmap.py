"""Nozzle-wall deformations and the pullback of the flow problem.

A deformation moves the cross-section by a separable shear that is rigid at
the end caps. The transformed problem is recast on the reference nozzle with
a flat principal part plus correction sources and wall data, so the same
fixed-point driver solves it. All corrections vanish identically for the
identity map.
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


def identity_map(dim: int = 2) -> DomainMap:
    dc = dim - 1
    eye = np.eye(dc)

    def gfun(xprime, xn):
        return np.asarray(xprime, dtype=float)

    def dgx(xprime, xn):
        return np.broadcast_to(eye, xprime.shape[:-1] + (dc, dc)).copy()

    def dgn(xprime, xn):
        return np.zeros_like(np.asarray(xprime, dtype=float))

    return DomainMap(gfun=gfun, dg_dxprime=dgx, dg_dxn=dgn, sigmaG=0.0)


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


def forward_jacobian_at(dmap: DomainMap, coords):
    """Jacobian of the full map at given points, axial row appended."""
    coords = np.asarray(coords, dtype=float)
    xprime = coords[:, :-1]
    xn = coords[:, -1]
    d = coords.shape[1]
    dc = d - 1
    M = np.zeros((coords.shape[0], d, d))
    M[:, -1, -1] = 1.0
    M[:, :dc, :dc] = dmap.dg_dxprime(xprime, xn)
    M[:, :dc, -1] = dmap.dg_dxn(xprime, xn)
    return M


def jacobian_JT_at(dmap: DomainMap, coords):
    M = forward_jacobian_at(dmap, coords)
    detM = np.linalg.det(M)
    if np.any(detM <= 0.0):
        raise FoldOverError("deformation folds over: nonpositive Jacobian determinant")
    JT = np.transpose(np.linalg.inv(M), (0, 2, 1))
    return JT, 1.0 / detM


def jacobian_JT(dmap: DomainMap, grid: Nozzle):
    """Inverse-map derivative matrix J_T = M^{-T} and det J_T at every node."""
    return jacobian_JT_at(dmap, grid.coords)


def pullback_operators(law: GasLaw, z, q1, q2, M):
    """Pulled-back flux maps for matrix argument M (the inverse-map Jacobian)."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    M = np.asarray(M, dtype=float)
    detM = np.linalg.det(M)
    if np.any(detM == 0.0):
        raise DomainError("singular matrix argument")
    MtM = np.einsum("...ki,...kj->...ij", M, M)
    Mq1 = np.einsum("...ij,...j->...i", M, q1)
    rho = law.density(z, np.einsum("...i,...i->...", Mq1, Mq1))
    A1 = np.asarray(rho)[..., None] * np.einsum("...ij,...j->...i", MtM, q1) / detM[..., None]
    A2 = np.einsum("...ij,...j->...i", MtM, q2) / detM[..., None]
    return A1, A2


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
    grad_phi[:, -1] += c.u
    grad_Phi = gridmod.gradient(g, pair.Psi)
    grad_Phi[:, -1] += c.E
    z = c.Phi0 + pair.Psi

    speed_flat = np.einsum("ni,ni->n", grad_phi, grad_phi)
    rho_flat = law.density(z, speed_flat)
    A_flat = rho_flat[:, None] * grad_phi

    A1_map, A2_map = pullback_operators(law, z, grad_phi, grad_Phi, JT)
    JTq = np.einsum("nij,nj->ni", JT, grad_phi)
    rho_map = law.density(z, np.einsum("ni,ni->n", JTq, JTq))

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
    start: drv.FieldPair | None = None,
):
    """Fixed-point solve of the transformed problem on the reference grid."""
    JT, detJT = jacobian_JT(dmap, state.grid)

    def corrections(pair, Dpsi):
        return correction_terms(state.law, state, JT, detJT, pair, data.b, Dpsi)

    scale = data.sigma + dmap.sigmaG
    pair, report = drv.run_fixed_point(
        config, data, state, start=start, corrections=corrections, scale=scale
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
    phi = c.phi0 + pair.psi
    Phi = c.Phi0 + pair.Psi

    def mass_flux(coords_mid, z_e, q_e):
        JT_e, _ = jacobian_JT_at(dmap, coords_mid)
        A1, _ = pullback_operators(law, z_e, q_e, q_e, JT_e)
        return A1

    def field_flux(coords_mid, z_e, q_e):
        JT_e, _ = jacobian_JT_at(dmap, coords_mid)
        MtM = np.einsum("nki,nkj->nij", JT_e, JT_e)
        det = np.linalg.det(JT_e)
        return np.einsum("nij,nj->ni", MtM, q_e) / det[:, None]

    grad_phi = gridmod.gradient(g, phi)
    div_mass = drv.edge_divergence(g, phi, mass_flux, z=Phi, grad=grad_phi)
    div_field = drv.edge_divergence(g, Phi, field_flux)

    JT, detJT = jacobian_JT(dmap, g)
    JTq = np.einsum("nij,nj->ni", JT, grad_phi)
    rho_map = law.density(Phi, np.einsum("ni,ni->n", JTq, JTq))
    source = (rho_map - data.b) / detJT

    interior = gridmod.interior_mask(g)
    r1 = float(np.max(np.abs(div_mass[interior])))
    r2 = float(np.max(np.abs(div_field[interior] - source[interior])))
    return max(r1, r2), {"mass": r1, "poisson": r2}
