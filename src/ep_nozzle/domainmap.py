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
jacobian_JT returns with J_T. J_T is kept as its nonzero entries, each one
contiguous array over the points, and vectors are component-major (d, ...):
the products stream contiguous arrays and skip the structural zeros and
ones of the shear's J_T.
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


def _JT_times(JT, q):
    """J_T q for the shear's J_T = (diag, axial) and a component-major q (d, ...)."""
    diag, axial = JT
    out = np.empty(q.shape)
    for a, d_a in enumerate(diag):
        np.multiply(d_a, q[a], out=out[a])
    np.multiply(axial[0], q[0], out=out[-1])
    for a in range(1, len(axial)):
        out[-1] += axial[a] * q[a]
    out[-1] += q[-1]
    return out


def _JT_transpose_times(JT, p, axis=None):
    """J_T^T p for the shear's J_T = (diag, axial) and a component-major p
    (d, ...), in place; with an axis, only row axis of it, and p is kept.
    The cross rows are diag[a] p_a + axial[a] p_n; the axial row is p_n."""
    diag, axial = JT
    if axis == len(diag):
        return p[-1]
    for a in range(len(diag)) if axis is None else (axis,):
        row = np.multiply(p[a], diag[a], out=p[a] if axis is None else None)
        row += axial[a] * p[-1]
    return p if axis is None else row


def _sqnorm(v):
    """|v|^2 of a component-major vector (k, ...)."""
    out = v[0] * v[0]
    for c in v[1:]:
        out += c * c
    return out


def jacobian_JT(shear: WallShear, axes):
    """Inverse-map Jacobian J_T = M^{-T} by its nonzero entries, and
    det J_T = 1 / det M, on the tensor product of axes.

    axes holds one 1D coordinate array per axis, axial last, and the points
    are numbered in C order: the grid axes give the nodes, and one axis
    replaced by its half points gives the edge midpoints along it. The
    factors w_a, w_a', s and s' are evaluated on the axes only.

    The forward Jacobian is M = [[A, b], [0, 1]] with the diagonal cross block
    A_aa = 1 + eps w_a' s and b_a = eps w_a s', so det M = prod_a A_aa, the
    cross block of M^{-T} is diagonal with entries (prod_{b != a} A_bb) /
    det M, and its axial row is -b_a times them:
    J_T = [[diag(1 / A_aa), 0], [-b_a / A_aa, 1]]. Returns J_T as
    (diag, axial) with diag[a] = J_T[a, a] and axial[a] = J_T[-1, a], one
    (n_points,) array per cross axis a, and det J_T (n_points,). A non-finite
    or nonpositive determinant is a fold-over (a nan fails both tests); a map
    that overflows gives one, so it is evaluated without overflow warnings.
    """
    *cross, xn = np.meshgrid(*axes, indexing="ij", sparse=True)
    dc = len(cross)
    s, ds = shear.axial(xn)
    with np.errstate(over="ignore", invalid="ignore"):
        factors = [shear.cross(a, x) for a, x in enumerate(cross)]
        A = [1.0 + shear.eps * dw * s for _, dw in factors]
        minus_b = [-shear.eps * w * ds for w, _ in factors]
        detM = A[0] * A[1] if dc == 2 else A[0]
    if not (np.min(detM) > 0.0 and np.max(detM) < np.inf):
        raise FoldOverError("deformation folds over: nonpositive or non-finite Jacobian determinant")
    diag = [A[1 - a] / detM for a in range(dc)] if dc == 2 else [1.0 / detM]
    axial = tuple((d_a * mb_a).ravel() for d_a, mb_a in zip(diag, minus_b))
    return (tuple(d_a.ravel() for d_a in diag), axial), (1.0 / detM if dc == 2 else diag[0]).ravel()


def _field_map(JT, q, detJT, axis=None):
    """J_T^T J_T q / det J_T, component-major, or its row axis alone, for the
    shear's J_T and a component-major q."""
    return _JT_transpose_times(JT, _JT_times(JT, q), axis) / detJT


def _mass_map(law: GasLaw, z, q, JT, detJT, axis=None):
    """rho J_T^T J_T q / det J_T, component-major, or its row axis alone, and
    rho = rho(z, |J_T q|^2), for the shear's J_T and a component-major q."""
    JTq = _JT_times(JT, q)
    rho = law.density(z, _sqnorm(JTq))
    return rho * _JT_transpose_times(JT, JTq, axis) / detJT, rho


@dataclass
class Corrections:
    H1: np.ndarray     # (N, d)
    H2: np.ndarray     # (N, d)
    src2: np.ndarray   # (N,)
    g3: np.ndarray     # exit-plane pressure shift (cross shape)


def correction_terms(
    state: drv.PicardState,
    shear: WallShear,
    pair: drv.FieldPair,
    b: drv.ChargeField,
    Dpsi: np.ndarray | None = None,
    rows=slice(None),
):
    """Recast sources at the current iterate for the transformed problem
    under shear, on the nodes at rows (a slice) of cross axis 0, all by
    default. Dpsi, when given, is the gradient of pair.psi there. J_T is
    formed on the rows alone (`jacobian_JT`); the gradients are the whole
    grid's on the rows (`grid.gradient`) and every other term is pointwise,
    so the rows get the whole grid's bits."""
    g = state.grid
    c = state.coeffs
    law = state.law
    sub = g.rows(rows)
    JT, detJT = jacobian_JT(shear, sub.axes)
    if Dpsi is None:
        Dpsi = gridmod.gradient(g, pair.psi, rows)
    grad_phi = Dpsi.copy()
    sub.sections(grad_phi)[..., -1] += c.u
    grad_Phi = gridmod.gradient(g, pair.Psi, rows)
    sub.sections(grad_Phi)[..., -1] += c.E
    z = (c.Phi0 + sub.sections(g.slab(pair.Psi, rows))).ravel()

    speed_flat = _sqnorm(grad_phi.T)
    rho_flat = law.density(z, speed_flat)
    A_flat = rho_flat[:, None] * grad_phi

    A1_map, rho_map = _mass_map(law, z, grad_phi.T, JT, detJT)
    H1 = A_flat - A1_map.T
    del A1_map  # released before the field map
    H2 = grad_Phi - _field_map(JT, grad_Phi.T, detJT).T
    b = b.nodal(rows)
    src2 = (rho_map - b) / detJT - (rho_flat - b)
    g3 = law.pressure(sub.face(rho_flat, -1, -1)) - law.pressure(sub.face(rho_map, -1, -1))
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
    def corrections(pair, Dpsi, rows):
        return correction_terms(state, shear, pair, data.b, Dpsi, rows)

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

    Per slab (`driver.residual_slabs`) it forms phi, Phi, grad phi, the two
    divergences, the nodal J_T and the mapped source, folds the slab's
    maxima and drops them: the whole grid's maxima, bit for bit.
    """
    g = state.grid
    law = state.law
    c = state.coeffs
    maxima = {}

    def fluxes(axis, axes_e, z_e, q_phi, q_Phi):
        # one edge Jacobian, at the midpoints of the edges along axis,
        # serves the mass and the field flux; only their axis rows are read
        JT_e, detJT_e = jacobian_JT(shear, axes_e)
        return (_mass_map(law, z_e, q_phi.T, JT_e, detJT_e, axis)[0],
                _field_map(JT_e, q_Phi.T, detJT_e, axis))

    for rows, _, sub, interior in drv.residual_slabs(g):
        phi = (c.phi0 + sub.sections(g.slab(pair.psi, rows))).ravel()
        Phi = (c.Phi0 + sub.sections(g.slab(pair.Psi, rows))).ravel()
        grad_phi = gridmod.gradient(sub, phi)
        div_mass, div_field = drv.edge_divergence(sub, (phi, Phi), fluxes, z=Phi,
                                                  grads=(grad_phi, None))
        drv._fold(maxima, "mass", np.abs(div_mass.reshape(sub.shape)[interior]))
        del phi, div_mass
        JT, detJT = jacobian_JT(shear, sub.axes)
        source = law.density(Phi, _sqnorm(_JT_times(JT, grad_phi.T)))
        del Phi, grad_phi, JT
        source -= data.b.nodal(rows)
        source /= detJT
        div_field -= source
        drv._fold(maxima, "poisson", np.abs(div_field.reshape(sub.shape)[interior]))
        del source, detJT, div_field

    r1, r2 = (float(np.max(maxima[name])) for name in ("mass", "poisson"))
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

    def sup_corrections(shear):
        # sup |H1| and sup |H2| at the zero pair, folded per slab of cross axis 0
        per_slab = []
        for rows, _ in gridmod.slabs(g, 0):
            corr = correction_terms(state, shear, zero, data.b, rows=rows)
            per_slab.append((np.max(np.abs(corr.H1)), np.max(np.abs(corr.H2))))
        return [float(np.max(column)) for column in zip(*per_slab)]

    def rung(e):
        shear = shear_map(e, g.L, g.cross_extents)
        sup_H1, sup_H2 = sup_corrections(shear)
        pair, report = solve_perturbed(shear, config, data, state)
        resid, _ = pushforward_residual(shear, state, pair, data)
        return pair.sup(), sup_H1, sup_H2, report.iterations, resid

    keys = ("sup_norms", "sup_H1", "sup_H2", "iterations", "pushforward_residuals")
    results = drv.ladder_map(rung, eps, drv.RUNG_BYTES_PER_NODE * g.n_nodes)
    rows = {key: list(column) for key, column in zip(keys, zip(*results))}
    return {"eps": eps, **rows,
            "slope_response": drv.loglog_slope(eps, rows["sup_norms"]),
            "slope_corrections": drv.loglog_slope(eps, rows["sup_H1"])}
