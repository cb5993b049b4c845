"""Nonlinear fixed-point loop around the linearized solver.

Each step evaluates the Taylor remainders at the current iterate, assembles
the right-hand side against the frozen background operator, and solves one
linear mixed boundary-value problem. The loop is plain successive
substitution from the zero pair; contraction factors, subsonic margins, and
strong-form residuals are recorded along the way.
"""

from __future__ import annotations

import json
import random
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import coeffs as cf
from . import elliptic, grid as gridmod, pool
from .elliptic import _along
from .errors import (
    AdmissibilityError,
    DomainError,
    MaxIterationsError,
    NonContractionError,
    SingularAssemblyError,
)
from .gas import GasLaw
from .grid import Nozzle
from .ode1d import BackgroundSolution

# chord-slope denominators closer than this fall back to p'(rho_bg)
CHORD_FALLBACK = 1e-12
# largest relative algebraic residual of a linear solve that a Picard step
# accepts; measured values are 1.5e-15 to 5.6e-15, and the bound is a
# correctness check, not a tuning knob
SOLVE_RESIDUAL_MAX = 1e-8
# memory one ladder rung adds, per grid node: the measured peak of a whole
# 129x129x257 `solve --format vtk` (435.5 MiB over 4.28 M nodes), so it is high
RUNG_BYTES_PER_NODE = 107


@dataclass(frozen=True)
class IterationConfig:
    ball_multiplier: float = 8.0   # radius multiplier M of the iteration ball
    max_iter: int = 30
    tol_floor: float = 1e-10
    tol_scale: float = 1e-3        # tolerance = max(tol_floor, tol_scale*sigma*h^2)


@dataclass(frozen=True)
class Amplitudes:
    """Relative sizes of the data perturbations (all bounded by one)."""

    phi_en: float = 0.5
    phi_ex: float = 1.0
    pex: float = 1.0
    bernoulli: float = 0.25
    charge: float = 0.5


@dataclass(frozen=True)
class ChargeField:
    """The charge b = profile + axial * cross, kept as its separable parts:
    the background profile and the scaled axial mode (n_axial,) and the
    cross mode (cross shape). No reader holds b on every node."""

    profile: np.ndarray
    axial: np.ndarray
    cross: np.ndarray

    def nodal(self, rows=slice(None)):
        """b at the nodes at rows (a slice) of cross axis 0, all by default,
        in C order: the one expression of every reader."""
        return (self.profile + self.axial * self.cross[rows][..., None]).ravel()


@dataclass
class BoundaryData:
    """Perturbed boundary data and charge field at magnitude sigma."""

    sigma: float
    B0: float                 # one-point Bernoulli datum
    phi_en: np.ndarray        # entrance potential difference (cross grid)
    phi_ex: np.ndarray        # exit potential difference (cross grid)
    pex: np.ndarray           # exit pressure (cross grid)
    b: ChargeField            # charge, formed on the nodes where it is read
    Psi_en: np.ndarray
    Psi_ex: np.ndarray


@dataclass
class FieldPair:
    psi: np.ndarray
    Psi: np.ndarray

    def copy(self):
        return FieldPair(self.psi.copy(), self.Psi.copy())

    def sup(self):
        return float(np.max(np.abs(self.psi)) + np.max(np.abs(self.Psi)))


@dataclass
class SolveReport:
    iterations: int
    converged: bool
    diffs: list
    contraction_factors: list
    subsonic_margin: float
    nonlinear_residual: float
    residual_components: dict
    sigma: float
    tol: float
    norm_summary: dict | None = None   # `pair_norms`, set by the commands that write it
    meta: dict = field(default_factory=dict)

    def to_json(self):
        payload = {k: v for k, v in vars(self).items() if k != "meta"}
        payload.update(self.meta)
        return json.dumps(payload, indent=2, sort_keys=True)


def _cross_mode(grid: Nozzle):
    """Cosine cross-section mode with vanishing wall-normal derivative."""
    mode = np.ones(grid.cross_shape())
    for a, (lo, hi) in enumerate(grid.cross_extents):
        x = (grid.axes[a] - lo) / (hi - lo)
        shape = [1] * (grid.dim - 1)
        shape[a] = -1
        mode = mode * np.cos(np.pi * x).reshape(shape)
    return mode


def perturb_data(
    background: BackgroundSolution,
    grid: Nozzle,
    sigma: float,
    amplitudes: Amplitudes | None = None,
) -> BoundaryData:
    """Smooth compatible data perturbations with sup norm bounded by sigma."""
    if sigma < 0.0:
        raise AdmissibilityError("sigma must be nonnegative")
    amp = amplitudes or Amplitudes()
    for name in ("phi_en", "phi_ex", "pex", "bernoulli", "charge"):
        if abs(getattr(amp, name)) > 1.0:
            raise AdmissibilityError(f"amplitude {name} exceeds one")
    mode = _cross_mode(grid)
    phi_en0, B00, pex0 = background.boundary_triple
    phi_en = phi_en0 + sigma * amp.phi_en * mode
    phi_ex = sigma * amp.phi_ex * mode
    pex = pex0 + sigma * amp.pex * mode
    B0 = B00 + sigma * amp.bernoulli

    xn = grid.axes[-1]
    axial_mode = np.cos(np.pi * xn / grid.L)
    b = ChargeField(profile=background.b_values()[background.index_of(xn)],
                    axial=sigma * amp.charge * axial_mode, cross=mode)

    Psi_en = (B0 - B00) + (phi_en - phi_en0)
    Psi_ex = (B0 - B00) + phi_ex
    return BoundaryData(
        sigma=float(sigma), B0=float(B0), phi_en=phi_en, phi_ex=phi_ex,
        pex=pex, b=b, Psi_en=Psi_en, Psi_ex=Psi_ex,
    )


class PicardState:
    """Frozen background, linearization and factorized operator for one grid.

    `coeffs` (an `elliptic.BackgroundCoeffs`) is the one frozen background
    and linearization, kept as axial profiles: the operator is assembled
    from it and the Taylor remainders expand about it. Nodal fields meet
    the profiles through `Nozzle.sections`.
    """

    def __init__(self, law: GasLaw, background: BackgroundSolution, grid: Nozzle):
        self.law = law
        self.background = background
        self.grid = grid
        self.coeffs = c = elliptic.make_coeffs(law, background, grid)
        self.op = elliptic.DiscreteOperator(c, grid)
        self._h_min = min(grid.spacing)

    def exit_datum(self, Dpsi, data: BoundaryData, pex_shift=None, rows=slice(None)):
        """Exit datum of the conormal condition at the current gradient, on
        the exit face of the nodes at rows (a slice) of cross axis 0, all by
        default: Dpsi is the gradient there, and the datum is pointwise."""
        c = self.coeffs
        q = self.grid.rows(rows).face(Dpsi, -1, -1)
        q_tot = q.copy()
        q_tot[..., -1] += c.u[-1]
        z_tot = c.Phi0[-1] + data.Psi_ex[rows]
        rho_t = self.law.density(z_tot, np.einsum("...i,...i->...", q_tot, q_tot))
        drho = rho_t - c.rho_bg[-1]
        pex0 = self.law.pressure(c.rho_bg[-1])
        chord = np.full(drho.shape, c.pprime[-1])
        safe = np.abs(drho) >= CHORD_FALLBACK
        chord[safe] = (self.law.pressure(rho_t[safe]) - pex0) / drho[safe]
        pex = data.pex[rows]
        if pex_shift is not None:
            pex = pex + pex_shift
        # dqB is axial: it meets the axial component of q only
        ghat2 = c.dqB[-1] * q[..., -1] - drho
        return (pex - pex0) / chord + ghat2

    @staticmethod
    def _maxima(part: Nozzle, Psi, Dpsi):
        """max |∇ψ|, max(|Psi| + |∇ψ|) and the max of |∇ψ| over the exit
        rows on the grid part, with Psi and Dpsi its nodal Psi and gradient
        of psi, and |∇ψ| the pointwise norm of Dpsi: the squares summed
        component by component, in order, which gives the bits of
        np.linalg.norm(Dpsi, axis=1) without its copies of Dpsi."""
        with np.errstate(over="ignore"):   # an overflowed norm is inf and trips the checks
            grad_norm = Dpsi[:, 0] * Dpsi[:, 0]
            for i in range(1, Dpsi.shape[1]):
                grad_norm += Dpsi[:, i] * Dpsi[:, i]
            np.sqrt(grad_norm, out=grad_norm)
            return (np.max(grad_norm), np.max(np.abs(Psi) + grad_norm),
                    np.max(part.face(grad_norm, -1, -1)))

    def _outside(self, maxima):
        """A pair's refusal by its ball maxima (`_maxima`) before a step, or None."""
        if maxima[1] >= 3.0 * self.coeffs.delta1:
            return "iterate outside the remainder-definition ball"
        if maxima[2] >= 2.0 * self.coeffs.delta2:
            return "exit gradient outside the admissible ball"

    def step(self, pair: FieldPair, data: BoundaryData, corrections=None,
             iteration=None, admit=None) -> FieldPair:
        """One application of the iteration map. One walk (`grid.walk`, halo one
        row) forms per slab psi's gradient, pair's ball maxima (`_maxima`, folded
        as 0, 1 and 2) and, before the first slab outside a ball (`_outside`),
        the right-hand side (`elliptic.assemble_rhs` of `_linear_data`). Then
        admit(maxima), when given (`run_fixed_point`), and `_outside` check pair
        before the solve. corrections(pair, Dpsi, rows), when given, is called
        per slab with Dpsi psi's gradient there. iteration, the Picard iteration
        this step makes, is named by the residual guard."""
        g, outside = self.grid, None

        def part(sub, rows, own, fold):
            nonlocal outside
            Psi, Dpsi = g.slab(pair.Psi, rows), gridmod.gradient(g, pair.psi, rows)
            slab = self._maxima(sub, Psi, Dpsi)
            for i, m in enumerate(slab):
                fold(i, m)
            outside = outside or self._outside(slab)
            if not outside:
                lin = self._linear_data(sub, rows, pair, Psi, Dpsi, data, corrections)
                del Dpsi    # not held through the assembly, where the step peaks
                return elliptic.assemble_rhs(self.op, lin, rows)

        maxima, rhs = gridmod.walk(g, part, halo=1)
        if admit is not None:
            admit(maxima)
        outside = self._outside(maxima) or outside   # a slab's nan can hide another's breach
        if outside:
            raise AdmissibilityError(outside)
        psi, Psi, residual = elliptic.solve(self.op, rhs)
        if not residual <= SOLVE_RESIDUAL_MAX:
            where = "" if iteration is None else f"Picard iteration {iteration}: "
            raise SingularAssemblyError(
                f"{where}relative residual of the linear solve {residual:.3e} exceeds "
                f"{SOLVE_RESIDUAL_MAX:.0e}"
            )
        return FieldPair(psi=psi, Psi=Psi)

    def _linear_data(self, sub, rows, pair, Psi, Dpsi, data, corrections):
        """The linear data of one step on the grid sub of rows: the Taylor
        remainders, the map corrections and the exit datum, with Psi and
        Dpsi the iterate's Psi and gradient of psi there."""
        c = self.coeffs
        F, f = cf.remainder_fields(self.law, c, Psi, Dpsi)[:2]
        f += (c.b_bg - sub.sections(data.b.nodal(rows))).ravel()
        extra = None
        if corrections is not None:
            extra = corrections(pair, Dpsi, rows)
            F += extra.H1
            f += extra.src2
        g = self.exit_datum(Dpsi, data, None if extra is None else extra.g3, rows)

        lin = elliptic.LinearData(W_en=data.Psi_en[rows], W_ex=data.Psi_ex[rows],
                                  F=F, f=f, g_exit=g)
        if extra is not None:
            # recast wall conditions: conormal data from the map corrections
            lin.F2 = lin.wall_flux_W = extra.H2
            lin.wall_flux_v = extra.H1
        return lin

    def maxima_and_margin(self, pair: FieldPair):
        """The ball maxima (folded as `step` folds them) and the margin min
        p'(rho) - |grad phi|^2 of the last iterate pair, in one walk; a slab
        outside the remainder ball, where rho need not exist, has a nan margin."""
        c, g = self.coeffs, self.grid

        def part(sub, rows, own, fold):
            Psi, Dpsi = g.slab(pair.Psi, rows), gridmod.gradient(g, pair.psi, rows)
            slab = self._maxima(sub, Psi, Dpsi)
            for i, m in enumerate(slab):
                fold(i, m)
            deficit = np.nan
            if not slab[1] >= 3.0 * c.delta1:
                q_tot = sub.sections(Dpsi)
                q_tot[..., -1] += c.u
                speed = np.einsum("cni,cni->cn", q_tot, q_tot)
                rho = self.law.density(c.Phi0 + sub.sections(Psi), speed)
                deficit = -np.min(self.law.dpressure(rho) - speed)
            fold("-margin", deficit)

        maxima = gridmod.walk(g, part)[0]
        return maxima, float(-maxima["-margin"])

    def tolerance(self, scale: float, config: IterationConfig) -> float:
        return max(config.tol_floor, config.tol_scale * scale * self._h_min ** 2)


def run_fixed_point(
    config: IterationConfig,
    data: BoundaryData,
    state: PicardState,
    start: FieldPair | None = None,
    corrections=None,
    scale: float | None = None,
    on_iterate=None,
):
    """Successive substitution from the zero pair, or from start (refused before
    any step if not finite), until the sup difference drops below the tolerance.
    An iterate's gradient is formed once, by the walk of the step that enters it
    or, for the last one, by `PicardState.maxima_and_margin`. Its checks: if a
    step made it, the iteration ball (2 M sigma), then contraction (`admit`);
    then the remainder and exit balls before the step's solve, or convergence,
    then the subsonic margin. The end-plane data are checked once per solve.
    Raises on an admissibility exit, non-contraction, budget exhaustion or no
    margin. The norms are left to the caller (`pair_norms`)."""
    if start is not None and not all(np.isfinite(f).all() for f in (start.psi, start.Psi)):
        raise DomainError("the start pair holds a value that is not finite")
    c = state.coeffs
    scale = data.sigma if scale is None else scale
    if scale > 0.0 and config.ball_multiplier * scale > c.delta3:
        raise AdmissibilityError(
            f"M*sigma = {config.ball_multiplier * scale:.3e} exceeds "
            f"delta3 = {c.delta3:.3e}; refusing to iterate"
        )
    tol = state.tolerance(scale, config)
    elliptic.check_wall_compatibility(data.Psi_en, data.Psi_ex, state.grid)
    N = state.grid.n_nodes
    pair = FieldPair(np.zeros(N), np.zeros(N)) if start is None else start.copy()
    diffs = []
    ratios = []

    def admit(maxima):
        with np.errstate(over="ignore"):   # an overflowed sum is inf and trips the check
            ball = pair.sup() + float(maxima[0])
        if scale > 0.0 and ball > 2.0 * config.ball_multiplier * scale:
            raise AdmissibilityError("iterate left the iteration ball")
        if len(ratios) >= 3 and all(r >= 1.0 for r in ratios[-3:]):
            raise NonContractionError(
                f"difference ratios {ratios[-3:]} show no contraction"
            )

    for k in range(config.max_iter):
        new = state.step(pair, data, corrections, iteration=k + 1, admit=admit if k else None)
        d = float(
            np.max(np.abs(new.psi - pair.psi)) + np.max(np.abs(new.Psi - pair.Psi))
        )
        if diffs and diffs[-1] > 10.0 * tol:
            ratios.append(d / diffs[-1])
        diffs.append(d)
        pair = new
        if on_iterate is not None:
            on_iterate(k + 1, pair)
        if d < tol:
            break
    maxima, margin = state.maxima_and_margin(pair)
    admit(maxima)
    if not (diffs and diffs[-1] < tol):
        raise MaxIterationsError(f"no convergence within {config.max_iter} steps")
    if not margin > 0.0:
        raise AdmissibilityError(f"subsonic margin {margin:.3e} of the fixed point is not positive")
    resid, components = nonlinear_residual(state, pair, data)
    report = SolveReport(
        iterations=len(diffs),
        converged=True,
        diffs=diffs,
        contraction_factors=ratios,
        subsonic_margin=margin,
        nonlinear_residual=resid,
        residual_components=components,
        sigma=data.sigma,
        tol=tol,
        meta={"grid": list(state.grid.shape)},
    )
    return pair, report


# ---------------------------------------------------------------------------
# strong-form residuals


def edge_divergence(grid: Nozzle, scalars, flux_fn, z, grads=None):
    """Compact conservative divergences of fluxes built from edge states.

    For each axis the gradient of every scalar at the edge midpoints uses the
    two-point compact difference along the edge and averaged nodal central
    differences across it. ``flux_fn(axis, axes_e, z_mid, *q_mids)`` takes
    the axis of the edges, the 1D coordinates of their midpoints (the axis
    at its half points), the mean of the nodal field z over each edge
    (n_edges,) and node-major edge gradients (n_edges, d), edges
    in C order, and returns per scalar the axis component of its flux
    (n_edges,), which is differenced. ``grads``, when given, holds the
    nodal gradients of the scalars already computed by the caller (None
    where there is none). Returns one divergence per scalar, valid on
    interior nodes.

    The edges of an axis go to flux_fn in the `grid.slabs` across another axis,
    so the edge temporaries are a slab's, not the grid's. Every operation is
    per edge, so the slabs do not change a bit. In a slab the midpoints of z,
    the edge gradients and the flux differences are formed in their own
    buffers.
    """
    shape = grid.shape
    d = grid.dim
    fields = [np.asarray(s, dtype=float).reshape(shape) for s in scalars]
    grads = [(gridmod.gradient(grid, f) if gr is None else gr).reshape(shape + (d,))
             for f, gr in zip(fields, grads or [None] * len(fields))]
    z_m = np.asarray(z, dtype=float).reshape(shape)
    divs = [np.zeros(shape) for _ in fields]
    for a, h in enumerate(grid.spacing):
        lo, hi = _along(a, slice(0, -1)), _along(a, slice(1, None))
        inner = _along(a, slice(1, -1))
        axes_e = list(grid.axes)
        axes_e[a] = 0.5 * (axes_e[a][:-1] + axes_e[a][1:])
        c = 1 if a == 0 else 0          # the slab axis
        for rows, _ in gridmod.slabs(grid, c):
            slab = _along(c, rows)
            axes_e[c] = grid.axes[c][rows]
            edges = fields[0][slab][lo].shape
            q_mids = []
            for f, gr in zip(fields, grads):
                f, gr = f[slab], gr[slab]
                q_e = np.empty(edges + (d,))
                q_a = np.subtract(f[hi], f[lo], out=q_e[..., a])
                q_a /= h
                for b in range(d):
                    if b != a:
                        q_b = np.add(gr[lo][..., b], gr[hi][..., b], out=q_e[..., b])
                        q_b *= 0.5
                q_mids.append(q_e.reshape(-1, d))
            z_e = np.add(z_m[slab][lo], z_m[slab][hi])
            z_e *= 0.5
            z_e = z_e.ravel()
            fluxes = flux_fn(a, tuple(axes_e), z_e, *q_mids)
            del q_mids, z_e
            diff = np.empty(fields[0][slab][inner].shape)
            for div, flux in zip(divs, fluxes):
                flux = flux.reshape(edges)
                np.subtract(flux[hi], flux[lo], out=diff)
                diff /= h
                div[slab][inner] += diff
            # nothing of this slab is held while the next one is formed
            del fluxes, flux, diff
    return [div.ravel() for div in divs]


def _compact_laplacian(grid: Nozzle, f):
    fm = np.asarray(f).reshape(grid.shape)
    out = np.zeros(grid.shape)
    for a, h in enumerate(grid.spacing):
        inner = _along(a, slice(1, -1))
        hi, lo = _along(a, slice(2, None)), _along(a, slice(0, -2))
        # (fm[hi] - 2 fm[inner] + fm[lo]) / h^2 in one buffer
        term = np.multiply(fm[inner], 2.0)
        np.subtract(fm[hi], term, out=term)
        term += fm[lo]
        term /= h ** 2
        out[inner] += term
    return out.ravel()


def own_interior(grid: Nozzle, rows, own):
    """The grid's interior nodes on own, an index of a field shaped as `grid.rows(rows)`."""
    inner = slice(max(own.start, 1 - rows.start), min(own.stop, grid.shape[0] - 1 - rows.start))
    return (inner,) + (slice(1, -1),) * (grid.dim - 1)


def nonlinear_residual(state: PicardState, pair: FieldPair, data: BoundaryData):
    """Strong-form residuals of the nonlinear problem at (phi0+psi, Phi0+Psi).

    Interior equations use compact conservative stencils; boundary rows check
    the exit pressure, the wall-normal derivatives, and the Dirichlet traces.
    Returns the max residual and a per-component dictionary.

    One walk (`grid.walk`, halo two rows for np.gradient's wall rule) forms per
    slab phi, Phi, grad phi, the mass divergence, the density and the Poisson
    residual, each dropped once folded, so that no nodal field is the grid's.
    """
    g, law, c = state.grid, state.law, state.coeffs
    walls = [face[:2] for face in state.op.quad.wall_faces]

    def mass_flux(axis, axes_e, z_e, q_e):
        flux = law.density(z_e, np.einsum("ni,ni->n", q_e, q_e))
        flux *= q_e[:, axis]
        return (flux,)

    def part(sub, rows, own, fold):
        span = slice(rows.start + own.start, rows.start + own.stop)   # own, in the grid
        # the wall faces that own meets, and the part of each face of sub on own
        faces = [(axis, side, own if axis else slice(None)) for axis, side in walls
                 if axis or (span.start == 0 if side == 0 else span.stop == g.shape[0])]

        phi = (c.phi0 + sub.sections(g.slab(pair.psi, rows))).ravel()
        Phi = (c.Phi0 + sub.sections(g.slab(pair.Psi, rows))).ravel()
        fold("dirichlet_phi", np.abs(sub.face(phi, -1, 0)[own]))
        for side, datum in ((0, data.phi_en), (-1, data.phi_ex)):
            fold("dirichlet_Phi", np.abs(sub.face(Phi, -1, side)[own] - (data.B0 + datum[span])))
        for axis, side, face in faces:
            fold("wall_flux_Phi", np.abs(gridmod.normal_derivative(sub, Phi, axis, side)[face]))

        grad_phi = gridmod.gradient(sub, phi)
        for axis, side, face in faces:
            fold("wall_flux_phi", np.abs(sub.face(grad_phi, axis, side)[face][..., axis]))
        mass, = edge_divergence(sub, (phi,), mass_flux, z=Phi, grads=(grad_phi,))
        del phi
        fold("interior_mass", np.abs(mass.reshape(sub.shape)[own_interior(g, rows, own)]))
        del mass

        rho = law.density(Phi, np.einsum("ni,ni->n", grad_phi, grad_phi))
        del grad_phi
        fold("exit_pressure", np.abs(law.pressure(sub.face(rho, -1, -1)[own]) - data.pex[span]))
        poisson = _compact_laplacian(sub, Phi)
        del Phi
        rho -= data.b.nodal(rows)
        poisson -= rho                  # the Laplacian less (rho - b)
        del rho
        fold("interior_poisson", np.abs(poisson.reshape(sub.shape)[own_interior(g, rows, own)]))

    maxima = gridmod.walk(g, part, halo=2)[0]
    components = {name: float(maxima[name]) for name in (
        "interior_mass", "interior_poisson", "exit_pressure", "wall_flux_phi",
        "wall_flux_Phi", "dirichlet_phi", "dirichlet_Phi")}
    return max(components.values()), components


def residual_floor(state: PicardState, amplitudes: Amplitudes | None = None):
    """Pure-discretization residual: unperturbed data, zero perturbation pair."""
    data0 = perturb_data(state.background, state.grid, 0.0, amplitudes)
    N = state.grid.n_nodes
    return nonlinear_residual(state, FieldPair(np.zeros(N), np.zeros(N)), data0)


# ---------------------------------------------------------------------------
# diagnostics: norms and sweeps


def field_norms(f, grid: Nozzle, quad: elliptic.Quadrature, alpha: float = 0.5,
                seed: int = 42, delta=None):
    """Diagnostic norms: sup, discrete H1 seminorm, Holder seminorms sampled
    on 2000 random node pairs.
    delta, when given, is the grid's `corner_distance`, computed by the caller."""
    f = np.asarray(f, dtype=float)
    # the corner rule gives an edge along axis a the weight h_a times the
    # trapezoid mass of the other axes, so w (G[a] f)^2 sums to these terms
    fm = f.reshape(grid.shape)
    h1_sq = 0.0
    for a, edge_w in enumerate(quad.edge_w):
        df = np.diff(fm, axis=a)
        h1_sq += float(np.sum(edge_w * df * df)) / grid.spacing[a]
    # the stdlib sampler: numpy.random would load OpenSSL through `secrets`
    rng, nodes = random.Random(seed), range(grid.n_nodes)
    i = np.array(rng.choices(nodes, k=2000))
    j = np.array(rng.choices(nodes, k=2000))
    keep = i != j
    i, j = i[keep], j[keep]
    at_i, at_j = np.unravel_index(i, grid.shape), np.unravel_index(j, grid.shape)
    dist = np.linalg.norm(np.stack([ax[a] - ax[b] for ax, a, b in zip(grid.axes, at_i, at_j)],
                                   axis=1), axis=1)
    quot = np.abs(f[i] - f[j]) / dist ** alpha
    if delta is None:
        delta = gridmod.corner_distance(grid)
    weighted = np.minimum(delta[i], delta[j]) ** (1.0 + alpha) * quot
    return {
        "sup": float(np.max(np.abs(f))),
        "h1_seminorm": float(np.sqrt(h1_sq)),
        "calpha_sampled": float(np.max(quot)) if quot.size else 0.0,
        "weighted_calpha_sampled": float(np.max(weighted)) if quot.size else 0.0,
        "alpha": alpha,
    }


def pair_norms(pair: FieldPair, grid: Nozzle, quad: elliptic.Quadrature,
               alpha: float = 0.5, seed: int = 42):
    delta = gridmod.corner_distance(grid)
    return {
        "psi": field_norms(pair.psi, grid, quad, alpha, seed, delta=delta),
        "Psi": field_norms(pair.Psi, grid, quad, alpha, seed, delta=delta),
    }


def loglog_slope(x, y) -> float:
    """Slope of the least-squares line through (log x, log y)."""
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


# ---------------------------------------------------------------------------
# ladders: independent rungs split over the usable CPUs


def _ladder_width(n_rungs, rung_bytes):
    """Processes for a ladder: one per usable CPU and rung, and no more than
    the available memory holds rungs of rung_bytes each (at least one)."""
    w = pool.width(n_rungs)
    if w > 1 and rung_bytes > 0:
        available = pool._available_memory()
        if available is not None:
            w = min(w, max(1, available // rung_bytes))
    return w


def _run_rungs(fn, items, indices):
    """fn(items[i]) for i in indices, in order, until the first rung that
    raises. Every warning a rung issues is recorded, not shown.

    Returns ({i: result}, {i: [(text, category, filename, lineno)]}, and
    (i, exception) for the failing rung or None).
    """
    results, notes = {}, {}
    for i in indices:
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results[i] = fn(items[i])
        except Exception as exc:
            return results, notes, (i, exc)
        finally:
            notes[i] = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
    return results, notes, None


def _reissue(notes):
    """Show recorded warnings through the filters and the registry of the
    module that issued them, as if issued there now. Code without a file
    (`python -c`, stdin) runs in `__main__`."""
    for text, category, filename, lineno in notes:
        module = next((m for m in list(sys.modules.values())
                       if getattr(m, "__file__", None) == filename),
                      sys.modules["__main__"] if filename.startswith("<") else None)
        if module is None:
            warnings.warn_explicit(text, category, filename, lineno)
        else:
            warnings.warn_explicit(text, category, filename, lineno, module.__name__,
                                   vars(module).setdefault("__warningregistry__", {}))


def ladder_map(fn, items, rung_bytes=0):
    """[fn(item) for item in items], the independent rungs of a ladder split
    over the usable CPUs.

    w is min(usable CPUs, rungs), and no more than the available memory over
    rung_bytes, the memory one rung adds while it runs: each process holds
    one rung at a time. With w > 1, this process runs rungs 0, w, 2w, ...
    and forked child j runs rungs j, j + w, ...; the children share the frozen
    state copy-on-write and send back only the results. Rung 0 stays here, so
    work done on the first rung (the first Picard step) is this process's.
    The outcome is the in-process loop's:
    - the results, in rung order, bit for bit;
    - the failure with the lowest rung index is raised; a rung a child
      failed is run again here, so the exception is this process's own;
    - the rungs of a child that ended without a complete result, or that
      could not be forked, run here;
    - the warnings of every rung are shown in rung order, through the
      filters in force here.
    With w = 1, which `pool.width` gives without `os.fork`, with other
    threads running or inside a pool share, it is the plain loop.
    """
    items = list(items)
    w = _ladder_width(len(items), rung_bytes)
    if w <= 1:
        return [fn(item) for item in items]
    # a child stops at its first failing rung, which, like the rungs after
    # it, is missing from what it sends back
    (results, notes, failure), shares = pool.fork_shares(
        w, lambda j: _run_rungs(fn, items, range(j, len(items), w))[:2],
        lambda: _run_rungs(fn, items, range(0, len(items), w)))
    for share_results, share_notes in shares.values():
        results.update(share_results)
        notes.update(share_notes)
    out = []
    for i, item in enumerate(items):
        if i in results:
            _reissue(notes[i])
            out.append(results[i])
        elif failure is not None and failure[0] == i:
            _reissue(notes[i])
            raise failure[1]
        else:
            # a rung a child failed or left undone runs here, as in the loop
            out.append(fn(item))
    return out


def stability_sweep(
    config: IterationConfig,
    state: PicardState,
    sigmas,
    amplitudes: Amplitudes | None = None,
) -> dict:
    """Fixed-point solves over a sigma ladder with log-log slope fits.

    Per sigma: the fixed-point sup norm, the first contraction factor (nan
    without one), the Picard iterations and the strong residual. The norm
    slope fits the sup norms, the contraction slope the finite positive
    factors (nan with fewer than two).
    """
    sigmas = [float(s) for s in sigmas if s > 0.0]
    if len(set(sigmas)) < 2:
        raise DomainError("a slope fit needs at least two distinct positive sigmas")

    def rung(sigma):
        data = perturb_data(state.background, state.grid, sigma, amplitudes)
        pair, report = run_fixed_point(config, data, state)
        factors = report.contraction_factors
        return (pair.sup(), factors[0] if factors else np.nan,
                report.iterations, report.nonlinear_residual)

    keys = ("sup_norms", "contraction_factors", "iterations", "nonlinear_residuals")
    results = ladder_map(rung, sigmas, RUNG_BYTES_PER_NODE * state.grid.n_nodes)
    rows = {key: list(column) for key, column in zip(keys, zip(*results))}
    contr = np.asarray(rows["contraction_factors"], dtype=float)
    good = np.isfinite(contr) & (contr > 0.0)
    if np.sum(good) >= 2:
        slope_contraction = loglog_slope(np.asarray(sigmas)[good], contr[good])
    else:
        slope_contraction = float("nan")
    return {"sigmas": sigmas, **rows,
            "slope_norm": loglog_slope(sigmas, rows["sup_norms"]),
            "slope_contraction": slope_contraction}
