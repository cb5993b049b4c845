"""Nonlinear fixed-point loop around the linearized solver.

Each step evaluates the Taylor remainders at the current iterate, assembles
the right-hand side against the frozen background operator, and solves one
linear mixed boundary-value problem. The loop is plain successive
substitution from the zero pair; contraction factors, subsonic margins, and
strong-form residuals are recorded along the way.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import coeffs as cf
from . import elliptic, grid as gridmod
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


@dataclass(frozen=True)
class IterationConfig:
    ball_multiplier: float = 8.0   # radius multiplier M of the iteration ball
    max_iter: int = 30
    tol_floor: float = 1e-10
    tol_scale: float = 1e-3        # tolerance = max(tol_floor, tol_scale*sigma*h^2)
    seed: int = 42


@dataclass(frozen=True)
class Amplitudes:
    """Relative sizes of the data perturbations (all bounded by one)."""

    phi_en: float = 0.5
    phi_ex: float = 1.0
    pex: float = 1.0
    bernoulli: float = 0.25
    charge: float = 0.5


@dataclass
class BoundaryData:
    """Perturbed boundary data and charge field at magnitude sigma."""

    sigma: float
    B0: float                 # one-point Bernoulli datum
    phi_en: np.ndarray        # entrance potential difference (cross grid)
    phi_ex: np.ndarray        # exit potential difference (cross grid)
    pex: np.ndarray           # exit pressure (cross grid)
    b: np.ndarray             # charge on all nodes
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
    norm_summary: dict
    sigma: float
    tol: float
    meta: dict = field(default_factory=dict)

    def to_json(self, **extra):
        payload = {
            "iterations": self.iterations,
            "converged": self.converged,
            "diffs": list(map(float, self.diffs)),
            "contraction_factors": list(map(float, self.contraction_factors)),
            "subsonic_margin": self.subsonic_margin,
            "nonlinear_residual": self.nonlinear_residual,
            "residual_components": self.residual_components,
            "norm_summary": self.norm_summary,
            "sigma": self.sigma,
            "tol": self.tol,
        }
        payload.update(self.meta)
        payload.update(extra)
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

    axial_mode = np.cos(np.pi * grid.coords[:, -1] / grid.L)
    cross_on_nodes = np.broadcast_to(
        mode[..., None], grid.shape
    ).ravel()
    b_bg = background.b_values()[background.index_of(grid.coords[:, -1])]
    b = b_bg + sigma * amp.charge * axial_mode * cross_on_nodes

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
        self.exit_idx = self.op.quad.exit_idx
        self._h_min = min(grid.spacing)

    def exit_datum(self, Dpsi, data: BoundaryData, pex_shift=None):
        """Exit datum of the conormal condition at the current gradient."""
        c = self.coeffs
        q = Dpsi[self.exit_idx]
        q_tot = q.copy()
        q_tot[:, -1] += c.u[-1]
        z_tot = c.Phi0[-1] + data.Psi_ex.ravel()
        rho_t = self.law.density(z_tot, np.einsum("ni,ni->n", q_tot, q_tot))
        drho = rho_t - c.rho_bg[-1]
        pex0 = self.law.pressure(c.rho_bg[-1])
        chord = np.full(drho.shape, c.pprime[-1])
        safe = np.abs(drho) >= CHORD_FALLBACK
        chord[safe] = (self.law.pressure(rho_t[safe]) - pex0) / drho[safe]
        pex = data.pex.ravel()
        if pex_shift is not None:
            pex = pex + pex_shift
        # dqB is axial: it meets the axial component of q only
        ghat2 = c.dqB[-1] * q[:, -1] - drho
        return (pex - pex0) / chord + ghat2

    def step(self, pair: FieldPair, data: BoundaryData, corrections=None,
             Dpsi=None, grad_norm=None) -> FieldPair:
        """One application of the iteration map. Dpsi and grad_norm, when
        given, are the nodal gradient of pair.psi and its pointwise norm,
        already computed by the caller."""
        c = self.coeffs
        if Dpsi is None:
            Dpsi = gridmod.gradient(self.grid, pair.psi)
            grad_norm = None
        with np.errstate(over="ignore"):   # an overflowed norm is inf and trips the check
            if grad_norm is None:
                grad_norm = np.linalg.norm(Dpsi, axis=1)
            if np.max(np.abs(pair.Psi) + grad_norm) >= 3.0 * c.delta1:
                raise AdmissibilityError("iterate outside the remainder-definition ball")
            if np.max(grad_norm[self.exit_idx]) >= 2.0 * c.delta2:
                raise AdmissibilityError("exit gradient outside the admissible ball")

        F, f, _ = cf.remainder_fields(self.law, c, pair.Psi, Dpsi)
        f_tot = f + (c.b_bg - self.grid.sections(data.b)).ravel()
        extra = None
        if corrections is not None:
            extra = corrections(pair, Dpsi)
            F = F + extra.H1
            f_tot = f_tot + extra.src2
        g = self.exit_datum(Dpsi, data, None if extra is None else extra.g3)

        lin = elliptic.LinearData(
            W_en=data.Psi_en, W_ex=data.Psi_ex, F=F, f=f_tot, g_exit=g,
        )
        if extra is not None:
            # recast wall conditions: conormal data from the map corrections
            lin.F2 = extra.H2
            lin.wall_flux_v = [
                sign * extra.H1[fidx, axis]
                for (axis, sign, fidx, fw) in self.op.quad.wall_faces
            ]
            lin.wall_flux_W = [
                sign * extra.H2[fidx, axis]
                for (axis, sign, fidx, fw) in self.op.quad.wall_faces
            ]
        psi, Psi, residual = elliptic.solve(self.op, lin)
        if not residual <= SOLVE_RESIDUAL_MAX:
            raise SingularAssemblyError(
                f"relative residual of the linear solve {residual:.3e} exceeds "
                f"{SOLVE_RESIDUAL_MAX:.0e}"
            )
        return FieldPair(psi=psi, Psi=Psi)

    def subsonic_margin(self, pair: FieldPair, Dpsi) -> float:
        """Min of p'(rho) - |grad phi|^2 at the iterate; Dpsi is the nodal
        gradient of pair.psi."""
        c, sections = self.coeffs, self.grid.sections
        q_tot = sections(Dpsi).copy()
        q_tot[..., -1] += c.u
        speed = np.einsum("cni,cni->cn", q_tot, q_tot)
        rho = self.law.density(c.Phi0 + sections(pair.Psi), speed)
        return float(np.min(self.law.dpressure(rho) - speed))

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
    """Successive substitution from the zero pair until the sup difference
    drops below the tolerance. Raises on non-contraction, admissibility exit
    or iteration-budget exhaustion."""
    c = state.coeffs
    scale = data.sigma if scale is None else scale
    if scale > 0.0 and config.ball_multiplier * scale > c.delta3:
        raise AdmissibilityError(
            f"M*sigma = {config.ball_multiplier * scale:.3e} exceeds "
            f"delta3 = {c.delta3:.3e}; refusing to iterate"
        )
    tol = state.tolerance(scale, config)
    N = state.grid.n_nodes
    pair = start.copy() if start is not None else FieldPair(np.zeros(N), np.zeros(N))
    diffs = []
    ratios = []
    converged = False
    # gradient of pair.psi and its norm, handed from the ball check to the next step
    Dpsi = grad_norm = None
    for k in range(config.max_iter):
        new = state.step(pair, data, corrections, Dpsi=Dpsi, grad_norm=grad_norm)
        d = float(
            np.max(np.abs(new.psi - pair.psi)) + np.max(np.abs(new.Psi - pair.Psi))
        )
        if diffs and diffs[-1] > 10.0 * tol:
            ratios.append(d / diffs[-1])
        diffs.append(d)
        pair = new
        if on_iterate is not None:
            on_iterate(k + 1, pair)
        Dpsi = gridmod.gradient(state.grid, pair.psi)
        with np.errstate(over="ignore"):   # an overflowed norm is inf and trips the check
            grad_norm = np.linalg.norm(Dpsi, axis=1)
            ball = pair.sup() + float(np.max(grad_norm))
        if scale > 0.0 and ball > 2.0 * config.ball_multiplier * scale:
            raise AdmissibilityError("iterate left the iteration ball")
        if len(ratios) >= 3 and all(r >= 1.0 for r in ratios[-3:]):
            raise NonContractionError(
                f"difference ratios {ratios[-3:]} show no contraction"
            )
        if d < tol:
            converged = True
            break
    if not converged:
        raise MaxIterationsError(f"no convergence within {config.max_iter} steps")

    margin = state.subsonic_margin(pair, Dpsi)
    resid, components = nonlinear_residual(state, pair, data)
    report = SolveReport(
        iterations=len(diffs),
        converged=True,
        diffs=diffs,
        contraction_factors=ratios,
        subsonic_margin=margin,
        nonlinear_residual=resid,
        residual_components=components,
        norm_summary=pair_norms(pair, state.grid, state.op.quad, seed=config.seed),
        sigma=data.sigma,
        tol=tol,
        meta={"grid": list(state.grid.shape)},
    )
    return pair, report


# ---------------------------------------------------------------------------
# strong-form residuals


def edge_divergence(grid: Nozzle, scalars, flux_fn, z=None, grads=None):
    """Compact conservative divergences of fluxes built from edge states.

    For each axis the gradient of every scalar at the edge midpoints uses the
    two-point compact difference along the edge and averaged nodal central
    differences across it; ``flux_fn(axis, z_mid, *q_mids)`` takes the axis
    of the edges and node-major edge gradients (n_edges, d), edges in C
    order, and returns one component-major flux (d, n_edges) per scalar,
    whose axis components are differenced. ``grads``, when given, holds the
    nodal gradients of the scalars already computed by the caller (None
    where there is none). Returns one divergence per scalar, valid on
    interior nodes.
    """
    shape = grid.shape
    d = grid.dim
    fields = [np.asarray(s, dtype=float).reshape(shape) for s in scalars]
    grads = [(gridmod.gradient(grid, f) if gr is None else gr).reshape(shape + (d,))
             for f, gr in zip(fields, grads or [None] * len(fields))]
    z_m = None if z is None else np.asarray(z, dtype=float).reshape(shape)
    divs = [np.zeros(shape) for _ in fields]
    for a, h in enumerate(grid.spacing):
        lo, hi = _along(a, slice(0, -1)), _along(a, slice(1, None))
        edges = fields[0][lo].shape
        q_mids = []
        for f, gr in zip(fields, grads):
            q_e = np.empty(edges + (d,))
            q_e[..., a] = (f[hi] - f[lo]) / h
            for b in range(d):
                if b != a:
                    q_e[..., b] = 0.5 * (gr[lo][..., b] + gr[hi][..., b])
            q_mids.append(q_e.reshape(-1, d))
        z_e = None if z_m is None else (0.5 * (z_m[lo] + z_m[hi])).ravel()
        for div, flux in zip(divs, flux_fn(a, z_e, *q_mids)):
            flux_a = flux[a].reshape(edges)
            div[_along(a, slice(1, -1))] += (flux_a[hi] - flux_a[lo]) / h
        # release this axis's fluxes before the next axis builds its own
        del flux, flux_a
    return [div.ravel() for div in divs]


def _compact_laplacian(grid: Nozzle, f):
    fm = np.asarray(f).reshape(grid.shape)
    out = np.zeros(grid.shape)
    for a, h in enumerate(grid.spacing):
        inner = _along(a, slice(1, -1))
        hi, lo = _along(a, slice(2, None)), _along(a, slice(0, -2))
        out[inner] += (fm[hi] - 2.0 * fm[inner] + fm[lo]) / h ** 2
    return out.ravel()


def nonlinear_residual(state: PicardState, pair: FieldPair, data: BoundaryData):
    """Strong-form residuals of the nonlinear problem at (phi0+psi, Phi0+Psi).

    Interior equations use compact conservative stencils; boundary rows check
    the exit pressure, the wall-normal derivatives, and the Dirichlet traces.
    Returns the max residual and a per-component dictionary.
    """
    g = state.grid
    law = state.law
    c = state.coeffs
    phi = (c.phi0 + g.sections(pair.psi)).ravel()
    Phi = (c.Phi0 + g.sections(pair.Psi)).ravel()

    grad_phi = gridmod.gradient(g, phi)
    speed = np.einsum("ni,ni->n", grad_phi, grad_phi)
    rho = law.density(Phi, speed)

    def mass_flux(axis, z_e, q_e):
        rho_e = law.density(z_e, np.einsum("ni,ni->n", q_e, q_e))
        return (rho_e * q_e.T,)

    interior = gridmod.interior_mask(g)
    mass, = edge_divergence(g, (phi,), mass_flux, z=Phi, grads=(grad_phi,))
    poisson = _compact_laplacian(g, Phi) - (rho - data.b)

    exit_idx = state.exit_idx
    exit_pressure = np.abs(law.pressure(rho[exit_idx]) - data.pex.ravel())

    grad_Phi = gridmod.gradient(g, Phi)
    wall_phi = 0.0
    wall_Phi = 0.0
    for axis, sign, fidx, _ in state.op.quad.wall_faces:
        wall_phi = max(wall_phi, float(np.max(np.abs(grad_phi[fidx, axis]))))
        wall_Phi = max(wall_Phi, float(np.max(np.abs(grad_Phi[fidx, axis]))))

    en_idx = state.op.quad.entrance_idx
    dirichlet_phi = float(np.max(np.abs(phi[en_idx])))
    dirichlet_Phi = max(
        float(np.max(np.abs(Phi[en_idx] - (data.B0 + data.phi_en.ravel())))),
        float(np.max(np.abs(Phi[exit_idx] - (data.B0 + data.phi_ex.ravel())))),
    )

    components = {
        "interior_mass": float(np.max(np.abs(mass[interior]))),
        "interior_poisson": float(np.max(np.abs(poisson[interior]))),
        "exit_pressure": float(np.max(exit_pressure)),
        "wall_flux_phi": wall_phi,
        "wall_flux_Phi": wall_Phi,
        "dirichlet_phi": dirichlet_phi,
        "dirichlet_Phi": dirichlet_Phi,
    }
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
    rng = np.random.default_rng(seed)
    i = rng.integers(0, grid.n_nodes, size=2000)
    j = rng.integers(0, grid.n_nodes, size=2000)
    keep = i != j
    i, j = i[keep], j[keep]
    dist = np.linalg.norm(grid.coords[i] - grid.coords[j], axis=1)
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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:        # no affinity call on this platform
        return os.cpu_count() or 1


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


def _fork_share(fn, items, indices):
    """Fork a child that runs its share of the rungs and pickles their
    results and warnings back over a pipe. It stops at its first failing
    rung, which, like the rungs after it, is missing from what it sends.
    Returns the child's pid and the read end of the pipe."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            results, notes, _ = _run_rungs(fn, items, indices)
            payload = pickle.dumps((results, notes), pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            code = 0
        finally:
            os._exit(code)        # no atexit handler, no flush of inherited buffers
    os.close(write_fd)
    return pid, read_fd


def _read_all(fd) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def ladder_map(fn, items):
    """[fn(item) for item in items], the independent rungs of a ladder split
    over the usable CPUs.

    With w = min(usable CPUs, rungs) > 1, this process runs rungs 0, w, 2w, ...
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
    With w = 1, without `os.fork`, or with other threads running (a fork
    copies no thread but the caller), it is the plain loop.
    """
    items = list(items)
    w = min(_usable_cpus(), len(items))
    if w <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(item) for item in items]
    children = []          # (pid, read end of its pipe), each reaped below
    try:
        for j in range(1, w):
            try:
                children.append(_fork_share(fn, items, range(j, len(items), w)))
            except OSError:   # no process to spare: the missing shares run here
                break
        results, notes, failure = _run_rungs(fn, items, range(0, len(items), w))
        payloads = [_read_all(read_fd) for _, read_fd in children]
    except BaseException:
        from signal import SIGKILL   # on this path only: the module costs import time
        for pid, _ in children:
            os.kill(pid, SIGKILL)
        raise
    finally:
        statuses = []
        for pid, read_fd in children:
            os.close(read_fd)
            statuses.append(os.waitpid(pid, 0)[1])
    for payload, status in zip(payloads, statuses):
        if os.waitstatus_to_exitcode(status) == 0:   # else the payload may be cut short
            share_results, share_notes = pickle.loads(payload)
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


@dataclass
class SweepReport:
    sigmas: list
    sup_norms: list
    contraction: list
    slope_norm: float
    slope_contraction: float
    reports: list


def stability_sweep(
    config: IterationConfig,
    state: PicardState,
    sigmas,
    amplitudes: Amplitudes | None = None,
) -> SweepReport:
    """Fixed-point solves over a sigma ladder with log-log slope fits."""
    sigmas = [s for s in sigmas if s > 0.0]
    if len(set(sigmas)) < 2:
        raise DomainError("a slope fit needs at least two distinct positive sigmas")

    def rung(sigma):
        data = perturb_data(state.background, state.grid, sigma, amplitudes)
        pair, report = run_fixed_point(config, data, state)
        return pair.sup(), report

    sups, reports = zip(*ladder_map(rung, sigmas))
    contractions = [r.contraction_factors[0] if r.contraction_factors else np.nan
                    for r in reports]
    contr = np.asarray(contractions, dtype=float)
    good = np.isfinite(contr) & (contr > 0.0)
    if np.sum(good) >= 2:
        slope_contraction = loglog_slope(np.asarray(sigmas)[good], contr[good])
    else:
        slope_contraction = float("nan")
    return SweepReport(
        sigmas=list(map(float, sigmas)),
        sup_norms=list(map(float, sups)),
        contraction=list(map(float, contractions)),
        slope_norm=loglog_slope(sigmas, sups),
        slope_contraction=slope_contraction,
        reports=list(reports),
    )
