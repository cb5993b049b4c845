"""One-dimensional background flows.

Fixed-step RK4 integration of the reduced (rho, E) system at constant mass
flux, bookkeeping between initial data and boundary data, a shooting solver
for the two-point density problem, and the monotone-orbit admissibility test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BreakdownError,
    DomainError,
    MaxIterationsError,
    NoBracketError,
    SonicBreakdown,
    VacuumBreakdown,
)
from .gas import GasLaw

SONIC_GUARD = 1e-6  # abort when |rho^2 p'(rho) - J0^2| < guard * J0^2


@dataclass(frozen=True)
class OneDParams:
    """Initial data for the axial integration: rho u = J0, rho(0), E(0)."""

    J0: float
    rho0: float
    E0: float
    L: float
    b: object = 1.0  # constant or callable charge profile on [0, L]

    def __post_init__(self):
        if self.J0 <= 0.0 or self.rho0 <= 0.0 or self.L <= 0.0:
            raise DomainError("J0, rho0 and L must be positive")
        probe = self.b_at(np.linspace(0.0, self.L, 65))
        if np.any(np.asarray(probe) <= 0.0):
            raise DomainError("background charge must be positive on [0, L]")

    def b_at(self, x):
        if callable(self.b):
            return np.asarray(self.b(x), dtype=float)
        return np.full_like(np.asarray(x, dtype=float), float(self.b))


@dataclass(frozen=True)
class BackgroundSolution:
    """Sampled axial profiles plus the boundary data they induce."""

    xs: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    E: np.ndarray
    phi0: np.ndarray
    Phi0: np.ndarray
    J0: float
    nu0: float
    phi_en0: float
    B00: float
    pex0: float
    law: GasLaw
    params: OneDParams

    @property
    def boundary_triple(self):
        return (self.phi_en0, self.B00, self.pex0)

    def b_values(self):
        return self.params.b_at(self.xs)

    def index_of(self, xn):
        """Indices of axial stations, which must align with the ODE grid."""
        xn = np.asarray(xn, dtype=float)
        h = self.xs[1] - self.xs[0]
        idx = np.rint(xn / h).astype(int)
        if np.max(np.abs(self.xs[idx] - xn)) > 1e-9 * max(self.params.L, 1.0):
            raise DomainError("axial stations do not align with the ODE grid")
        return idx


def sonic_density(law: GasLaw, J0: float) -> float:
    """Density where rho^2 p'(rho) = J0^2 (polytropic closed form)."""
    return float((J0 * J0 / law.gamma) ** (1.0 / (law.gamma + 1.0)))


def _scalar_rhs(law: GasLaw, params: OneDParams):
    """Guarded scalar right-hand side, free of array overhead."""
    gamma = law.gamma
    floor = law.rho_floor
    J0_sq = params.J0 ** 2
    guard = SONIC_GUARD * J0_sq
    if callable(params.b):
        bfn = lambda x: float(params.b(x))
    else:
        b0 = float(params.b)
        bfn = lambda x: b0

    def rhs(x, rho, E):
        if rho <= floor:
            raise VacuumBreakdown(x)
        denom = gamma * rho ** (gamma + 1.0) - J0_sq
        if abs(denom) < guard:
            raise SonicBreakdown(x)
        return rho ** 3 * E / denom, rho - bfn(x)

    return rhs


def aligned_steps(base: int, intervals: int) -> int:
    """Step count nearest base that puts `intervals` equal axial cells on ODE nodes."""
    return intervals * max(1, round(base / intervals))


def integrate_ivp(law: GasLaw, params: OneDParams, n_steps: int = 1024) -> BackgroundSolution:
    """Classical RK4 on (rho, E) with sonic/vacuum guards at every stage; a
    float overflow of the right-hand side or of the state is a breakdown at
    the step's start."""
    if n_steps < 16:
        raise DomainError("n_steps must be at least 16")
    h = params.L / n_steps
    xs = np.linspace(0.0, params.L, n_steps + 1)
    rho = np.empty(n_steps + 1)
    E = np.empty(n_steps + 1)
    rho[0], E[0] = params.rho0, params.E0
    r, e = float(params.rho0), float(params.E0)
    x = xs[0]
    try:
        rhs = _scalar_rhs(law, params)
        for i in range(n_steps):
            x = xs[i]
            k1 = rhs(x, r, e)
            k2 = rhs(x + 0.5 * h, r + 0.5 * h * k1[0], e + 0.5 * h * k1[1])
            k3 = rhs(x + 0.5 * h, r + 0.5 * h * k2[0], e + 0.5 * h * k2[1])
            k4 = rhs(x + h, r + h * k3[0], e + h * k3[1])
            r = r + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            e = e + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            if not (math.isfinite(r) and math.isfinite(e)):   # overflowed without raising
                raise BreakdownError("overflow", x)
            rho[i + 1] = r
            E[i + 1] = e
            if r <= law.rho_floor:
                raise VacuumBreakdown(xs[i + 1])
    except OverflowError:
        raise BreakdownError("overflow", x) from None
    u = params.J0 / rho
    margin = law.dpressure(rho) - u * u
    if np.min(margin) <= 0.0:
        raise SonicBreakdown(xs[int(np.argmin(margin))])
    phi0, Phi0, triple = build_background(law, xs, rho, E, params.J0)
    return BackgroundSolution(
        xs=xs, rho=rho, u=u, E=E, phi0=phi0, Phi0=Phi0,
        J0=params.J0, nu0=float(np.min(margin)),
        phi_en0=triple[0], B00=triple[1], pex0=triple[2],
        law=law, params=params,
    )


def _simpson_pairs(y, dx):
    """Simpson integral over the first interval of each pair (dx[i], dx[i+1])."""
    x21, x32 = dx[:-1], dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


def _cumulative_simpson(y, x):
    """Integral of y from x[0] to each x[i] (at least three samples).

    Interval i is integrated under the parabola through its end points and
    the next node when i is even, and the previous node when i is odd or
    last. Same rule and rounding as `scipy.integrate.cumulative_simpson`
    with `initial=0`.
    """
    dx = np.diff(x)
    forward = _simpson_pairs(y, dx)
    backward = _simpson_pairs(y[::-1], dx[::-1])[::-1]
    parts = np.empty(dx.size)
    parts[:-1:2] = forward[::2]
    parts[1::2] = backward[::2]
    parts[-1] = backward[-1]
    # + 0.0 turns a -0.0 sum into 0.0, as scipy's initial value does
    return np.concatenate([[0.0], np.cumsum(parts) + 0.0])


def build_background(law: GasLaw, xs, rho, E, J0):
    """Potentials by the cumulative Simpson rule, plus the boundary triple."""
    u = J0 / np.asarray(rho, dtype=float)
    B00 = float(0.5 * u[-1] ** 2 + law.enthalpy(rho[-1]))
    pex0 = float(law.pressure(rho[-1]))
    phi_en0 = float(0.5 * u[0] ** 2 + law.enthalpy(rho[0])) - B00
    phi0 = _cumulative_simpson(u, xs)
    Phi0 = (B00 + phi_en0) + _cumulative_simpson(np.asarray(E, float), xs)
    return phi0, Phi0, (phi_en0, B00, pex0)


def shoot_bvp(
    law: GasLaw,
    b,
    L: float,
    rho_en: float,
    rho_ex: float,
    J0: float,
    n_steps: int = 1024,
    bracket=(-5.0, 5.0),
    n_probe: int = 64,
    tol: float = 1e-10,
):
    """Match the exit density by shooting on the entrance electric field.

    Scans E0 over the bracket, then refines the sign change with a
    secant-style bracketed root solve on the RK4 forward map.
    """
    from scipy.optimize import brentq  # on demand: only `verify` shoots

    rho_s = sonic_density(law, J0)
    if rho_en <= rho_s or rho_ex <= rho_s:
        raise NoBracketError(
            f"entrance/exit densities must exceed the sonic density {rho_s:.6g}"
        )

    def forward(E0, n=n_steps):
        sol = integrate_ivp(law, OneDParams(J0, rho_en, E0, L, b), n)
        return sol.rho[-1] - rho_ex

    # coarse bracketing scan, full resolution only inside the refinement
    n_scan = max(64, n_steps // 8)
    probes = np.linspace(bracket[0], bracket[1], n_probe)
    values = []
    for e0 in probes:
        try:
            values.append(forward(e0, n_scan))
        except BreakdownError:
            values.append(None)
    pair = None
    for k in range(n_probe - 1):
        va, vb = values[k], values[k + 1]
        if va is None or vb is None:
            continue
        if va == 0.0:
            pair = (probes[k], probes[k])
            break
        if va * vb <= 0.0:
            pair = (probes[k], probes[k + 1])
            break
    if pair is None:
        raise NoBracketError("no sign change of the exit-density mismatch in the scan")
    if pair[0] == pair[1]:
        root = pair[0]
    else:
        lo, hi = pair
        if forward(lo) * forward(hi) > 0.0:
            # coarse and fine maps disagree right at a probe; widen one slot
            step = probes[1] - probes[0]
            lo, hi = lo - step, hi + step
        root = brentq(forward, lo, hi, xtol=1e-14, rtol=1e-15, maxiter=200)
    sol = integrate_ivp(law, OneDParams(J0, rho_en, float(root), L, b), n_steps)
    if abs(sol.rho[-1] - rho_ex) > tol:
        raise MaxIterationsError("shooting did not meet the exit-density tolerance")
    return sol


def appendixA_admissible(
    law: GasLaw,
    b,
    rho0: float,
    E0: float,
    J0: float,
    L: float,
    eps0: float = 0.05,
    eps1: float = 0.05,
    nu1: float = 0.05,
):
    """Sufficient margins for a monotone, uniformly subsonic orbit on [0, L]."""
    params = OneDParams(J0, rho0, max(E0, 1e-300), L, b)
    sup_b = float(np.max(params.b_at(np.linspace(0.0, L, 513))))
    margins = {
        "density_margin": rho0 - (sup_b + eps0),
        "field_margin": E0 - eps1,
        "subsonic_margin": float(law.dpressure(rho0)) - (J0 / rho0) ** 2 - nu1,
    }
    ok = all(v >= 0.0 for v in margins.values())
    return ok, margins


def write_atlas(path, law: GasLaw, L: float, b, cases, n_steps: int = 1024):
    """CSV atlas of boundary data and margins over (J0, rho0, E0) cases."""
    with open(path, "w") as fh:
        fh.write("J0,rho0,E0,Phi_en0,B00,pex0,nu0,status\n")
        for J0, rho0, E0 in cases:
            try:
                sol = integrate_ivp(law, OneDParams(J0, rho0, E0, L, b), n_steps)
                row = [J0, rho0, E0, sol.phi_en0, sol.B00, sol.pex0, sol.nu0, "ok"]
            except BreakdownError as exc:
                row = [J0, rho0, E0, "nan", "nan", "nan", "nan", f"{exc.kind}@x={exc.x:.6g}"]
            fh.write(",".join(v if isinstance(v, str) else format(v, ".17g") for v in row))
            fh.write("\n")
