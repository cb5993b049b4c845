"""Flux/charge maps of the potential system and their linearization data.

The momentum flux A(z, q) = rho(z, |q|^2) q and the charge B(z, q) =
rho(z, |q|^2) close the first-order structure. `derivatives` is the one
linearization: `elliptic.make_coeffs` evaluates it once at the background,
and both the operator and the Taylor remainders read those profiles.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .gas import GasLaw


class FluxDerivatives(NamedTuple):
    dA_dz: np.ndarray
    dB_dz: np.ndarray
    dA_dq: np.ndarray
    dB_dq: np.ndarray


def derivatives(law: GasLaw, z, q) -> FluxDerivatives:
    """Exact first derivatives of (A, B) in (z, q).

    dB_dq is built as the negation of dA_dz so the structural identity
    dA_dz + dB_dq = 0 holds exactly in floating point.
    """
    q = np.asarray(q, dtype=float)
    B = law.density(z, np.einsum("...i,...i->...", q, q))
    pp = law.dpressure(B)
    dB_dz = np.asarray(B / pp)
    dA_dz = dB_dz[..., None] * q
    dB_dq = -dA_dz
    eye = np.eye(q.shape[-1])
    dA_dq = np.asarray(B)[..., None, None] * (
        eye - q[..., :, None] * q[..., None, :] / np.asarray(pp)[..., None, None]
    )
    return FluxDerivatives(dA_dz, dB_dz, dA_dq, dB_dq)


def remainder_fields(law: GasLaw, coeffs, Psi, Dpsi):
    """Quadratic Taylor remainders (F, f) of (A, B) at every node.

    The frozen background and its linearization are the axial profiles of
    coeffs (an `elliptic.BackgroundCoeffs`, n axial nodes): Phi0, the axial
    velocity u, the closure density rho_bg and the entries of
    derivatives(law, Phi0, u e_n) there. The background velocity is axial,
    so dA_dq is the diagonal aii and dA_dz = -dB_dq is the axial dzA.
    Psi (N,) is the potential perturbation and Dpsi (N, d) its nodal
    gradient, with N a multiple of n and the axial index last (C order), so
    they are viewed as (N / n, n, ...) against the profiles. Returns F (N, d),
    f (N,) and the perturbed density (N,).
    """
    c = coeffs
    n, d = c.aii.shape
    Psi = np.asarray(Psi, dtype=float).reshape(-1, n)
    Dpsi = np.asarray(Dpsi, dtype=float).reshape(-1, n, d)
    q_tot = Dpsi.copy()
    q_tot[..., -1] += c.u
    speed = np.einsum("cni,cni->cn", q_tot, q_tot)
    # the total velocity is dropped here, and its axial component formed
    # again below, before F takes the memory
    del q_tot
    rho_pert = law.density(c.Phi0 + Psi, speed)
    del speed
    # F's components and f are formed in place, each product in one scratch
    # buffer, with the order of operations of the formulas
    #   F_i = -(rho D_i - aii_i D_i),  F_n = -(rho (D_n + u) - rho_bg u - lin_A),
    #   lin_A = Psi dzA + aii_n D_n,   f = rho - rho_bg - (Psi dzB + dqB D_n);
    # one component at a time, so each product runs along the sections with a
    # profile, not over a trailing axis of length d
    F = np.empty(Dpsi.shape)
    D_n, F_n = Dpsi[..., -1], F[..., -1]
    scratch = np.empty(Psi.shape)
    for i in range(d - 1):
        np.multiply(rho_pert, Dpsi[..., i], out=F[..., i])
        F[..., i] -= np.multiply(c.aii[:, i], Dpsi[..., i], out=scratch)
        np.negative(F[..., i], out=F[..., i])
    np.multiply(Psi, c.dzA, out=F_n)                  # lin_A, held in F_n
    F_n += np.multiply(c.aii[:, -1], D_n, out=scratch)
    np.add(D_n, c.u, out=scratch)
    scratch *= rho_pert
    scratch -= c.rho_bg * c.u
    scratch -= F_n
    np.negative(scratch, out=F_n)
    f = np.multiply(Psi, c.dzB)                       # lin_B, held in f
    f += np.multiply(c.dqB, D_n, out=scratch)
    np.subtract(rho_pert, c.rho_bg, out=scratch)
    np.subtract(scratch, f, out=f)
    return F.reshape(-1, d), f.ravel(), rho_pert.ravel()
