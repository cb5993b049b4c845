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
    # one component at a time: each product then runs along the sections
    # with a profile, not over a trailing axis of length d
    F = np.empty(Dpsi.shape)
    for i in range(d - 1):
        F[..., i] = -(rho_pert * Dpsi[..., i] - c.aii[:, i] * Dpsi[..., i])
    lin_A = Psi * c.dzA + c.aii[:, -1] * Dpsi[..., -1]
    F[..., -1] = -(rho_pert * (Dpsi[..., -1] + c.u) - c.rho_bg * c.u - lin_A)
    del lin_A
    f = rho_pert - c.rho_bg - (Psi * c.dzB + c.dqB * Dpsi[..., -1])
    return F.reshape(-1, d), f.ravel(), rho_pert.ravel()
