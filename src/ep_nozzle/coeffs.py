"""Flux/charge maps of the potential system and their linearization data.

The momentum flux A(z, q) = rho(z, |q|^2) q and the charge B(z, q) =
rho(z, |q|^2) close the first-order structure; their exact derivatives and
the Taylor remainders about the frozen background are what the linearized
solves consume.
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


def remainder_fields(law: GasLaw, Phi0, q0, rho0, a_base, base: FluxDerivatives, Psi, Dpsi):
    """Quadratic Taylor remainders (F, f) of (A, B) at every node.

    The frozen background comes as axial profiles over the n axial nodes:
    Phi0 (n,) and q0 (n, d) are the background potential and velocity,
    rho0 = law.density(Phi0, |q0|^2) the background density, a_base = rho0 q0
    its flux and base = derivatives(law, Phi0, q0) the frozen linearization.
    Psi (N,) is the potential perturbation and Dpsi (N, d) its nodal
    gradient, with N a multiple of n and the axial index last (C order), so
    they are viewed as (N / n, n, ...) against the profiles. Returns F (N, d),
    f (N,) and the perturbed density (N,).
    """
    n, d = q0.shape
    Psi = np.asarray(Psi, dtype=float).reshape(-1, n)
    Dpsi = np.asarray(Dpsi, dtype=float).reshape(-1, n, d)
    q_tot = Dpsi + q0
    rho_pert = law.density(Phi0 + Psi, np.einsum("cni,cni->cn", q_tot, q_tot))
    # one component at a time: each product then runs along the sections
    # with a profile, not over a trailing axis of length d
    F = np.empty(Dpsi.shape)
    for i in range(d):
        lin_A = Psi * base.dA_dz[:, i] + sum(base.dA_dq[:, i, j] * Dpsi[..., j] for j in range(d))
        F[..., i] = -(rho_pert * q_tot[..., i] - a_base[:, i] - lin_A)
    lin_B = Psi * base.dB_dz + np.einsum("nj,cnj->cn", base.dB_dq, Dpsi)
    f = rho_pert - rho0 - lin_B
    return F.reshape(-1, d), f.ravel(), rho_pert.ravel()
