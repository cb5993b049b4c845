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


def remainder_fields(law: GasLaw, Phi0, q0, rho0, base: FluxDerivatives, Psi, Dpsi):
    """Quadratic Taylor remainders (F, f) of (A, B) at every node.

    Phi0 (N,) and q0 (N, d) are the background potential and velocity,
    rho0 = law.density(Phi0, |q0|^2) the background density and
    base = derivatives(law, Phi0, q0) the frozen linearization; Psi is the
    potential perturbation and Dpsi its nodal gradient (N, d). Returns F (N, d),
    f (N,) and the perturbed density (N,).
    """
    Dpsi = np.asarray(Dpsi, dtype=float)
    q_tot = Dpsi + q0
    rho_pert = law.density(Phi0 + Psi, np.einsum("ni,ni->n", q_tot, q_tot))
    a_pert = rho_pert[:, None] * q_tot
    a_base = rho0[:, None] * q0
    lin_A = np.asarray(Psi)[:, None] * base.dA_dz + np.einsum(
        "nij,nj->ni", base.dA_dq, Dpsi
    )
    F = -(a_pert - a_base - lin_A)
    lin_B = np.asarray(Psi) * base.dB_dz + np.einsum("nj,nj->n", base.dB_dq, Dpsi)
    f = rho_pert - rho0 - lin_B
    return F, f, rho_pert
