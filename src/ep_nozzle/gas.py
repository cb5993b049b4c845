"""Polytropic gas model: pressure law, enthalpy and its inverse, density closure.

Everything downstream evaluates density through ``GasLaw.density``: the
enthalpy inverse applied to (electric potential - kinetic energy). The model
is normalized so that the Bernoulli function equals the electric potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, VacuumError

# gamma this close to 1 is handled by the logarithmic enthalpy branch to avoid
# catastrophic cancellation in (rho**(g-1) - k0**(g-1)) / (g-1)
_GAMMA_SNAP = 1e-10


def _require_positive(value, name):
    arr = np.asarray(value, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be positive and finite")
    return arr


@dataclass(frozen=True)
class GasLaw:
    """Polytropic pressure law p(rho) = rho**gamma.

    k0 is the reference density where the enthalpy vanishes; rho_floor is the
    admissibility floor below which the state counts as vacuum.
    """

    gamma: float = 2.0
    k0: float = 1.0
    rho_floor: float = 1e-8

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma < 1.0:
            raise DomainError(f"gamma must be >= 1, got {self.gamma}")
        _require_positive(self.k0, "k0")
        _require_positive(self.rho_floor, "rho_floor")
        if self.gamma < 1.0 + _GAMMA_SNAP:
            object.__setattr__(self, "gamma", 1.0)

    # pressure -----------------------------------------------------------
    def pressure(self, rho):
        rho = _require_positive(rho, "rho")
        return rho ** self.gamma

    def dpressure(self, rho):
        """p'(rho); equals the squared local sound speed."""
        rho = _require_positive(rho, "rho")
        return self.gamma * rho ** (self.gamma - 1.0)

    def d2pressure(self, rho):
        rho = _require_positive(rho, "rho")
        g = self.gamma
        return g * (g - 1.0) * rho ** (g - 2.0)

    # enthalpy -----------------------------------------------------------
    def enthalpy(self, rho):
        rho = _require_positive(rho, "rho")
        if self.gamma == 1.0:
            return np.log(rho / self.k0)
        g = self.gamma
        return g / (g - 1.0) * (rho ** (g - 1.0) - self.k0 ** (g - 1.0))

    def vacuum_threshold(self):
        """Enthalpy at the density floor; the inverse is defined above it."""
        return float(self.enthalpy(self.rho_floor))

    def enthalpy_inverse(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(~np.isfinite(s)) or np.any(s <= self.vacuum_threshold()):
            raise VacuumError(
                "enthalpy argument at or below the density-floor threshold"
            )
        if self.gamma == 1.0:
            rho = self.k0 * np.exp(s)
        else:
            g = self.gamma
            rho = (self.k0 ** (g - 1.0) + (g - 1.0) / g * s) ** (1.0 / (g - 1.0))
        return rho

    def density(self, phi_potential, speed_sq):
        """Density closure rho = h^{-1}(Phi - |grad phi|^2 / 2)."""
        speed_sq = np.asarray(speed_sq, dtype=float)
        if np.any(speed_sq < 0.0):
            raise DomainError("speed_sq must be nonnegative")
        return self.enthalpy_inverse(np.asarray(phi_potential, float) - 0.5 * speed_sq)


def bernoulli(law: GasLaw, speed_sq, rho):
    """Kinetic energy plus enthalpy; equals the electric potential here."""
    speed_sq = np.asarray(speed_sq, dtype=float)
    if np.any(speed_sq < 0.0):
        raise DomainError("speed_sq must be nonnegative")
    return 0.5 * speed_sq + law.enthalpy(rho)
