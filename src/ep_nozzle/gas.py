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
        return self._invert(np.array(s, dtype=float))

    def _invert(self, s):
        """enthalpy_inverse of the float array s, computed over s in place.
        A 0-d s gives a scalar by the scalar power, as the expression
        (k0^(g-1) + (g-1)/g s)^(1/(g-1)) on a 0-d array does."""
        if not np.all(np.isfinite(s)) or np.any(s <= self.vacuum_threshold()):
            raise VacuumError(
                "enthalpy argument at or below the density-floor threshold"
            )
        if self.gamma == 1.0:
            np.exp(s, out=s)
            s *= self.k0
            return s if s.ndim else s[()]
        g = self.gamma
        s *= (g - 1.0) / g
        s += self.k0 ** (g - 1.0)
        if not s.ndim:
            return s[()] ** (1.0 / (g - 1.0))
        s **= 1.0 / (g - 1.0)
        return s

    def density(self, phi_potential, speed_sq):
        """Density closure rho = h^{-1}(Phi - |grad phi|^2 / 2).

        The enthalpy argument is formed in one new buffer and inverted in it:
        the inputs are only read, and no other nodal temporary is made."""
        speed_sq = np.asarray(speed_sq, dtype=float)
        if np.any(speed_sq < 0.0):
            raise DomainError("speed_sq must be nonnegative")
        phi = np.asarray(phi_potential, dtype=float)
        s = np.multiply(speed_sq, 0.5,
                        out=np.empty(np.broadcast_shapes(phi.shape, speed_sq.shape)))
        return self._invert(np.subtract(phi, s, out=s))


def bernoulli(law: GasLaw, speed_sq, rho):
    """Kinetic energy plus enthalpy; equals the electric potential here."""
    speed_sq = np.asarray(speed_sq, dtype=float)
    if np.any(speed_sq < 0.0):
        raise DomainError("speed_sq must be nonnegative")
    return 0.5 * speed_sq + law.enthalpy(rho)
