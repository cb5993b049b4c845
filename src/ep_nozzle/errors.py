"""Exception types shared across the solver."""


class EPError(Exception):
    """Base class for all solver errors."""


class DomainError(EPError, ValueError):
    """Argument outside the physical or admissible domain."""


class VacuumError(EPError):
    """Density-closure argument at or below the enthalpy of the density floor."""


class BreakdownError(EPError):
    """1D integration left the admissible set; carries the axial location."""

    def __init__(self, message, x):
        super().__init__(f"{message} at x={x:.6g}")
        self.x = x


class SonicBreakdown(BreakdownError):
    def __init__(self, x):
        super().__init__("sonic proximity", x)


class VacuumBreakdown(BreakdownError):
    def __init__(self, x):
        super().__init__("vacuum breakdown", x)


class NotSubsonicError(EPError):
    """Background state fails the ellipticity condition."""


class AdmissibilityError(EPError):
    """Iterate or data left the admissibility ball."""


class NonContractionError(EPError):
    """Successive-difference ratios stayed at or above one."""


class NoBracketError(EPError):
    """Shooting target unreachable within the scanned initial-field bracket."""


class MaxIterationsError(EPError):
    """Iteration budget exhausted before meeting the tolerance."""


class SingularAssemblyError(EPError):
    """Banded factorization of the mode systems failed, or the solve was not finite."""


class FoldOverError(EPError):
    """Domain deformation has a nonpositive Jacobian determinant."""
