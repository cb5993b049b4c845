"""Steady subsonic Euler-Poisson flows in a finite nozzle.

1D backgrounds by ODE integration, multidimensional solves by a
linearize-and-iterate fixed point, and empirical verification of the
structural identities, coercivity, contraction and linear stability scaling.
"""

from .gas import GasLaw, bernoulli
from .grid import Nozzle, build_grid
from .ode1d import BackgroundSolution, OneDParams, integrate_ivp, shoot_bvp
from .driver import (
    Amplitudes,
    FieldPair,
    IterationConfig,
    PicardState,
    SolveReport,
    perturb_data,
    run_fixed_point,
    stability_sweep,
)
from .domainmap import shear_map, solve_perturbed

__version__ = "0.1.0"

__all__ = [
    "Amplitudes",
    "BackgroundSolution",
    "FieldPair",
    "GasLaw",
    "IterationConfig",
    "Nozzle",
    "OneDParams",
    "PicardState",
    "SolveReport",
    "bernoulli",
    "build_grid",
    "integrate_ivp",
    "perturb_data",
    "run_fixed_point",
    "shear_map",
    "shoot_bvp",
    "solve_perturbed",
    "stability_sweep",
    "__version__",
]
