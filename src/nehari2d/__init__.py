"""Least energy states of coupled quasilinear elliptic systems on rectangles.

The package discretizes the energy of a two-component gradient system
whose diffusion coefficients depend on the unknown itself, and computes
ground states in the attractive and repulsive coupling regimes by one
constrained variational descent: fibering-map rescaling onto the natural
constraint set and multistart reduced minimization over the product of
unit spheres, for either sign of the coupling.  Supporting machinery
certifies the structural hypotheses on the coefficients and the spectral
admissibility of the linear terms.
"""

from .coeffs import (
    CertReport,
    CoefficientFamily,
    certify,
    example_family,
    identity_family,
    tabulated_family,
)
from .energy import (
    NehariResidual,
    ProblemParams,
    euler_gradient,
    total_energy,
)
from .fiber import (
    ProjectionResult,
    project_to_nehari,
)
from .grid import (
    Grid,
    GridSpec,
    ScalarField,
    StatePair,
    build_grid,
    dump_field,
    integrate,
    load_field,
)
from .solvers import (
    SolveReport,
    SolverOptions,
    beta_sweep,
    refine_solution,
    scalar_ground_state,
    solve_system,
)
from .spectrum import EigenPair, principal_eigenpair

__version__ = "0.1.0"

__all__ = [
    "CertReport",
    "CoefficientFamily",
    "EigenPair",
    "Grid",
    "GridSpec",
    "NehariResidual",
    "ProblemParams",
    "ProjectionResult",
    "ScalarField",
    "SolveReport",
    "SolverOptions",
    "StatePair",
    "beta_sweep",
    "build_grid",
    "certify",
    "dump_field",
    "euler_gradient",
    "example_family",
    "identity_family",
    "integrate",
    "load_field",
    "principal_eigenpair",
    "project_to_nehari",
    "refine_solution",
    "scalar_ground_state",
    "solve_system",
    "tabulated_family",
    "total_energy",
]
