"""Least energy states of coupled quasilinear elliptic systems on rectangles.

The package discretizes the energy of a two-component gradient system
whose diffusion coefficients depend on the unknown itself, and computes
ground states in the attractive and repulsive coupling regimes by
constrained variational descent: fibering-map rescaling onto the natural
constraint set, reduced minimization over the product of unit spheres,
and multistart descent with rescaling.  Supporting machinery certifies
the structural hypotheses on the coefficients and the spectral
admissibility of the linear terms.
"""

from .coeffs import (
    CertReport,
    CoefficientFamily,
    certify,
    eval_A,
    eval_dA,
    example_family,
    identity_family,
    tabulated_family,
)
from .energy import (
    NehariResidual,
    ProblemParams,
    coupling_G,
    coupling_grad_g,
    euler_gradient,
    nehari_residual,
    scalar_energy,
    total_energy,
)
from .fiber import (
    FiberPoint,
    ProjectionResult,
    fiber_gradient,
    fiber_value,
    project_to_nehari,
    sphere_normalize,
)
from .grid import (
    Grid,
    GridSpec,
    ScalarField,
    StatePair,
    build_grid,
    dump_field,
    grad_sq,
    integrate,
    l2_inner,
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
from .spectrum import EigenPair, admissible, principal_eigenpair

__version__ = "0.1.0"

__all__ = [
    "CertReport",
    "CoefficientFamily",
    "EigenPair",
    "FiberPoint",
    "Grid",
    "GridSpec",
    "NehariResidual",
    "ProblemParams",
    "ProjectionResult",
    "ScalarField",
    "SolveReport",
    "SolverOptions",
    "StatePair",
    "admissible",
    "beta_sweep",
    "build_grid",
    "certify",
    "coupling_G",
    "coupling_grad_g",
    "dump_field",
    "euler_gradient",
    "eval_A",
    "eval_dA",
    "example_family",
    "fiber_gradient",
    "fiber_value",
    "grad_sq",
    "identity_family",
    "integrate",
    "l2_inner",
    "load_field",
    "nehari_residual",
    "principal_eigenpair",
    "project_to_nehari",
    "refine_solution",
    "scalar_energy",
    "scalar_ground_state",
    "solve_system",
    "sphere_normalize",
    "tabulated_family",
    "total_energy",
]
