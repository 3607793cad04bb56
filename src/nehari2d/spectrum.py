"""Principal Dirichlet eigenpair of the 5-point Laplacian and admissibility.

Inverse power iteration, each step an exact sine-transform solve, computes
the smallest stencil eigenvalue mu1 and its positive eigenvector.
On a rectangle the exact discrete value is

    mu1 = (4/hx^2) sin^2(pi hx / (2 lx)) + (4/hy^2) sin^2(pi hy / (2 ly)),

which the tests use as an oracle.  A second eigenvalue notion coexists:
the quadrature Rayleigh quotient of the eigenvector, which for this
scheme equals the analogous tangent formula and so lies above both the
stencil value and the continuum limit.  Admissibility decisions use the
smaller of the two notions, so every threshold comparison errs on the
conservative side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dstn

from .energy import CellSample, ProblemParams
from .errors import NoConvergence
from .grid import Grid, ScalarField

ADMISSIBLE = "admissible"
ADMISSIBLE_WEAK = "admissible_weak"
INADMISSIBLE = "inadmissible"


def apply_neg_laplacian(values: np.ndarray, grid: Grid) -> np.ndarray:
    """5-point stencil action of -Laplace with zero Dirichlet boundary."""
    P = grid.padded(values)
    ihx2 = 1.0 / grid.hx**2
    ihy2 = 1.0 / grid.hy**2
    return (
        2.0 * (ihx2 + ihy2) * P[1:-1, 1:-1]
        - ihx2 * (P[:-2, 1:-1] + P[2:, 1:-1])
        - ihy2 * (P[1:-1, :-2] + P[1:-1, 2:])
    )


def make_poisson_solver(grid: Grid):
    """Direct solver for the 5-point -Laplace system via sine transforms.

    The stencil diagonalizes in the discrete sine basis, so the solve is
    exact up to roundoff; used by inverse iteration and as the Riesz lift /
    preconditioner in the descent solvers.  Leading axes of the right-hand
    side are a batch: a (k, nx, ny) stack is solved component by component.
    """
    nx, ny = grid.shape
    kx = np.arange(1, nx + 1)
    ky = np.arange(1, ny + 1)
    lx_eig = 4.0 / grid.hx**2 * np.sin(np.pi * kx / (2.0 * (nx + 1))) ** 2
    ly_eig = 4.0 / grid.hy**2 * np.sin(np.pi * ky / (2.0 * (ny + 1))) ** 2
    denom = lx_eig[:, None] + ly_eig[None, :]
    norm = 4.0 * (nx + 1) * (ny + 1)

    def solve(b: np.ndarray) -> np.ndarray:
        bh = dstn(b, type=1, axes=(-2, -1))
        return dstn(bh / denom, type=1, axes=(-2, -1)) / norm

    return solve


def stencil_eigenvalue_exact(grid: Grid) -> float:
    """Closed-form smallest eigenvalue of the 5-point Dirichlet Laplacian."""
    s = grid.spec
    return 4.0 / grid.hx**2 * math.sin(
        math.pi * grid.hx / (2.0 * s.lx)
    ) ** 2 + 4.0 / grid.hy**2 * math.sin(math.pi * grid.hy / (2.0 * s.ly)) ** 2


def quadrature_eigenvalue_exact(grid: Grid) -> float:
    """Closed-form minimum of the cell-center quadrature Rayleigh quotient."""
    s = grid.spec
    return 4.0 / grid.hx**2 * math.tan(
        math.pi * grid.hx / (2.0 * s.lx)
    ) ** 2 + 4.0 / grid.hy**2 * math.tan(math.pi * grid.hy / (2.0 * s.ly)) ** 2


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenvalue, positive normalized eigenvector, diagnostics."""

    mu: float
    phi: ScalarField
    iterations: int
    residual: float
    mu_quad: float  # quadrature Rayleigh quotient of phi

    @property
    def mu_conservative(self) -> float:
        return min(self.mu, self.mu_quad)


# inverse iteration stops when mu and the residual are both within this
# tolerance, relative to 1 + mu, or fails after this many steps
_EIGEN_TOL = 1e-10
_EIGEN_MAX_ITER = 200


def principal_eigenpair(grid: Grid) -> EigenPair:
    """Inverse power iteration for the smallest stencil eigenpair.

    Each step inverts the stencil with the grid's sine-transform solver.
    """
    vol = grid.cell_area

    v = np.ones(grid.shape)
    v /= math.sqrt(float(np.sum(v * v)) * vol)
    mu_prev = math.inf
    mu = residual = math.nan
    iterations = 0
    for it in range(1, _EIGEN_MAX_ITER + 1):
        iterations = it
        w = grid.poisson_solver(v)
        w /= math.sqrt(float(np.sum(w * w)) * vol)
        Aw = apply_neg_laplacian(w, grid)
        mu = float(np.sum(w * Aw)) / float(np.sum(w * w))
        residual = math.sqrt(float(np.sum((Aw - mu * w) ** 2)) * vol)
        v = w
        bound = _EIGEN_TOL * (1.0 + abs(mu))
        if abs(mu - mu_prev) <= bound and residual <= bound:
            break
        mu_prev = mu
    else:
        raise NoConvergence("power iteration did not converge", iterations=it)

    if float(np.sum(v)) < 0.0:
        v = -v
    gr, q, _pp = CellSample(v[None], grid).integrals(2.0)
    return EigenPair(
        mu=mu, phi=ScalarField(v, grid.spec), iterations=iterations,
        residual=residual, mu_quad=float(gr[0] / q[0]),
    )


def admissible(params: ProblemParams, nu: float, gamma: float, mu1: float) -> str:
    """The verdict of `admissibility` on (lambda1, lambda2)."""
    lams = (params.lambda1, params.lambda2)
    return admissibility(lams, params.p, gamma, nu, mu1)[0]


def admissibility(lams, p: float, gamma: float, nu: float, mu1: float):
    """Classify the linear coefficients `lams` against the spectral
    thresholds, and name both thresholds for a message.

    admissible       : all below (p-2-gamma)/(p-2) * nu * mu1 (strong)
    admissible_weak  : all below nu * mu1 (weak) but not admissible
    inadmissible     : otherwise

    Returns (verdict, "strong threshold = ..., weak threshold = ...").
    """
    if mu1 <= 0.0:
        raise ValueError(f"need mu1 > 0, got {mu1}")
    strong = strong_threshold(p, gamma, nu, mu1)
    weak = nu * mu1
    thresholds = f"strong threshold = {strong:.8g}, weak threshold = {weak:.8g}"
    if all(lam < strong for lam in lams):
        return ADMISSIBLE, thresholds
    if all(lam < weak for lam in lams):
        return ADMISSIBLE_WEAK, thresholds
    return INADMISSIBLE, thresholds


def strong_threshold(p: float, gamma: float, nu: float, mu1: float) -> float:
    return (p - 2.0 - gamma) / (p - 2.0) * nu * mu1
