"""5-point Dirichlet eigenpair, the quadrature-stiffness Poisson solve, admissibility.

On a rectangle the 5-point eigenpair is known in closed form: the
smallest eigenvalue is

    mu1 = (4/hx^2) sin^2(pi hx / (2 lx)) + (4/hy^2) sin^2(pi hy / (2 ly)),

with the sampled sin(pi x / lx) sin(pi y / ly) as eigenvector.  A second
eigenvalue notion coexists: the quadrature Rayleigh quotient of the
eigenvector, which for this scheme equals the analogous tangent formula
and so lies above both the stencil value and the continuum limit (with
pi h / (2 l) <= pi/6, since n >= 2, tan^2 exceeds sin^2 on each axis).
Admissibility decisions use the smaller of the two notions, which is
therefore the stencil value, so every threshold comparison errs on the
conservative side.

The quadrature stiffness K (the energy's gradient term, the H1 inner
product of every descent and of the Newton polish) is diagonal in the
same sine basis, with symbol

    (4/hx^2) sin^2(tx/2) cos^2(ty/2) + (4/hy^2) cos^2(tx/2) sin^2(ty/2),

t = pi k / (n + 1).  Unlike the 5-point symbol it nearly vanishes on the
checkerboard modes.  Its exact inverse is the one Poisson solve: the
descent's Riesz lift and the Newton polish's preconditioner.  It changes
basis with the dense orthonormal sine matrices
S[j, k] = sqrt(2/(n+1)) sin(pi j k / (n+1)), symmetric with S S = I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .grid import Grid, ScalarField

ADMISSIBLE = "admissible"
ADMISSIBLE_WEAK = "admissible_weak"
INADMISSIBLE = "inadmissible"


def apply_neg_laplacian(values: np.ndarray, grid: Grid) -> np.ndarray:
    """5-point stencil action of -Laplace with zero Dirichlet boundary, on
    nodal arrays with any leading axes."""
    P = grid.padded(values)
    ihx2 = 1.0 / grid.hx**2
    ihy2 = 1.0 / grid.hy**2
    return (
        2.0 * (ihx2 + ihy2) * P[..., 1:-1, 1:-1]
        - ihx2 * (P[..., :-2, 1:-1] + P[..., 2:, 1:-1])
        - ihy2 * (P[..., 1:-1, :-2] + P[..., 1:-1, 2:])
    )


def _sine_matrix(n: int) -> np.ndarray:
    """The orthonormal sine matrix sqrt(2/(n+1)) sin(pi j k / (n+1)),
    j, k = 1..n, with j k reduced mod 2(n+1) before scaling by pi."""
    k = np.arange(1, n + 1)
    jk = np.outer(k, k) % (2 * (n + 1))
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.pi / (n + 1) * jk)


def make_poisson_solver(grid: Grid):
    """Direct solver for the quadrature stiffness K of the energy's
    gradient term (the cell-centre quadrature of the bilinear
    interpolant), the H1 Riesz lift of the descents and the Newton
    preconditioner.  K is diagonal in the sine basis, so the solve (sine
    matrices, symbol, sine matrices) is exact up to roundoff.  Leading
    axes of the right-hand side are a batch: a (k, nx, ny) stack is
    solved component by component.  The returned `solve(b, out=None)`
    writes the solution into `out` when it is given, a C-contiguous
    array of b's shape other than b, and returns it.
    """
    nx, ny = grid.shape
    sx = np.sin(np.pi * np.arange(1, nx + 1) / (2.0 * (nx + 1)))[:, None] ** 2
    sy = np.sin(np.pi * np.arange(1, ny + 1) / (2.0 * (ny + 1)))[None, :] ** 2
    lx_eig = 4.0 / grid.hx**2 * sx
    ly_eig = 4.0 / grid.hy**2 * sy
    denom = lx_eig * (1.0 - sy) + (1.0 - sx) * ly_eig
    Sx, Sy = _sine_matrix(nx), _sine_matrix(ny)

    def solve(b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # Sx ((Sx b Sy) / denom) Sy; the division runs one matrix at a
        # time because numpy buffers, allocating on every call, a ufunc
        # that broadcasts denom over leading axes
        scratch = np.matmul(Sx, b)
        out = np.matmul(scratch, Sy, out=out)
        for matrix in out.reshape(-1, nx, ny):
            matrix /= denom
        np.matmul(Sx, out, out=scratch)
        return np.matmul(scratch, Sy, out=out)

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
    residual: float  # volume-weighted L2 norm of -Lap_h phi - mu phi
    mu_quad: float  # quadrature Rayleigh quotient of phi


def principal_eigenpair(grid: Grid) -> EigenPair:
    """The smallest stencil eigenpair in closed form.

    phi is the sampled sin(pi x / lx) sin(pi y / ly), positive with unit
    volume-weighted L2 norm; mu and mu_quad are the sine and tangent
    formulas.  `residual` applies the stencil to phi, the check that
    stays independent of the formulas.
    """
    s = grid.spec
    v = np.outer(np.sin(np.pi * grid.xs / s.lx), np.sin(np.pi * grid.ys / s.ly))
    v /= math.sqrt(float(np.sum(v * v)) * grid.cell_area)
    mu = stencil_eigenvalue_exact(grid)
    r = apply_neg_laplacian(v, grid) - mu * v
    return EigenPair(
        mu=mu, phi=ScalarField(v, s),
        residual=math.sqrt(float(np.sum(r * r)) * grid.cell_area),
        mu_quad=quadrature_eigenvalue_exact(grid),
    )


def admissibility(lams, p: float, gamma: float, nu: float, mu1: float):
    """Classify the linear coefficients `lams` against the spectral
    thresholds, and name both thresholds for a message.

    admissible       : all below (p-2-gamma)/(p-2) * nu * mu1 (strong)
    admissible_weak  : all below nu * mu1 (weak) but not admissible
    inadmissible     : otherwise

    Returns (verdict, "strong threshold = ..., weak threshold = ...").
    """
    if mu1 <= 0.0:
        raise InvalidParams(f"need mu1 > 0, got {mu1}")
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
