"""Discrete energy of the coupled system, its exact gradient and Hessian.

For a pair u = (u1, u2) with diffusion profiles A1, A2 the energy is

    E(u) = sum_i [ 1/2 int A_i(u_i)|grad u_i|^2 - lambda_i/2 int u_i^2
                   - 1/p int |u_i|^p ]  -  2 beta/p int |u1|^(p/2) |u2|^(p/2)

with every integral evaluated by the one cell-center quadrature of the
grid module (A_i applied to the interpolated cell value of u_i).  Because
the quadrature is a smooth function of the nodal values, E has an exact
gradient, assembled here by the chain rule; the infinite-dimensional
subtlety that the A'-term only pairs with bounded test functions has no
finite-dimensional counterpart.  Away from zero cell values E is twice
differentiable, and its Hessian is assembled exactly from A''; where a
cell value is exactly 0 and a second derivative does not exist there
(A'' for gamma < 2, the coupling for p < 4), it is taken to be 0.

The two constraint residuals r_i pair each component's equation with the
component itself; r_1 = r_2 = 0 (with both components nontrivial) is the
natural constraint set containing every solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientFamily
from .errors import InvalidParams
from .grid import (
    Grid,
    StatePair,
    cell_form_matrix,
    cell_gradients,
    cell_values,
    scatter_cells,
)


@dataclass(frozen=True)
class ProblemParams:
    """Linear coefficients, coupling strength and exponents."""

    lambda1: float
    lambda2: float
    beta: float
    p: float
    gamma: float

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "beta", "p"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParams(f"need a finite {name}, got {getattr(self, name)}")
        if not self.p > 2.0:
            raise InvalidParams(f"need p > 2, got p = {self.p}")
        if not (0.0 < self.gamma < self.p - 2.0):
            raise InvalidParams(
                f"need 0 < gamma < p - 2 = {self.p - 2.0}, got gamma = {self.gamma}"
            )

    def lam(self, i: int) -> float:
        return self.lambda1 if i == 1 else self.lambda2

    def swapped(self) -> "ProblemParams":
        return ProblemParams(self.lambda2, self.lambda1, self.beta, self.p, self.gamma)


@dataclass(frozen=True)
class NehariResidual:
    r1: float
    r2: float

    @property
    def max_abs(self) -> float:
        return max(abs(self.r1), abs(self.r2))


def sgn_pow(t, q):
    """sign(t) * |t|^q for q > 0, vectorized, exactly 0 at t = 0."""
    t = np.asarray(t, dtype=float)
    return np.sign(t) * np.abs(t) ** q


def coupling_G(t1, t2, params: ProblemParams):
    """Coupling potential (|t1|^p + 2 beta |t1 t2|^(p/2) + |t2|^p) / p."""
    p, beta = params.p, params.beta
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    return (
        np.abs(t1) ** p
        + 2.0 * beta * np.abs(t1) ** (p / 2.0) * np.abs(t2) ** (p / 2.0)
        + np.abs(t2) ** p
    ) / p


def coupling_grad_g(t1, t2, params: ProblemParams):
    """Gradient of the coupling potential, componentwise.

    g_i = |t_i|^(p-2) t_i + beta |t_i|^(p/2-2) t_i |t_j|^(p/2), written in
    sign form so both exponents are positive and t = 0 is exact.
    """
    p, beta = params.p, params.beta
    a1 = np.abs(np.asarray(t1, dtype=float))
    a2 = np.abs(np.asarray(t2, dtype=float))
    g1 = sgn_pow(t1, p - 1.0) + beta * sgn_pow(t1, p / 2.0 - 1.0) * a2 ** (p / 2.0)
    g2 = sgn_pow(t2, p - 1.0) + beta * sgn_pow(t2, p / 2.0 - 1.0) * a1 ** (p / 2.0)
    return g1, g2


def _abs_pow(a, q):
    """a^q for a = |t| >= 0; 0 at a = 0 when q < 0 (no derivative there)."""
    if q >= 0.0:
        return a**q
    return np.power(a, q, out=np.zeros_like(a), where=a != 0.0)


def coupling_hess_g(t1, t2, params: ProblemParams):
    """Second derivatives (dg1/dt1, dg1/dt2 = dg2/dt1, dg2/dt2) of the
    coupling potential, with the 0-at-0 convention of the module."""
    p, beta = params.p, params.beta
    half = p / 2.0
    a1 = np.abs(np.asarray(t1, dtype=float))
    a2 = np.abs(np.asarray(t2, dtype=float))
    h11 = (p - 1.0) * a1 ** (p - 2.0) + beta * (half - 1.0) * _abs_pow(
        a1, half - 2.0
    ) * a2**half
    h22 = (p - 1.0) * a2 ** (p - 2.0) + beta * (half - 1.0) * _abs_pow(
        a2, half - 2.0
    ) * a1**half
    h12 = beta * half * sgn_pow(t1, half - 1.0) * sgn_pow(t2, half - 1.0)
    return h11, h12, h22


class CellSample:
    """Cell-center samples of a state, shared by every energy term.

    `x` is a (k, nx, ny) stack of nodal arrays, k = 1 for a scalar problem
    and k = 2 for a pair; v, gx, gy and gsq = |grad|^2 are its
    (k, nx+1, ny+1) cell values, gradients and squared gradients.
    """

    __slots__ = ("x", "grid", "v", "gx", "gy", "gsq")

    def __init__(self, x: np.ndarray, grid: Grid, cells=None):
        self.x = x
        self.grid = grid
        if cells is None:
            v = cell_values(x, grid)
            gx, gy = cell_gradients(x, grid)
            cells = (v, gx, gy, gx * gx + gy * gy)
        self.v, self.gx, self.gy, self.gsq = cells

    def scaled(self, t) -> "CellSample":
        """Samples of (t_1 x_1, ..., t_k x_k), by linearity of the stencils."""
        t = np.reshape(t, (-1, 1, 1))
        return CellSample(
            t * self.x, self.grid, (t * self.v, t * self.gx, t * self.gy, t * t * self.gsq)
        )

    def integrals(self, p: float):
        """(int |grad x_i|^2, int x_i^2, int |x_i|^p), each one per component."""
        return tuple(
            np.sum(f, axis=(-2, -1)) * self.grid.cell_area
            for f in (self.gsq, self.v * self.v, np.abs(self.v) ** p)
        )


class Energy:
    """The discrete energy of a k-component state, and its derivatives.

    A pair (k = 2) carries the system energy of the module docstring; a
    scalar problem (k = 1) is the energy of (z, 0) with its |z|^p term
    weighted by `c`.  Every method reads one CellSample of the state and
    one profile `jet` per component.  The gradient and Hessian products
    are nodal (k, nx, ny) arrays in function-space scaling: the
    derivative with respect to a node divided by the lumped node volume
    hx*hy, so that their volume-weighted l2 norms mimic continuum norms.
    """

    def __init__(self, params: ProblemParams, fams, lams, c: float = 1.0):
        self.params = params
        self.fams = tuple(fams)
        self.lams = tuple(lams)
        self.c = c

    @classmethod
    def pair(cls, params, fam1, fam2) -> "Energy":
        return cls(params, (fam1, fam2), (params.lambda1, params.lambda2))

    @classmethod
    def scalar(cls, params, lam, fam, c: float = 1.0) -> "Energy":
        return cls(params, (fam,), (lam,), c)

    def _profile(self, s: CellSample, order: int) -> list[np.ndarray]:
        """A and its first `order` derivatives at the cell values, each
        stacked over the components: one `jet` call per component."""
        jets = [f.jet(v, order) for f, v in zip(self.fams, s.v)]
        return [np.stack(d) for d in zip(*jets)]

    def _lam(self) -> np.ndarray:
        return np.reshape(self.lams, (-1, 1, 1))

    def _dG(self, v: np.ndarray) -> np.ndarray:
        """Gradient of the potential, one row per component."""
        if len(v) == 2:
            return np.stack(coupling_grad_g(v[0], v[1], self.params))
        return self.c * sgn_pow(v, self.params.p - 1.0)

    def value(self, s: CellSample) -> float:
        if len(s.v) == 2:
            G = coupling_G(s.v[0], s.v[1], self.params)
        else:
            G = (self.c / self.params.p) * np.abs(s.v[0]) ** self.params.p
        (a,) = self._profile(s, 0)
        dens = 0.5 * np.sum(a * s.gsq - self._lam() * s.v**2, axis=0)
        return float(np.sum(dens - G)) * s.grid.cell_area

    def gradient(self, s: CellSample) -> np.ndarray:
        a, da = self._profile(s, 1)
        w_val = 0.5 * da * s.gsq - self._lam() * s.v - self._dG(s.v)
        return scatter_cells(s.grid, w_val, a * s.gx, a * s.gy)

    def residuals(self, s: CellSample) -> np.ndarray:
        """The constraint values r_i = <E'(x), x_i>, the fiber derivatives
        t_i dh/dt_i at t = 1; their sum is <E'(x), x>."""
        a, da = self._profile(s, 1)
        dens = (a + 0.5 * da * s.v) * s.gsq - self._lam() * s.v**2 - s.v * self._dG(s.v)
        return np.sum(dens, axis=(-2, -1)) * s.grid.cell_area

    def hessian(self, s: CellSample):
        """Exact Hessian at the sampled state: the derivative of `gradient`,
        as a CSR matrix of order k*nx*ny on raveled (k, nx, ny) stacks."""
        if len(s.v) == 2:
            h11, h12, h22 = coupling_hess_g(s.v[0], s.v[1], self.params)
            diag, cross = np.stack((h11, h22)), -h12
        else:
            p = self.params.p
            diag, cross = self.c * (p - 1.0) * np.abs(s.v) ** (p - 2.0), None
        a, da, d2a = self._profile(s, 2)
        m = 0.5 * d2a * s.gsq - self._lam() - diag
        return cell_form_matrix(s.grid, m, da * s.gx, da * s.gy, a, cross)


def total_energy(
    u: StatePair,
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
) -> float:
    return Energy.pair(params, fam1, fam2).value(CellSample(u.stacked(), grid))


def euler_gradient(
    u: StatePair,
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
) -> StatePair:
    """Exact gradient of total_energy in function-space scaling (see Energy)."""
    g = Energy.pair(params, fam1, fam2).gradient(CellSample(u.stacked(), grid))
    return StatePair.from_stack(g, grid.spec)
