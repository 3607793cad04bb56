"""Discrete energy of the coupled system, its exact gradient and Hessian.

For a pair u = (u1, u2) with diffusion profiles A1, A2 the energy is

    E(u) = sum_i [ 1/2 int A_i(u_i)|grad u_i|^2 - lambda_i/2 int u_i^2
                   - 1/p int |u_i|^p ]  -  2 beta/p int |u1|^(p/2) |u2|^(p/2)

with every integral evaluated by the one cell-center quadrature of the
grid module (A_i applied to the interpolated cell value of u_i).  The
nonlinearity is the one potential density G_beta of the last two terms,
with g_i = dG_beta/du_i; `Energy.potential` computes it and its first and
second derivatives from one power per component.  Because
the quadrature is a smooth function of the nodal values, E has an exact
gradient, assembled here by the chain rule; the infinite-dimensional
subtlety that the A'-term only pairs with bounded test functions has no
finite-dimensional counterpart.  Away from zero cell values E is twice
differentiable, and its exact Hessian, built from A'', is applied as a
product: no matrix is formed.  Where a cell value is exactly 0 and a
second derivative does not exist there (A'' for gamma < 2, the coupling
for p < 4), it is taken to be 0.

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
    CellWorkspace,
    Grid,
    StatePair,
    cell_gradients,
    cell_values,
    sample_cells,
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

    def integral(self, f: np.ndarray) -> np.ndarray:
        """The quadrature of the (k, nx+1, ny+1) cell array f, one per component."""
        return f.sum(axis=(-2, -1)) * self.grid.cell_area

    def integrals(self, p: float):
        """(int |grad x_i|^2, int x_i^2, int |x_i|^p), each one per component."""
        return tuple(
            self.integral(f) for f in (self.gsq, self.v * self.v, np.abs(self.v) ** p)
        )


class Energy:
    """The discrete energy of a k-component state, and its derivatives.

    A pair (k = 2) carries the system energy of the module docstring; a
    scalar problem (k = 1) is the energy of (z, 0).  Every method reads
    one CellSample of the state and one profile `jet` per component.  The
    gradient and Hessian products are nodal (k, nx, ny) arrays in
    function-space scaling: the derivative with respect to a node divided
    by the lumped node volume hx*hy, so that their volume-weighted l2
    norms mimic continuum norms.
    """

    def __init__(self, params: ProblemParams, fams, lams):
        self.params = params
        self.fams = tuple(fams)
        self.lams = tuple(lams)

    @classmethod
    def pair(cls, params, fam1, fam2) -> "Energy":
        return cls(params, (fam1, fam2), (params.lambda1, params.lambda2))

    @classmethod
    def scalar(cls, params, lam, fam) -> "Energy":
        return cls(params, (fam,), (lam,))

    def _profile(self, s: CellSample, order: int) -> list[np.ndarray]:
        """A and its first `order` derivatives at the cell values, each
        stacked over the components: one `jet` call per component."""
        jets = [f.jet(v, order) for f, v in zip(self.fams, s.v)]
        return [np.stack(d) for d in zip(*jets)]

    def _lam(self) -> np.ndarray:
        return np.reshape(self.lams, (-1, 1, 1))

    def potential(self, v: np.ndarray, order: int = 0) -> list:
        """[G] at the (k, ...) cell values v, then for order >= 1 the
        gradient rows g_i = dG/dv_i and for order 2 the Hessian diagonal
        rows dg_i/dv_i and the cross term dg_1/dv_2 (None for k = 1), of
        G = sum_i |v_i|^p/p, plus 2 beta/p |v1 v2|^(p/2) for a pair.

        One power w = |v|^(p/2-2) per component (1 at p = 4, else 0 at
        v = 0) gives m = |v|^(p/2) = w v^2 and s = w v.  With f_i = m_i +
        beta m_j, G = sum_i m_i f_i / p and g_i = s_i f_i: every row reads
        alike in i and j, so a swap of the components swaps each output exactly.
        """
        p, beta = self.params.p, self.params.beta
        half = p / 2.0
        a = np.abs(v)
        w = np.power(a, half - 2.0, out=np.full_like(a, float(half == 2.0)),
                     where=a != 0.0)
        m = w * a * a
        bm = beta * m[::-1] if len(v) == 2 else 0.0
        f = m + bm
        out = [(m * f).sum(axis=0) / p]
        if order >= 1:
            s = w * v
            out.append(s * f)
        if order >= 2:
            out.append(w * ((p - 1.0) * m + (half - 1.0) * bm))
            out.append(beta * half * (s[0] * s[1]) if len(v) == 2 else None)
        return out

    def value(self, s: CellSample) -> float:
        (G,) = self.potential(s.v)
        (a,) = self._profile(s, 0)
        dens = 0.5 * np.sum(a * s.gsq - self._lam() * s.v**2, axis=0)
        return float(np.sum(dens - G)) * s.grid.cell_area

    def gradient(self, s: CellSample) -> np.ndarray:
        _G, g = self.potential(s.v, 1)
        a, da = self._profile(s, 1)
        w_val = 0.5 * da * s.gsq - self._lam() * s.v - g
        return scatter_cells(s.grid, w_val, a * s.gx, a * s.gy)

    def residuals(self, s: CellSample) -> np.ndarray:
        """The constraint values r_i = <E'(x), x_i>, the fiber derivatives
        t_i dh/dt_i at t = 1; their sum is <E'(x), x>."""
        _G, g = self.potential(s.v, 1)
        a, da = self._profile(s, 1)
        dens = (a + 0.5 * da * s.v) * s.gsq - self._lam() * s.v**2 - s.v * g
        return np.sum(dens, axis=(-2, -1)) * s.grid.cell_area

    def hessian(self, s: CellSample):
        """Exact Hessian at the sampled state, the derivative of `gradient`,
        as a product d -> H d on (k, nx, ny) stacks.  The weights and one
        workspace for the products are formed here, once: each product
        samples d into the workspace with the fused cell stencils, forms the
        linearized gradient weights in place and scatters them back into a
        new array, which the caller owns."""
        _G, _g, diag, cross = self.potential(s.v, 2)
        a, da, d2a = self._profile(s, 2)
        m = 0.5 * d2a * s.gsq - self._lam() - diag
        ax, ay = da * s.gx, da * s.gy
        grid = s.grid
        work = CellWorkspace(grid, m.shape[:-2])
        weights = tuple(np.empty_like(m) for _ in range(3))

        def product(d: np.ndarray) -> np.ndarray:
            dv, dgx, dgy = sample_cells(d, grid, work)
            w_val, w_gx, w_gy = weights
            # w_val = m dv + ax dgx + ay dgy - cross dv_swapped,
            # w_gx = ax dv + a dgx and w_gy = ay dv + a dgy
            np.multiply(m, dv, out=w_val)
            w_val += np.multiply(ax, dgx, out=w_gx)
            w_val += np.multiply(ay, dgy, out=w_gy)
            if cross is not None:
                w_val -= np.multiply(cross, dv[::-1], out=w_gx)
            np.multiply(ax, dv, out=w_gx)
            w_gx += np.multiply(a, dgx, out=dgx)
            np.multiply(ay, dv, out=w_gy)
            w_gy += np.multiply(a, dgy, out=dgy)
            return scatter_cells(grid, w_val, w_gx, w_gy, work)

        return product


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
