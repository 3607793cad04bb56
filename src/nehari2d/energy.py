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
differentiable, and its Hessian is applied exactly from A''; where a
cell value is exactly 0 and a second derivative does not exist there
(A'' for gamma < 2, the coupling for p < 4), it is taken to be 0.

The two constraint residuals r_i pair each component's equation with the
component itself; r_1 = r_2 = 0 (with both components nontrivial) is the
natural constraint set containing every solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientFamily
from .errors import InvalidParams
from .grid import (
    Grid,
    ScalarField,
    StatePair,
    cell_gradients,
    cell_gradients_of,
    cell_values,
    cell_values_of,
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


class _CellData:
    """Cell-center samples of a pair, shared by energy/gradient/residual."""

    __slots__ = ("v1", "v2", "g1x", "g1y", "g2x", "g2y", "gsq1", "gsq2")

    def __init__(self, u: StatePair, grid: Grid):
        self.v1 = cell_values(u.u1, grid)
        self.v2 = cell_values(u.u2, grid)
        self.g1x, self.g1y = cell_gradients(u.u1, grid)
        self.g2x, self.g2y = cell_gradients(u.u2, grid)
        self.gsq1 = self.g1x**2 + self.g1y**2
        self.gsq2 = self.g2x**2 + self.g2y**2


def total_energy(
    u: StatePair,
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
) -> float:
    c = _CellData(u, grid)
    dens = (
        0.5 * (fam1.a(c.v1) * c.gsq1 + fam2.a(c.v2) * c.gsq2)
        - 0.5 * (params.lambda1 * c.v1**2 + params.lambda2 * c.v2**2)
        - coupling_G(c.v1, c.v2, params)
    )
    return float(np.sum(dens)) * grid.cell_area


def scalar_energy(
    z: ScalarField,
    i: int,
    params: ProblemParams,
    fam: CoefficientFamily,
    grid: Grid,
) -> float:
    """One-component energy: the system energy of (z, 0) for any beta."""
    return scalar_energy_c(z, params.lam(i), params.p, fam, grid, nonlin_coeff=1.0)


def scalar_energy_c(
    z: ScalarField,
    lam: float,
    p: float,
    fam: CoefficientFamily,
    grid: Grid,
    nonlin_coeff: float = 1.0,
) -> float:
    """Scalar energy with weight `nonlin_coeff` on the |z|^p term."""
    v = cell_values(z, grid)
    gx, gy = cell_gradients(z, grid)
    dens = (
        0.5 * fam.a(v) * (gx**2 + gy**2)
        - 0.5 * lam * v**2
        - (nonlin_coeff / p) * np.abs(v) ** p
    )
    return float(np.sum(dens)) * grid.cell_area


def scalar_euler_gradient_c(
    z: ScalarField,
    lam: float,
    p: float,
    fam: CoefficientFamily,
    grid: Grid,
    nonlin_coeff: float = 1.0,
) -> ScalarField:
    """Exact gradient of scalar_energy_c, function-space scaled."""
    v = cell_values(z, grid)
    gx, gy = cell_gradients(z, grid)
    gsq = gx * gx + gy * gy
    w_val = 0.5 * fam.da(v) * gsq - lam * v - nonlin_coeff * sgn_pow(v, p - 1.0)
    a = fam.a(v)
    return ScalarField(scatter_cells(grid, w_val, a * gx, a * gy), grid.spec)


def euler_gradient(
    u: StatePair,
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
) -> StatePair:
    """Exact gradient of total_energy in function-space scaling.

    Node (i, k) of the result equals d(total_energy)/d(u_i[k]) divided by
    the lumped node volume hx*hy, so its volume-weighted l2 norm mimics a
    continuum residual norm and is stable under refinement.
    """
    c = _CellData(u, grid)
    gc1, gc2 = coupling_grad_g(c.v1, c.v2, params)

    w_val1 = 0.5 * fam1.da(c.v1) * c.gsq1 - params.lambda1 * c.v1 - gc1
    w_val2 = 0.5 * fam2.da(c.v2) * c.gsq2 - params.lambda2 * c.v2 - gc2
    a1 = fam1.a(c.v1)
    a2 = fam2.a(c.v2)
    g1 = scatter_cells(grid, w_val1, a1 * c.g1x, a1 * c.g1y)
    g2 = scatter_cells(grid, w_val2, a2 * c.g2x, a2 * c.g2y)
    return StatePair(ScalarField(g1, grid.spec), ScalarField(g2, grid.spec))


class _ProfileLinearization:
    """The gradient terms of one component's Hessian at a fixed state.

    Built once per state: the cell samples of the state and A, A', A''
    there.  `apply` then maps the cell samples of a direction, and the
    caller's value weight (its potential terms), to the nodal product
    with one scatter.
    """

    __slots__ = ("grid", "v", "gx", "gy", "a", "da", "dagx", "dagy", "curv")

    def __init__(self, values: np.ndarray, fam: CoefficientFamily, grid: Grid):
        v = cell_values_of(values, grid)
        gx, gy = cell_gradients_of(values, grid)
        da = fam.da(v)
        self.grid = grid
        self.v, self.gx, self.gy = v, gx, gy
        self.a = fam.a(v)
        self.da = da
        self.dagx, self.dagy = da * gx, da * gy
        self.curv = 0.5 * fam.d2a(v) * (gx * gx + gy * gy)

    def sample(self, d: np.ndarray):
        """(value, d/dx, d/dy) cell samples of a nodal direction."""
        return (cell_values_of(d, self.grid), *cell_gradients_of(d, self.grid))

    def apply(self, samples, w_val: np.ndarray) -> np.ndarray:
        dv, dgx, dgy = samples
        w_val = w_val + self.curv * dv + self.da * (self.gx * dgx + self.gy * dgy)
        w_gx = self.dagx * dv + self.a * dgx
        w_gy = self.dagy * dv + self.a * dgy
        return scatter_cells(self.grid, w_val, w_gx, w_gy)


def pair_hessian(
    u: StatePair,
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
):
    """Exact Hessian of total_energy at u, as a product with a direction.

    Returns `hess(d1, d2) -> (h1, h2)` on bare (nx, ny) nodal arrays,
    scaled as euler_gradient: the derivative of euler_gradient at u in
    the direction (d1, d2).
    """
    c1 = _ProfileLinearization(u.u1.values, fam1, grid)
    c2 = _ProfileLinearization(u.u2.values, fam2, grid)
    h11, h12, h22 = coupling_hess_g(c1.v, c2.v, params)
    m1 = params.lambda1 + h11
    m2 = params.lambda2 + h22

    def hess(d1: np.ndarray, d2: np.ndarray):
        s1, s2 = c1.sample(d1), c2.sample(d2)
        return (
            c1.apply(s1, -(m1 * s1[0] + h12 * s2[0])),
            c2.apply(s2, -(m2 * s2[0] + h12 * s1[0])),
        )

    return hess


def scalar_hessian_c(
    z: ScalarField,
    lam: float,
    p: float,
    fam: CoefficientFamily,
    grid: Grid,
    nonlin_coeff: float = 1.0,
):
    """Exact Hessian of scalar_energy_c at z: `hess(d) -> h` on nodal
    arrays, the derivative of scalar_euler_gradient_c in direction d."""
    c = _ProfileLinearization(z.values, fam, grid)
    m = lam + nonlin_coeff * (p - 1.0) * np.abs(c.v) ** (p - 2.0)

    def hess(d: np.ndarray) -> np.ndarray:
        s = c.sample(d)
        return c.apply(s, -m * s[0])

    return hess


def nehari_residual(
    u: StatePair,
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
) -> NehariResidual:
    """Constraint values r_i; r_1 + r_2 equals <E'(u), u> exactly."""
    c = _CellData(u, grid)
    p, beta = params.p, params.beta
    cross = float(np.sum(np.abs(c.v1 * c.v2) ** (p / 2.0))) * grid.cell_area

    def component(v, gsq, fam, lam):
        dens = fam.a(v) * gsq + 0.5 * fam.da(v) * gsq * v - lam * v**2 - np.abs(v) ** p
        return float(np.sum(dens)) * grid.cell_area - beta * cross

    return NehariResidual(
        component(c.v1, c.gsq1, fam1, params.lambda1),
        component(c.v2, c.gsq2, fam2, params.lambda2),
    )


def scale_state(u: StatePair, t1: float, t2: float) -> StatePair:
    return StatePair(
        ScalarField(t1 * u.u1.values, u.spec),
        ScalarField(t2 * u.u2.values, u.spec),
    )
