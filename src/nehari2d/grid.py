"""Rectangle discretization with implicit zero Dirichlet boundary.

The domain (0, lx) x (0, ly) carries nx * ny interior nodes on a uniform
lattice with spacings hx = lx/(nx+1), hy = ly/(ny+1).  Boundary values are
identically zero and never stored.  All integrals use one quadrature rule:
bilinear interpolation from the four surrounding nodes of each of the
(nx+1)*(ny+1) cells, sampled at the cell center, times the cell area.
Using a single rule everywhere makes every energy below an exactly
differentiable function of the nodal values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch, InvalidSpec


@dataclass(frozen=True)
class GridSpec:
    """Interior node counts and physical extents of the rectangle."""

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise InvalidSpec(f"need nx, ny >= 2, got ({self.nx}, {self.ny})")
        if not (self.lx > 0.0 and self.ly > 0.0):
            raise InvalidSpec(f"need lx, ly > 0, got ({self.lx}, {self.ly})")

    @property
    def hx(self) -> float:
        return self.lx / (self.nx + 1)

    @property
    def hy(self) -> float:
        return self.ly / (self.ny + 1)

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny


class Grid:
    """Precomputed coordinates and quadrature helpers for one GridSpec.

    Nodal fields are (nx, ny) arrays indexed [i, j] with x = (i+1)*hx,
    y = (j+1)*hy.  Cell-sampled quantities are (nx+1, ny+1) arrays, one
    entry per cell, in the same lexicographic order.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.hx = spec.hx
        self.hy = spec.hy
        self.cell_area = self.hx * self.hy
        self.xs = (1.0 + np.arange(spec.nx)) * self.hx
        self.ys = (1.0 + np.arange(spec.ny)) * self.hy
        # cell centers, one per cell including the boundary ring
        self.xc = (0.5 + np.arange(spec.nx + 1)) * self.hx
        self.yc = (0.5 + np.arange(spec.ny + 1)) * self.hy

    @property
    def shape(self) -> tuple[int, int]:
        return (self.spec.nx, self.spec.ny)

    @property
    def cell_shape(self) -> tuple[int, int]:
        return (self.spec.nx + 1, self.spec.ny + 1)

    def node_mesh(self):
        return np.meshgrid(self.xs, self.ys, indexing="ij")

    def padded(self, values: np.ndarray) -> np.ndarray:
        """Nodal array extended by the zero boundary ring."""
        P = np.zeros((self.spec.nx + 2, self.spec.ny + 2))
        P[1:-1, 1:-1] = values
        return P

    # built on first use through the spectrum module's functions, looked
    # up at call time (spectrum imports this module)
    @cached_property
    def poisson_solver(self):
        """Exact 5-point -Laplace solve, `spectrum.make_poisson_solver`."""
        from . import spectrum

        return spectrum.make_poisson_solver(self)

    @cached_property
    def eigenpair(self):
        """Principal stencil eigenpair, `spectrum.principal_eigenpair`."""
        from . import spectrum

        return spectrum.principal_eigenpair(self)


def build_grid(spec: GridSpec) -> Grid:
    return Grid(spec)


class ScalarField:
    """One component, interior nodal values on a grid (boundary is 0)."""

    __slots__ = ("values", "spec")

    def __init__(self, values, spec: GridSpec):
        arr = np.array(values, dtype=float).reshape(spec.nx, spec.ny)
        if not np.all(np.isfinite(arr)):
            raise ValueError("field contains non-finite entries")
        arr.setflags(write=False)
        self.values = arr
        self.spec = spec

    @property
    def flat(self) -> np.ndarray:
        """Row-major vector of length nx*ny (i outer, j inner)."""
        return self.values.reshape(-1)

    def __eq__(self, other):
        return (
            isinstance(other, ScalarField)
            and self.spec == other.spec
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return f"ScalarField({self.spec.nx}x{self.spec.ny})"


class StatePair:
    """The pair u = (u1, u2), both components on one grid."""

    __slots__ = ("u1", "u2")

    def __init__(self, u1: ScalarField, u2: ScalarField):
        if u1.spec != u2.spec:
            raise GridMismatch("state components live on different grids")
        self.u1 = u1
        self.u2 = u2

    @property
    def spec(self) -> GridSpec:
        return self.u1.spec

    def swapped(self) -> "StatePair":
        return StatePair(self.u2, self.u1)

    def __eq__(self, other):
        return (
            isinstance(other, StatePair)
            and self.u1 == other.u1
            and self.u2 == other.u2
        )


def _check(field: ScalarField, grid: Grid):
    if field.spec != grid.spec:
        raise GridMismatch(f"field on {field.spec}, grid is {grid.spec}")


def cell_values(fld: ScalarField, grid: Grid) -> np.ndarray:
    """Bilinear interpolant of the field at every cell center."""
    _check(fld, grid)
    return cell_values_of(fld.values, grid)


def cell_gradients(fld: ScalarField, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, d/dy) of the bilinear interpolant at every cell center."""
    _check(fld, grid)
    return cell_gradients_of(fld.values, grid)


def cell_values_of(values: np.ndarray, grid: Grid) -> np.ndarray:
    """cell_values of a bare (nx, ny) nodal array, unchecked."""
    P = grid.padded(values)
    return 0.25 * (P[:-1, :-1] + P[1:, :-1] + P[:-1, 1:] + P[1:, 1:])


def cell_gradients_of(
    values: np.ndarray, grid: Grid
) -> tuple[np.ndarray, np.ndarray]:
    """cell_gradients of a bare (nx, ny) nodal array, unchecked."""
    P = grid.padded(values)
    gx = ((P[1:, :-1] + P[1:, 1:]) - (P[:-1, :-1] + P[:-1, 1:])) / (2.0 * grid.hx)
    gy = ((P[:-1, 1:] + P[1:, 1:]) - (P[:-1, :-1] + P[1:, :-1])) / (2.0 * grid.hy)
    return gx, gy


def integrate(cellvals: np.ndarray, grid: Grid) -> float:
    """Midpoint quadrature: sum of cell-center samples times cell area."""
    if cellvals.shape != grid.cell_shape:
        raise GridMismatch(
            f"expected cell array of shape {grid.cell_shape}, got {cellvals.shape}"
        )
    return float(np.sum(cellvals)) * grid.cell_area


def grad_sq(fld: ScalarField, grid: Grid) -> np.ndarray:
    """Cell-sampled |grad u|^2 of the bilinear interpolant."""
    gx, gy = cell_gradients(fld, grid)
    return gx * gx + gy * gy


def l2_inner(f: ScalarField, g: ScalarField, grid: Grid) -> float:
    """Quadrature of the product of the two interpolants."""
    return integrate(cell_values(f, grid) * cell_values(g, grid), grid)


def scatter_cells(
    grid: Grid,
    w_val: np.ndarray | None = None,
    w_gx: np.ndarray | None = None,
    w_gy: np.ndarray | None = None,
) -> np.ndarray:
    """Adjoint of the cell sampling maps, as an interior nodal array.

    Returns the nodal array G with, for every nodal perturbation d,
        sum_cells (w_val*dV + w_gx*dgx + w_gy*dgy) = sum_nodes G*d,
    where dV, dgx, dgy are the cell-center value/gradient perturbations
    induced by d.  This is the chain-rule backbone of every exact
    discrete gradient below.
    """
    nx, ny = grid.shape
    N = np.zeros((nx + 2, ny + 2))
    if w_val is not None:
        q = 0.25 * w_val
        N[:-1, :-1] += q
        N[1:, :-1] += q
        N[:-1, 1:] += q
        N[1:, 1:] += q
    if w_gx is not None:
        q = w_gx / (2.0 * grid.hx)
        N[:-1, :-1] -= q
        N[:-1, 1:] -= q
        N[1:, :-1] += q
        N[1:, 1:] += q
    if w_gy is not None:
        q = w_gy / (2.0 * grid.hy)
        N[:-1, :-1] -= q
        N[1:, :-1] -= q
        N[:-1, 1:] += q
        N[1:, 1:] += q
    return N[1:-1, 1:-1]


# field dump format: header `FIELD nx ny lx ly`, then nx*ny lines
# `i j x y value` (1-based indices, row-major, 17 significant digits)


def dump_field(fld: ScalarField, grid: Grid, path) -> None:
    _check(fld, grid)
    nx, ny = grid.shape
    with open(path, "w") as fh:
        fh.write(f"FIELD {nx} {ny} {grid.spec.lx:.17g} {grid.spec.ly:.17g}\n")
        for i in range(nx):
            for j in range(ny):
                fh.write(
                    f"{i + 1} {j + 1} {grid.xs[i]:.17g} {grid.ys[j]:.17g} "
                    f"{fld.values[i, j]:.17g}\n"
                )


def load_field(path) -> ScalarField:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != "FIELD":
            raise ValueError(f"{path}: not a field dump")
        nx, ny = int(header[1]), int(header[2])
        spec = GridSpec(nx, ny, float(header[3]), float(header[4]))
        vals = np.zeros((nx, ny))
        seen = 0
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 5:
                raise ValueError(f"{path}: malformed row {line!r}")
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
            if not (0 <= i < nx and 0 <= j < ny):
                raise ValueError(f"{path}: node ({i + 1}, {j + 1}) out of range")
            vals[i, j] = float(parts[4])
            seen += 1
        if seen != nx * ny:
            raise ValueError(f"{path}: expected {nx * ny} rows, found {seen}")
    return ScalarField(vals, spec)
