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

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch, InvalidSpec, InvalidState


@dataclass(frozen=True)
class GridSpec:
    """Interior node counts and physical extents of the rectangle."""

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        try:
            small = min(operator.index(self.nx), operator.index(self.ny)) < 2
        except TypeError:
            small = True
        if small:
            raise InvalidSpec(
                f"need integers nx, ny >= 2, got ({self.nx!r}, {self.ny!r})")
        if not (0.0 < self.lx < np.inf and 0.0 < self.ly < np.inf):
            raise InvalidSpec(f"need finite lx, ly > 0, got ({self.lx}, {self.ly})")

    @property
    def hx(self) -> float:
        return self.lx / (self.nx + 1)

    @property
    def hy(self) -> float:
        return self.ly / (self.ny + 1)


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

    @property
    def shape(self) -> tuple[int, int]:
        return (self.spec.nx, self.spec.ny)

    @property
    def cell_shape(self) -> tuple[int, int]:
        return (self.spec.nx + 1, self.spec.ny + 1)

    def node_mesh(self):
        return np.meshgrid(self.xs, self.ys, indexing="ij")

    def padded(self, values: np.ndarray) -> np.ndarray:
        """Nodal arrays (any leading axes) extended by the zero boundary ring."""
        lead, shape = np.shape(values)[:-2], np.shape(values)[-2:]
        if shape != self.shape:
            raise GridMismatch(f"nodal arrays of shape {shape}, grid is {self.shape}")
        P = np.zeros((*lead, self.spec.nx + 2, self.spec.ny + 2))
        P[..., 1:-1, 1:-1] = values
        return P

    @cached_property
    def quadrature_solver(self):
        """Exact solve with the quadrature stiffness of the gradient term,
        the one sine-basis solver of the grid, built on first use by
        `spectrum.make_poisson_solver` (looked up at call time: spectrum
        imports this module)."""
        from . import spectrum

        return spectrum.make_poisson_solver(self)


def build_grid(spec: GridSpec) -> Grid:
    return Grid(spec)


class ScalarField:
    """One component, interior nodal values on a grid (boundary is 0)."""

    __slots__ = ("values", "spec")

    def __init__(self, values, spec: GridSpec):
        arr = np.array(values, dtype=float)
        if arr.size != spec.nx * spec.ny:
            raise GridMismatch(
                f"field values of shape {arr.shape}, grid is {(spec.nx, spec.ny)}"
            )
        arr = arr.reshape(spec.nx, spec.ny)
        if not np.all(np.isfinite(arr)):
            raise InvalidState("field contains non-finite entries")
        arr.setflags(write=False)
        self.values = arr
        self.spec = spec

    def __array__(self, dtype=None, copy=None):
        """The nodal values, so a field passes wherever an array does."""
        return np.array(self.values, dtype=dtype, copy=copy)

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

    def stacked(self) -> np.ndarray:
        """The nodal values as one (2, nx, ny) array."""
        return np.stack((self.u1.values, self.u2.values))

    @classmethod
    def from_stack(cls, x: np.ndarray, spec: GridSpec) -> "StatePair":
        return cls(ScalarField(x[0], spec), ScalarField(x[1], spec))

    def __eq__(self, other):
        return (
            isinstance(other, StatePair)
            and self.u1 == other.u1
            and self.u2 == other.u2
        )


def cell_values(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Bilinear interpolant at every cell center, of nodal arrays with any
    leading axes (a (k, nx, ny) stack gives (k, nx+1, ny+1))."""
    P = grid.padded(values)
    sx = P[..., :-1, :] + P[..., 1:, :]  # neighbours in x, summed
    return 0.25 * (sx[..., :-1] + sx[..., 1:])


def cell_gradients(values: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, d/dy) of the bilinear interpolant at every cell center, of
    nodal arrays with any leading axes."""
    P = grid.padded(values)
    left, right = P[..., :-1, :], P[..., 1:, :]
    sx, dx = left + right, right - left
    gx = (dx[..., :-1] + dx[..., 1:]) / (2.0 * grid.hx)
    gy = (sx[..., 1:] - sx[..., :-1]) / (2.0 * grid.hy)
    return gx, gy


class CellWorkspace:
    """Buffers, allocated once, for sampling (*lead, nx, ny) stacks onto the
    cells and scattering cell weights back: the padded copy, whose zero
    ring is never written, three arrays shaped like the sums of its
    x-neighbours, four cell arrays and one nodal array one entry wider in y.
    Every `sample_cells` or `scatter_cells` call handed the workspace
    overwrites them, so what one call returns in it lives until the next.
    """

    __slots__ = ("padded", "x_pairs", "cells", "nodes")

    def __init__(self, grid: Grid, lead: tuple[int, ...]):
        nx, ny = grid.shape
        self.padded = np.zeros((*lead, nx + 2, ny + 2))
        self.x_pairs = tuple(np.empty((*lead, nx + 1, ny + 2)) for _ in range(3))
        self.cells = tuple(np.empty((*lead, nx + 1, ny + 1)) for _ in range(4))
        self.nodes = np.empty((*lead, nx, ny + 1))


# numpy buffers every operand of a ufunc that is a view sliced along the
# last axis, allocating its buffers (up to 64 KiB each) on every call.  So
# the kernels below pair y-neighbours over the flattened C-contiguous
# arrays, entry i with entry i + 1: the pairs in the last column straddle
# two rows and are discarded.


def _flat(a: np.ndarray) -> np.ndarray:
    return a.reshape(-1)


def sample_cells(values: np.ndarray, grid: Grid, work: CellWorkspace):
    """(v, gx, gy): `cell_values` and `cell_gradients` at once, bit for
    bit, from one padded copy, each formed in the buffers of `work`, a
    workspace for the leading axes of `values`."""
    P = work.padded
    interior = P[..., 1:-1, 1:-1]
    if np.shape(values) != interior.shape:
        raise GridMismatch(
            f"nodal arrays of shape {np.shape(values)}, expected {interior.shape}"
        )
    interior[...] = values
    sx, dx, pairs = work.x_pairs
    np.add(P[..., :-1, :], P[..., 1:, :], out=sx)  # neighbours in x, summed
    np.subtract(P[..., 1:, :], P[..., :-1, :], out=dx)
    v, gx, gy, _t = work.cells
    s, d, t = _flat(sx), _flat(dx), _flat(pairs)
    np.add(s[:-1], s[1:], out=t[:-1])
    v[...] = pairs[..., :-1]
    v *= 0.25
    np.add(d[:-1], d[1:], out=t[:-1])
    gx[...] = pairs[..., :-1]
    gx /= 2.0 * grid.hx
    np.subtract(s[1:], s[:-1], out=t[:-1])
    gy[...] = pairs[..., :-1]
    gy /= 2.0 * grid.hy
    return v, gx, gy


def integrate(cellvals: np.ndarray, grid: Grid) -> float:
    """Midpoint quadrature: sum of cell-center samples times cell area."""
    if cellvals.shape != grid.cell_shape:
        raise GridMismatch(
            f"expected cell array of shape {grid.cell_shape}, got {cellvals.shape}"
        )
    return float(np.sum(cellvals)) * grid.cell_area


def scatter_cells(
    grid: Grid,
    w_val: np.ndarray | None = None,
    w_gx: np.ndarray | None = None,
    w_gy: np.ndarray | None = None,
    work: CellWorkspace | None = None,
) -> np.ndarray:
    """Adjoint of the cell sampling maps, as a new interior nodal array.

    Returns the nodal array G with, for every nodal perturbation d,
        sum_cells (w_val*dV + w_gx*dgx + w_gy*dgy) = sum_nodes G*d,
    where dV, dgx, dgy are the cell-center value/gradient perturbations
    induced by d.  This is the chain-rule backbone of every exact
    discrete gradient below.  Weights with leading axes (k, nx+1, ny+1)
    give a (k, nx, ny) stack.  The intermediate sums are formed in the
    cells and y-neighbour sums of `work` when one is given (none of its
    cells may hold a weight), else in arrays allocated here.

    Node (i, j) gathers the four cells around it: cells i and i+1 in x lie
    left and right of it, cells j and j+1 in y below and above it.  The
    weights are summed over the two cells in y, then over the two in x.
    """
    shape = next(np.shape(w) for w in (w_val, w_gx, w_gy) if w is not None)
    if shape[-2:] != grid.cell_shape:
        raise GridMismatch(f"cell weights of shape {shape}, grid is {grid.cell_shape}")
    if work is None:
        v, x, y, below = (np.empty(shape) for _ in range(4))
        nodes = np.empty((*shape[:-2], grid.spec.nx, grid.spec.ny + 1))
    else:
        (v, x, y, below), nodes = work.cells, work.nodes
    for w, c, out in ((w_val, 0.25, v), (w_gx, 0.5 / grid.hx, x),
                      (w_gy, 0.5 / grid.hy, y)):
        if w is None:
            out.fill(0.0)
        else:
            np.multiply(w, c, out=out)
    np.add(v, y, out=below)
    above = np.subtract(v, y, out=v)
    # sy = below[..., :-1] + above[..., 1:] into y, then sx = x[..., :-1] +
    # x[..., 1:] into v, each valid in the first ny columns
    sy = y
    np.add(_flat(below)[:-1], _flat(above)[1:], out=_flat(sy)[:-1])
    sx = v
    np.add(_flat(x)[:-1], _flat(x)[1:], out=_flat(sx)[:-1])
    # (sy + sx) of the left cell plus (sy - sx) of the right one
    plus, minus = np.add(sy, sx, out=below), np.subtract(sy, sx, out=sx)
    np.add(plus[..., :-1, :], minus[..., 1:, :], out=nodes)
    return nodes[..., :-1].copy()


# field dump format: header `FIELD nx ny lx ly`, then nx*ny lines
# `i j x y value` (1-based indices, row-major, 17 significant digits)


def dump_field(fld: ScalarField, grid: Grid, path) -> None:
    if fld.spec != grid.spec:
        raise GridMismatch(f"field on {fld.spec}, grid is {grid.spec}")
    nx, ny = grid.shape
    with open(path, "w") as fh:
        fh.write(f"FIELD {nx} {ny} {grid.spec.lx:.17g} {grid.spec.ly:.17g}\n")
        for i in range(nx):
            for j in range(ny):
                fh.write(
                    f"{i + 1} {j + 1} {grid.xs[i]:.17g} {grid.ys[j]:.17g} "
                    f"{fld.values[i, j]:.17g}\n"
                )


def _numbers(path, line_no: int, kinds, texts) -> list:
    """texts converted by kinds, or InvalidState naming the path and line."""
    try:
        return [kind(text) for kind, text in zip(kinds, texts)]
    except ValueError:
        raise InvalidState(f"{path}: line {line_no}: non-numeric entry") from None


def load_field(path) -> ScalarField:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != "FIELD":
            raise InvalidState(f"{path}: not a field dump")
        nx, ny, lx, ly = _numbers(path, 1, (int, int, float, float), header[1:])
        spec = GridSpec(nx, ny, lx, ly)
        vals = np.zeros((nx, ny))
        seen = np.zeros((nx, ny), dtype=bool)
        for line_no, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 5:
                raise InvalidState(f"{path}: malformed row {line!r}")
            i, j, value = _numbers(
                path, line_no, (int, int, float), (parts[0], parts[1], parts[4])
            )
            i, j = i - 1, j - 1
            if not (0 <= i < nx and 0 <= j < ny):
                raise InvalidState(f"{path}: node ({i + 1}, {j + 1}) out of range")
            if seen[i, j]:
                raise InvalidState(f"{path}: node ({i + 1}, {j + 1}) repeated")
            vals[i, j] = value
            seen[i, j] = True
        if not seen.all():
            raise InvalidState(f"{path}: expected {nx * ny} rows, found {seen.sum()}")
    return ScalarField(vals, spec)
