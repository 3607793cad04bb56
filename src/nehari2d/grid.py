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
        if not (0.0 < self.lx < np.inf and 0.0 < self.ly < np.inf):
            raise InvalidSpec(f"need finite lx, ly > 0, got ({self.lx}, {self.ly})")

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

    # built on first use through the spectrum module's functions, looked
    # up at call time (spectrum imports this module)
    @cached_property
    def poisson_solver(self):
        """Exact 5-point -Laplace solve, `spectrum.make_poisson_solver`."""
        from . import spectrum

        return spectrum.make_poisson_solver(self)

    @cached_property
    def form_patterns(self):
        """`{k: (indptr, indices, mask)}` for k = 1, 2: the 9-point CSR
        pattern of `cell_form_matrix` on k-component stacks, and the mask
        that picks its entries, in CSR order, out of the per-node stencil
        layout the cell blocks are summed into."""
        return {k: _form_pattern(*self.shape, k) for k in (1, 2)}

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

    def __array__(self, dtype=None, copy=None):
        """The nodal values, so a field passes wherever an array does."""
        return np.array(self.values, dtype=dtype, copy=copy)

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


def _check(field: ScalarField, grid: Grid):
    if field.spec != grid.spec:
        raise GridMismatch(f"field on {field.spec}, grid is {grid.spec}")


def cell_values(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Bilinear interpolant at every cell center, of nodal arrays with any
    leading axes (a (k, nx, ny) stack gives (k, nx+1, ny+1))."""
    P = grid.padded(values)
    return 0.25 * (
        P[..., :-1, :-1] + P[..., 1:, :-1] + P[..., :-1, 1:] + P[..., 1:, 1:]
    )


def cell_gradients(values: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, d/dy) of the bilinear interpolant at every cell center, of
    nodal arrays with any leading axes."""
    P = grid.padded(values)
    a, b = P[..., :-1, :-1], P[..., 1:, :-1]
    c, d = P[..., :-1, 1:], P[..., 1:, 1:]
    gx = ((b + d) - (a + c)) / (2.0 * grid.hx)
    gy = ((c + d) - (a + b)) / (2.0 * grid.hy)
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
    _check(fld, grid)
    gx, gy = cell_gradients(fld.values, grid)
    return gx * gx + gy * gy


def l2_inner(f: ScalarField, g: ScalarField, grid: Grid) -> float:
    """Quadrature of the product of the two interpolants."""
    _check(f, grid)
    _check(g, grid)
    return integrate(cell_values(f.values, grid) * cell_values(g.values, grid), grid)


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
    discrete gradient below.  Weights with leading axes (k, nx+1, ny+1)
    give a (k, nx, ny) stack.
    """
    lead = next(np.shape(w)[:-2] for w in (w_val, w_gx, w_gy) if w is not None)
    N = np.zeros((*lead, grid.spec.nx + 2, grid.spec.ny + 2))
    a, b = N[..., :-1, :-1], N[..., 1:, :-1]
    c, d = N[..., :-1, 1:], N[..., 1:, 1:]
    if w_val is not None:
        q = 0.25 * w_val
        a += q
        b += q
        c += q
        d += q
    if w_gx is not None:
        q = w_gx / (2.0 * grid.hx)
        a -= q
        c -= q
        b += q
        d += q
    if w_gy is not None:
        q = w_gy / (2.0 * grid.hy)
        a -= q
        b -= q
        c += q
        d += q
    return N[..., 1:-1, 1:-1]


def _form_pattern(nx: int, ny: int, k: int):
    """CSR pattern of the 9-point stencil on k-component stacks.

    Row (c, i, j) couples to the in-range nodes (c', i+di, j+dj), di and
    dj in {-1, 0, 1}, whatever c is; `mask` marks those entries of the
    (nx, ny, k, 3, 3) array indexed [i, j, c', di+1, dj+1], whose C order
    is CSR order within the rows of one component.
    """
    i = np.arange(nx)[:, None, None, None, None]
    j = np.arange(ny)[None, :, None, None, None]
    off = np.arange(-1, 2)[:, None]
    ni, nj = i + off, j + off.T
    inside = (ni >= 0) & (ni < nx) & (nj >= 0) & (nj < ny)
    cols = np.arange(k)[:, None, None] * (nx * ny) + ni * ny + nj
    mask = np.broadcast_to(inside, cols.shape).copy()
    indices = np.tile(cols[mask].astype(np.int32), k)
    indptr = np.zeros(k * nx * ny + 1, dtype=np.int32)
    np.cumsum(np.tile(mask.sum(axis=(2, 3, 4)).ravel(), k), out=indptr[1:])
    for arr in (indptr, indices, mask):
        arr.setflags(write=False)
    return indptr, indices, mask


# the four corner nodes of a cell, in the order (a, b, c, d) of the
# stencils above, as offsets from the cell's lower-left padded node
_CORNERS = ((0, 0), (1, 0), (0, 1), (1, 1))


def cell_form_matrix(
    grid: Grid,
    w_vv: np.ndarray,
    w_vx: np.ndarray,
    w_vy: np.ndarray,
    w_gg: np.ndarray,
    w_cross: np.ndarray | None = None,
):
    """The matrix of a symmetric form in the cell samples of two stacks.

    The weights are (k, nx+1, ny+1) cell arrays, k = 1 or 2, and
    `w_cross` (k = 2 only) one (nx+1, ny+1) array.  Returns the
    `scipy.sparse.csr_array` H of order k*nx*ny on raveled (k, nx, ny)
    stacks with
        H d = scatter_cells(grid, w_vv*dV + w_vx*dgx + w_vy*dgy
                                  + w_cross*dV[::-1],
                            w_vx*dV + w_gg*dgx, w_vy*dV + w_gg*dgy)
    for every stack d with cell values dV and gradients (dgx, dgy).  Each
    cell adds to its corner nodes the 4x4 block
        w_vv vv' + w_vx (vx' + xv') + w_vy (vy' + yv') + w_gg (xx' + yy'),
    v, x and y being the corners' weights in the cell value and
    gradients, and w_cross vv' between the two components.
    """
    k = len(w_vv)
    nx, ny = grid.shape
    indptr, indices, mask = grid.form_patterns[k]
    # the corners' weights in the cell value and gradients
    v = np.full(4, 0.25)
    x = np.array([-1.0, 1.0, -1.0, 1.0]) / (2.0 * grid.hx)
    y = np.array([-1.0, -1.0, 1.0, 1.0]) / (2.0 * grid.hy)
    # coef[r, s] weighs (w_vv, w_vx, w_vy, w_gg) in the (r, s) block entry
    outer = np.outer
    coef = np.stack(
        (outer(v, v), outer(v, x) + outer(x, v), outer(v, y) + outer(y, v),
         outer(x, x) + outer(y, y)),
        axis=-1,
    )
    if w_cross is not None:
        cross = w_cross / 16.0  # every entry of vv'
    data = np.empty(len(indices))
    rows = np.split(data, k)  # the entries of each component's rows
    for c in range(k):
        # S[c', di+1, dj+1, i, j] = H[(c, i, j), (c', i+di, j+dj)]
        S = np.zeros((k, 3, 3, nx, ny))
        weights = np.reshape((w_vv[c], w_vx[c], w_vy[c], w_gg[c]), (4, -1))
        for r, (ai, aj) in enumerate(_CORNERS):
            # the cells with row node (i, j) at corner r
            cells = (slice(1 - ai, nx + 1 - ai), slice(1 - aj, ny + 1 - aj))
            blocks = (coef[r] @ weights).reshape(4, nx + 1, ny + 1)
            for s, (bi, bj) in enumerate(_CORNERS):
                slot = (1 + bi - ai, 1 + bj - aj)
                S[c][slot] += blocks[s][cells]
                if w_cross is not None:
                    S[1 - c][slot] += cross[cells]
        rows[c][:] = S.transpose(3, 4, 0, 1, 2)[mask]
    # imported on first use: at module level, ahead of the rest of scipy,
    # it made the package import about 20 ms slower
    from scipy.sparse import csr_array

    n = k * nx * ny
    return csr_array((data, indices, indptr), shape=(n, n))


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
        seen = np.zeros((nx, ny), dtype=bool)
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 5:
                raise ValueError(f"{path}: malformed row {line!r}")
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
            if not (0 <= i < nx and 0 <= j < ny):
                raise ValueError(f"{path}: node ({i + 1}, {j + 1}) out of range")
            if seen[i, j]:
                raise ValueError(f"{path}: node ({i + 1}, {j + 1}) repeated")
            vals[i, j] = float(parts[4])
            seen[i, j] = True
        if not seen.all():
            raise ValueError(f"{path}: expected {nx * ny} rows, found {seen.sum()}")
    return ScalarField(vals, spec)
