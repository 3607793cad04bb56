import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nehari2d.grid as G
from nehari2d import GridSpec, ScalarField, StatePair, build_grid
from nehari2d.errors import GridMismatch, InvalidSpec, InvalidState

from conftest import PROPERTY, zero_field


def sine_field(grid):
    X, Y = grid.node_mesh()
    s = grid.spec
    return np.sin(np.pi * X / s.lx) * np.sin(np.pi * Y / s.ly)


def grad_sq(values, grid):
    """Cell-sampled |grad u|^2 of the bilinear interpolant."""
    gx, gy = G.cell_gradients(values, grid)
    return gx * gx + gy * gy


def l2_inner(f, g, grid):
    """Quadrature of the product of the two interpolants."""
    return G.integrate(G.cell_values(f, grid) * G.cell_values(g, grid), grid)


class TestGridSpec:
    def test_spacings(self):
        spec = GridSpec(3, 3, 1.0, 1.0)
        assert spec.hx == 0.25 and spec.hy == 0.25

    def test_node_count(self):
        spec = GridSpec(63, 63)
        assert spec.nx * spec.ny == 3969 == G.Grid(spec).node_mesh()[0].size

    @pytest.mark.parametrize(
        "nx,ny,lx,ly",
        [(1, 4, 1.0, 1.0), (4, 1, 1.0, 1.0), (4, 4, 0.0, 1.0), (4, 4, 1.0, -2.0),
         (4, 4, math.inf, 1.0), (4, 4, 1.0, math.inf), (4, 4, math.nan, 1.0)],
    )
    def test_invalid_specs(self, nx, ny, lx, ly):
        with pytest.raises(InvalidSpec):
            GridSpec(nx, ny, lx, ly)

    @pytest.mark.parametrize("nx,ny", [(7.5, 7), (7, 7.0), (7, "7")])
    def test_non_integer_node_counts(self, nx, ny):
        with pytest.raises(InvalidSpec, match="need integers nx, ny >= 2"):
            GridSpec(nx, ny)

    def test_numpy_integer_node_counts(self):
        assert build_grid(GridSpec(np.int64(7), np.int32(5))).shape == (7, 5)

    def test_build_deterministic(self):
        a = build_grid(GridSpec(5, 7, 2.0, 3.0))
        b = build_grid(GridSpec(5, 7, 2.0, 3.0))
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    def test_dst_solvers_built_once_per_grid(self, monkeypatch):
        import nehari2d.spectrum as spectrum

        built = []
        real = spectrum.make_poisson_solver

        def counting(grid):
            built.append(grid)
            return real(grid)

        monkeypatch.setattr(spectrum, "make_poisson_solver", counting)
        grid = build_grid(GridSpec(7, 7, 1.0, 1.0))
        assert built == []
        assert grid.quadrature_solver is grid.quadrature_solver
        assert built == [grid]


class TestIntegrate:
    def test_constant_one_is_area(self):
        grid = build_grid(GridSpec(9, 13, 1.0, 1.0))
        ones = np.ones(grid.cell_shape)
        assert G.integrate(ones, grid) == pytest.approx(1.0, abs=1e-14)

    def test_zero(self, grid15):
        assert G.integrate(np.zeros(grid15.cell_shape), grid15) == 0.0

    def test_exact_linearity(self, grid15):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(grid15.cell_shape)
        g = rng.standard_normal(grid15.cell_shape)
        lhs = G.integrate(2.5 * f + 0.5 * g, grid15)
        rhs = 2.5 * G.integrate(f, grid15) + 0.5 * G.integrate(g, grid15)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_shape_mismatch(self, grid15, grid31):
        with pytest.raises(GridMismatch):
            G.integrate(np.ones(grid31.cell_shape), grid15)


def corner_samples(values, grid):
    """Reference cell values and gradients, written corner by corner: the
    cell's four nodes a, b, c, d at (x-, y-), (x+, y-), (x-, y+), (x+, y+)."""
    P = grid.padded(values)
    a, b = P[..., :-1, :-1], P[..., 1:, :-1]
    c, d = P[..., :-1, 1:], P[..., 1:, 1:]
    return (0.25 * (a + b + c + d), ((b + d) - (a + c)) / (2.0 * grid.hx),
            ((c + d) - (a + b)) / (2.0 * grid.hy))


def corner_scatter(grid, w_val, w_gx, w_gy):
    """Reference adjoint of `corner_samples`: every cell adds its weights
    to its four corner nodes."""
    N = np.zeros((*np.shape(w_val)[:-2], grid.spec.nx + 2, grid.spec.ny + 2))
    corners = {(0, 0): (-1, -1), (1, 0): (1, -1), (0, 1): (-1, 1), (1, 1): (1, 1)}
    for (i, j), (sx, sy) in corners.items():
        N[..., i:i + grid.spec.nx + 1, j:j + grid.spec.ny + 1] += (
            0.25 * w_val + sx * w_gx / (2.0 * grid.hx) + sy * w_gy / (2.0 * grid.hy)
        )
    return N[..., 1:-1, 1:-1]


def allocating_scatter(grid, w_val, w_gx, w_gy):
    """`scatter_cells` as one expression per step, each allocating its
    result: the reference the in-place form must equal bit for bit."""
    v, x, y = (0.25 * w_val, (0.5 / grid.hx) * w_gx, (0.5 / grid.hy) * w_gy)
    below, above = v + y, v - y
    sy = below[..., :-1] + above[..., 1:]
    sx = x[..., :-1] + x[..., 1:]
    return (sy + sx)[..., :-1, :] + (sy - sx)[..., 1:, :]


class TestStencils:
    """The cell stencils and their adjoint against the corner references."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("spec", [GridSpec(2, 2), GridSpec(9, 6, 1.0, 1.7),
                                      GridSpec(31, 31)])
    def test_match_corner_references(self, spec, k):
        grid = build_grid(spec)
        rng = np.random.default_rng(spec.nx + k)
        x = rng.standard_normal((k, *grid.shape))
        for mine, ref in zip((G.cell_values(x, grid), *G.cell_gradients(x, grid)),
                             corner_samples(x, grid)):
            assert np.max(np.abs(mine - ref)) <= 1e-14 * np.max(np.abs(ref))
        w = rng.standard_normal((3, k, *grid.cell_shape))
        ref = corner_scatter(grid, *w)
        err = np.max(np.abs(G.scatter_cells(grid, *w) - ref))
        assert err <= 1e-14 * np.max(np.abs(ref))
        # a missing weight is a zero weight
        zero = np.zeros_like(w[0])
        for i in range(3):
            parts = [zero if j == i else w[j] for j in range(3)]
            missing = [None if j == i else w[j] for j in range(3)]
            assert np.array_equal(G.scatter_cells(grid, *missing),
                                  G.scatter_cells(grid, *parts))

    def test_scatter_is_the_adjoint_of_sampling(self):
        grid = build_grid(GridSpec(9, 6, 1.0, 1.7))
        rng = np.random.default_rng(7)
        d = rng.standard_normal((2, *grid.shape))
        w = rng.standard_normal((3, 2, *grid.cell_shape))
        cells = (G.cell_values(d, grid), *G.cell_gradients(d, grid))
        lhs = sum(np.sum(wi * ci) for wi, ci in zip(w, cells))
        rhs = np.sum(G.scatter_cells(grid, *w) * d)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_scatter_rejects_other_cell_shapes(self, grid15):
        with pytest.raises(GridMismatch):
            G.scatter_cells(grid15, np.ones((2, *grid15.shape)))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("spec", [GridSpec(2, 2), GridSpec(9, 6, 1.0, 1.7),
                                      GridSpec(63, 63)])
    def test_workspace_kernels_are_bit_identical(self, spec, k):
        # the fused sampler equals cell_values and cell_gradients, and the
        # scatter equals its allocating form with or without a workspace;
        # each call reuses the workspace and leaves its inputs alone
        grid = build_grid(spec)
        rng = np.random.default_rng(spec.nx + k)
        work = G.CellWorkspace(grid, (k,))
        for _ in range(2):
            x = rng.standard_normal((k, *grid.shape))
            w = rng.standard_normal((3, k, *grid.cell_shape))
            x0, w0 = x.copy(), w.copy()
            sampled = G.sample_cells(x, grid, work)
            refs = (G.cell_values(x, grid), *G.cell_gradients(x, grid))
            for mine, ref in zip(sampled, refs):
                assert np.array_equal(mine, ref)
                assert any(mine is buf for buf in work.cells)
            ref = allocating_scatter(grid, *w)
            assert np.array_equal(G.scatter_cells(grid, *w), ref)
            assert np.array_equal(G.scatter_cells(grid, *w, work), ref)
            assert np.array_equal(x, x0) and np.array_equal(w, w0)
        # a missing weight is a zero weight through a workspace too
        assert np.array_equal(G.scatter_cells(grid, None, w[1], w[2], work),
                              allocating_scatter(grid, np.zeros_like(w[0]), w[1], w[2]))

    def test_sample_rejects_other_shapes(self, grid15):
        # the nodal values must fill the workspace's interior exactly,
        # rather than broadcast into it
        work = G.CellWorkspace(grid15, (2,))
        for shape in (grid15.shape, (1, *grid15.shape), (2, 15, 14), (2, 16, 15)):
            with pytest.raises(GridMismatch):
                G.sample_cells(np.ones(shape), grid15, work)


class TestGradSq:
    def test_zero_field(self, grid15):
        assert np.all(grad_sq(np.zeros(grid15.shape), grid15) == 0.0)

    def test_single_node_stencil(self):
        # one interior node at 1: each adjacent cell sees (1/2h)^2 + (1/2h)^2
        grid = build_grid(GridSpec(5, 5, 1.0, 1.0))
        h = grid.hx
        vals = np.zeros(grid.shape)
        vals[2, 2] = 1.0
        gsq = grad_sq(vals, grid)
        expected = (1.0 / (2 * h)) ** 2 + (1.0 / (2 * h)) ** 2
        for a, b in ((2, 2), (3, 2), (2, 3), (3, 3)):
            assert gsq[a, b] == pytest.approx(expected, rel=1e-13)

    def test_sine_integral_converges(self):
        # int |grad phi|^2 -> pi^2/2 on the unit square, second order
        errs = []
        for n in (15, 31, 63):
            grid = build_grid(GridSpec(n, n, 1.0, 1.0))
            val = G.integrate(grad_sq(sine_field(grid), grid), grid)
            errs.append(abs(val - math.pi**2 / 2.0))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.9
        assert math.log2(errs[1] / errs[2]) >= 1.9


class TestL2Inner:
    def test_positivity_random(self, grid15):
        rng = np.random.default_rng(7)
        for k in range(5):
            f = rng.standard_normal(grid15.shape)
            assert l2_inner(f, f, grid15) >= 0.0

    def test_zero_right_factor(self, grid15):
        f = np.ones(grid15.shape)
        assert l2_inner(f, np.zeros(grid15.shape), grid15) == 0.0

    def test_sine_mass_converges(self):
        for n, tol in ((31, 2e-3), (63, 5e-4)):
            grid = build_grid(GridSpec(n, n, 1.0, 1.0))
            val = l2_inner(sine_field(grid), sine_field(grid), grid)
            assert val == pytest.approx(0.25, abs=tol)

    def test_symmetry_bilinearity(self, grid15):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(grid15.shape)
        g = rng.standard_normal(grid15.shape)
        assert l2_inner(f, g, grid15) == pytest.approx(
            l2_inner(g, f, grid15), rel=1e-13
        )


class TestRayleighQuotient:
    @pytest.mark.parametrize("lx,ly", [(1.0, 1.0), (2.0, 1.0)])
    def test_second_order_to_continuum(self, lx, ly):
        target = math.pi**2 * (1.0 / lx**2 + 1.0 / ly**2)
        errs = []
        for n in (15, 31, 63):
            grid = build_grid(GridSpec(n, n, lx, ly))
            phi = sine_field(grid)
            rq = G.integrate(grad_sq(phi, grid), grid) / l2_inner(phi, phi, grid)
            errs.append(abs(rq - target))
        assert math.log2(errs[0] / errs[1]) >= 1.9
        assert math.log2(errs[1] / errs[2]) >= 1.9


class TestFields:
    def test_scalar_field_shape_and_flat_order(self):
        spec = GridSpec(2, 3, 1.0, 1.0)
        f = ScalarField([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], spec)
        assert f.values.shape == (2, 3)
        assert list(f.values.reshape(-1)) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    @pytest.mark.parametrize("values", [np.zeros(5), np.zeros((3, 3))],
                             ids=["flat", "square"])
    def test_wrong_entry_count_is_grid_mismatch(self, values):
        spec = GridSpec(2, 3, 1.0, 1.0)
        with pytest.raises(GridMismatch, match=r"\(2, 3\)") as err:
            ScalarField(values, spec)
        assert str(values.shape) in str(err.value)

    def test_rejects_nonfinite(self):
        spec = GridSpec(2, 2)
        with pytest.raises(InvalidState):
            ScalarField([[1.0, np.nan], [0.0, 0.0]], spec)

    def test_values_readonly(self, grid15):
        f = zero_field(grid15)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_state_pair_mismatch(self, grid15, grid31):
        with pytest.raises(GridMismatch):
            StatePair(zero_field(grid15), zero_field(grid31))

    def test_swapped(self, grid15):
        rng = np.random.default_rng(0)
        a = ScalarField(rng.standard_normal(grid15.shape), grid15.spec)
        b = ScalarField(rng.standard_normal(grid15.shape), grid15.spec)
        sw = StatePair(b, a)
        assert np.array_equal(sw.stacked(), StatePair(a, b).stacked()[::-1])


class TestFieldDump:
    def test_round_trip_bit_exact(self, grid15, tmp_path):
        rng = np.random.default_rng(11)
        f = ScalarField(rng.standard_normal(grid15.shape), grid15.spec)
        path = tmp_path / "f.field"
        G.dump_field(f, grid15, path)
        g = G.load_field(path)
        assert g.spec == grid15.spec
        assert np.array_equal(g.values, f.values)

    @PROPERTY
    @given(st.data(), st.integers(7, 15), st.integers(7, 15),
           st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    def test_round_trip_property(self, tmp_path_factory, data, nx, ny, lx, ly):
        if lx == ly:
            ly = 2.0 * lx
        grid = build_grid(GridSpec(nx, ny, lx, ly))
        values = data.draw(arrays(float, grid.shape, elements=st.floats(
            allow_nan=False, allow_infinity=False)))
        f = ScalarField(values, grid.spec)
        path = tmp_path_factory.mktemp("dump") / "f.field"
        G.dump_field(f, grid, path)
        assert G.load_field(path) == f

    def test_header_format(self, grid15, tmp_path):
        path = tmp_path / "f.field"
        G.dump_field(zero_field(grid15), grid15, path)
        header = path.read_text().splitlines()[0]
        assert header == "FIELD 15 15 1 1"

    def test_truncated_dump_rejected(self, grid15, tmp_path):
        path = tmp_path / "f.field"
        G.dump_field(zero_field(grid15), grid15, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(InvalidState):
            G.load_field(path)

    @pytest.mark.parametrize("line_no,column", [(1, 1), (1, 4), (5, 0), (5, 4)])
    def test_non_numeric_entry_rejected(self, grid7, tmp_path, line_no, column):
        # a header count or extent, a row index or value: each is named
        # with its line, never a bare ValueError
        path = tmp_path / "f.field"
        G.dump_field(zero_field(grid7), grid7, path)
        lines = path.read_text().splitlines()
        parts = lines[line_no - 1].split()
        parts[column] = "x"
        lines[line_no - 1] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidState, match=rf"f\.field: line {line_no}: non-numeric"):
            G.load_field(path)

    def test_repeated_node_rejected(self, grid7, tmp_path):
        # row (1, 1) twice and row (2, 2) missing: the right row count, but
        # node (2, 2) would silently load as 0
        rng = np.random.default_rng(3)
        path = tmp_path / "f.field"
        G.dump_field(ScalarField(rng.standard_normal(grid7.shape), grid7.spec),
                     grid7, path)
        lines = path.read_text().splitlines()
        first = next(l for l in lines if l.startswith("1 1 "))
        lines = [first if l.startswith("2 2 ") else l for l in lines]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidState, match=r"node \(1, 1\) repeated"):
            G.load_field(path)

    @pytest.mark.parametrize("header", ["FIELD 7 7 1", "FIELD 7 7 1 1 1",
                                        "FIELDS 7 7 1 1", ""])
    def test_bad_header_rejected(self, grid7, tmp_path, header):
        path = tmp_path / "f.field"
        G.dump_field(zero_field(grid7), grid7, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([header, *lines[1:]]) + "\n")
        with pytest.raises(InvalidState, match=r"f\.field: not a field dump"):
            G.load_field(path)

    @pytest.mark.parametrize("row, message", [
        ("1 1 0.125 0.125", r"malformed row '1 1 0\.125 0\.125\\n'"),
        ("1 1 0.125 0.125 0 0", "malformed row"),
        ("8 1 1 0.125 0", r"node \(8, 1\) out of range"),
        ("1 0 0.125 0 0", r"node \(1, 0\) out of range"),
    ])
    def test_bad_row_rejected(self, grid7, tmp_path, row, message):
        path = tmp_path / "f.field"
        G.dump_field(zero_field(grid7), grid7, path)
        lines = path.read_text().splitlines()
        lines = [row if l.startswith("1 1 ") else l for l in lines]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidState, match=message):
            G.load_field(path)

    def test_blank_lines_skipped(self, grid7, tmp_path):
        rng = np.random.default_rng(7)
        f = ScalarField(rng.standard_normal(grid7.shape), grid7.spec)
        path = tmp_path / "f.field"
        G.dump_field(f, grid7, path)
        lines = path.read_text().splitlines()
        path.write_text("\n\n".join([lines[0], *lines[1:], ""]) + "  \n")
        assert G.load_field(path) == f

    def test_dump_to_another_grid_rejected(self, grid7, grid15, tmp_path):
        path = tmp_path / "f.field"
        with pytest.raises(GridMismatch):
            G.dump_field(zero_field(grid7), grid15, path)
        assert not path.exists()

    def test_energy_reproduced(self, grid31, tmp_path):
        # the reported-energy round trip lives in the cli tests; here: integrals
        rng = np.random.default_rng(5)
        f = ScalarField(rng.standard_normal(grid31.shape), grid31.spec)
        path = tmp_path / "f.field"
        G.dump_field(f, grid31, path)
        g = G.load_field(path)
        a = G.integrate(grad_sq(f, grid31), grid31)
        b = G.integrate(grad_sq(g, grid31), grid31)
        assert b == pytest.approx(a, rel=1e-12)


@pytest.mark.parametrize("n", [7, 15, 31, 63])
def test_stacked_calls_equal_per_component_calls(n):
    # a (2, nx, ny) stack is transformed, sampled and scattered component
    # by component, bit for bit
    grid = build_grid(GridSpec(n, n, 1.0, 1.0))
    rng = np.random.default_rng(n)
    x = rng.standard_normal((2, n, n))
    w = rng.standard_normal((3, 2, n + 1, n + 1))
    stacked = (
        grid.quadrature_solver(x), G.cell_values(x, grid), *G.cell_gradients(x, grid),
        G.scatter_cells(grid, *w),
    )
    for i in range(2):
        single = (
            grid.quadrature_solver(x[i]), G.cell_values(x[i], grid),
            *G.cell_gradients(x[i], grid), G.scatter_cells(grid, *w[:, i]),
        )
        for a, b in zip(stacked, single):
            assert a[i].shape == b.shape and np.array_equal(a[i], b)
