import math

import numpy as np
import pytest

import nehari2d.grid as G
from nehari2d import GridSpec, ScalarField, StatePair, build_grid
from nehari2d.errors import GridMismatch, InvalidSpec

from conftest import zero_field


def sine_field(grid):
    X, Y = grid.node_mesh()
    s = grid.spec
    return ScalarField(np.sin(np.pi * X / s.lx) * np.sin(np.pi * Y / s.ly), s)


class TestGridSpec:
    def test_spacings(self):
        spec = GridSpec(3, 3, 1.0, 1.0)
        assert spec.hx == 0.25 and spec.hy == 0.25

    def test_node_count(self):
        assert GridSpec(63, 63).n_nodes == 3969

    @pytest.mark.parametrize(
        "nx,ny,lx,ly",
        [(1, 4, 1.0, 1.0), (4, 1, 1.0, 1.0), (4, 4, 0.0, 1.0), (4, 4, 1.0, -2.0),
         (4, 4, math.inf, 1.0), (4, 4, 1.0, math.inf), (4, 4, math.nan, 1.0)],
    )
    def test_invalid_specs(self, nx, ny, lx, ly):
        with pytest.raises(InvalidSpec):
            GridSpec(nx, ny, lx, ly)

    def test_build_deterministic(self):
        a = build_grid(GridSpec(5, 7, 2.0, 3.0))
        b = build_grid(GridSpec(5, 7, 2.0, 3.0))
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    def test_solver_and_eigenpair_built_once_per_grid(self, monkeypatch):
        import nehari2d.spectrum as spectrum

        built = []

        def counting(name):
            fn = getattr(spectrum, name)

            def build(grid):
                built.append(name)
                return fn(grid)

            return build

        for name in ("make_poisson_solver", "principal_eigenpair"):
            monkeypatch.setattr(spectrum, name, counting(name))
        grid = build_grid(GridSpec(7, 7, 1.0, 1.0))
        assert built == []
        assert grid.eigenpair is grid.eigenpair
        assert grid.poisson_solver is grid.poisson_solver
        assert sorted(built) == ["make_poisson_solver", "principal_eigenpair"]

    def test_form_patterns_built_once_per_grid(self, monkeypatch):
        built = []
        real = G._form_pattern

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(G, "_form_pattern", counting)
        grid = build_grid(GridSpec(5, 4, 1.0, 1.0))
        w = np.ones((4, 2, 6, 5))
        first = G.cell_form_matrix(grid, *w, w[0, 0])
        for _ in range(2):
            G.cell_form_matrix(grid, *w[:, :1])
            again = G.cell_form_matrix(grid, *w, w[0, 0])
        assert sorted(built) == [(5, 4, 1), (5, 4, 2)]
        assert np.shares_memory(first.indices, again.indices)


class TestCellFormMatrix:
    @pytest.mark.parametrize("k", [1, 2])
    def test_product_is_the_scattered_form(self, k):
        grid = build_grid(GridSpec(9, 6, 1.0, 1.7))
        rng = np.random.default_rng(k)
        w_vv, w_vx, w_vy, w_gg = rng.standard_normal((4, k, 10, 7))
        w_cross = rng.standard_normal((10, 7)) if k == 2 else None
        H = G.cell_form_matrix(grid, w_vv, w_vx, w_vy, w_gg, w_cross)
        for d in rng.standard_normal((3, k, 9, 6)):
            dv = G.cell_values(d, grid)
            dgx, dgy = G.cell_gradients(d, grid)
            w_val = w_vv * dv + w_vx * dgx + w_vy * dgy
            if k == 2:
                w_val += w_cross * dv[::-1]
            ref = G.scatter_cells(grid, w_val, w_vx * dv + w_gg * dgx,
                                  w_vy * dv + w_gg * dgy)
            err = np.linalg.norm(H @ d.ravel() - ref.ravel())
            assert err <= 1e-13 * np.linalg.norm(ref)


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


class TestGradSq:
    def test_zero_field(self, grid15):
        z = zero_field(grid15)
        assert np.all(G.grad_sq(z, grid15) == 0.0)

    def test_single_node_stencil(self):
        # one interior node at 1: each adjacent cell sees (1/2h)^2 + (1/2h)^2
        grid = build_grid(GridSpec(5, 5, 1.0, 1.0))
        h = grid.hx
        vals = np.zeros(grid.shape)
        vals[2, 2] = 1.0
        gsq = G.grad_sq(ScalarField(vals, grid.spec), grid)
        expected = (1.0 / (2 * h)) ** 2 + (1.0 / (2 * h)) ** 2
        for a, b in ((2, 2), (3, 2), (2, 3), (3, 3)):
            assert gsq[a, b] == pytest.approx(expected, rel=1e-13)

    def test_sine_integral_converges(self):
        # int |grad phi|^2 -> pi^2/2 on the unit square, second order
        errs = []
        for n in (15, 31, 63):
            grid = build_grid(GridSpec(n, n, 1.0, 1.0))
            val = G.integrate(G.grad_sq(sine_field(grid), grid), grid)
            errs.append(abs(val - math.pi**2 / 2.0))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.9
        assert math.log2(errs[1] / errs[2]) >= 1.9


class TestL2Inner:
    def test_positivity_random(self, grid15):
        rng = np.random.default_rng(7)
        for k in range(5):
            f = ScalarField(rng.standard_normal(grid15.shape), grid15.spec)
            assert G.l2_inner(f, f, grid15) >= 0.0

    def test_zero_right_factor(self, grid15):
        f = ScalarField(np.ones(grid15.shape), grid15.spec)
        assert G.l2_inner(f, zero_field(grid15), grid15) == 0.0

    def test_sine_mass_converges(self):
        for n, tol in ((31, 2e-3), (63, 5e-4)):
            grid = build_grid(GridSpec(n, n, 1.0, 1.0))
            val = G.l2_inner(sine_field(grid), sine_field(grid), grid)
            assert val == pytest.approx(0.25, abs=tol)

    def test_grid_mismatch(self, grid15, grid31):
        f = zero_field(grid15)
        g = zero_field(grid31)
        with pytest.raises(GridMismatch):
            G.l2_inner(f, g, grid15)

    def test_symmetry_bilinearity(self, grid15):
        rng = np.random.default_rng(3)
        f = ScalarField(rng.standard_normal(grid15.shape), grid15.spec)
        g = ScalarField(rng.standard_normal(grid15.shape), grid15.spec)
        assert G.l2_inner(f, g, grid15) == pytest.approx(
            G.l2_inner(g, f, grid15), rel=1e-13
        )


class TestRayleighQuotient:
    @pytest.mark.parametrize("lx,ly", [(1.0, 1.0), (2.0, 1.0)])
    def test_second_order_to_continuum(self, lx, ly):
        target = math.pi**2 * (1.0 / lx**2 + 1.0 / ly**2)
        errs = []
        for n in (15, 31, 63):
            grid = build_grid(GridSpec(n, n, lx, ly))
            phi = sine_field(grid)
            rq = G.integrate(G.grad_sq(phi, grid), grid) / G.l2_inner(phi, phi, grid)
            errs.append(abs(rq - target))
        assert math.log2(errs[0] / errs[1]) >= 1.9
        assert math.log2(errs[1] / errs[2]) >= 1.9


class TestFields:
    def test_scalar_field_shape_and_flat_order(self):
        spec = GridSpec(2, 3, 1.0, 1.0)
        f = ScalarField([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], spec)
        assert f.values.shape == (2, 3)
        assert list(f.flat) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_rejects_nonfinite(self):
        spec = GridSpec(2, 2)
        with pytest.raises(ValueError):
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
        sw = StatePair(a, b).swapped()
        assert sw.u1 == b and sw.u2 == a


class TestFieldDump:
    def test_round_trip_bit_exact(self, grid15, tmp_path):
        rng = np.random.default_rng(11)
        f = ScalarField(rng.standard_normal(grid15.shape), grid15.spec)
        path = tmp_path / "f.field"
        G.dump_field(f, grid15, path)
        g = G.load_field(path)
        assert g.spec == grid15.spec
        assert np.array_equal(g.values, f.values)

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
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError, match=r"node \(1, 1\) repeated"):
            G.load_field(path)

    def test_energy_reproduced(self, grid31, tmp_path):
        # the reported-energy round trip lives in the cli tests; here: integrals
        rng = np.random.default_rng(5)
        f = ScalarField(rng.standard_normal(grid31.shape), grid31.spec)
        path = tmp_path / "f.field"
        G.dump_field(f, grid31, path)
        g = G.load_field(path)
        a = G.integrate(G.grad_sq(f, grid31), grid31)
        b = G.integrate(G.grad_sq(g, grid31), grid31)
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
        grid.poisson_solver(x), G.cell_values(x, grid), *G.cell_gradients(x, grid),
        G.scatter_cells(grid, *w),
    )
    for i in range(2):
        single = (
            grid.poisson_solver(x[i]), G.cell_values(x[i], grid),
            *G.cell_gradients(x[i], grid), G.scatter_cells(grid, *w[:, i]),
        )
        for a, b in zip(stacked, single):
            assert a[i].shape == b.shape and np.array_equal(a[i], b)
