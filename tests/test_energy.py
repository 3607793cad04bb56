import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nehari2d.grid as G
from nehari2d import (
    ProblemParams,
    ScalarField,
    StatePair,
    euler_gradient,
    example_family,
    identity_family,
    total_energy,
)
from nehari2d.coeffs import tabulated_family
from nehari2d.energy import CellSample, Energy
from nehari2d.errors import InvalidParams
from oracles import quasilinear_strong_form, stencil_semilinear_gradient

from conftest import PROPERTY, positive_state, random_state, zero_field

FAMILIES = (identity_family(), example_family(1.0), example_family(0.5))
families = st.sampled_from(FAMILIES)
core_families = st.sampled_from(
    (identity_family(), example_family(0.5), example_family(1.3))
)
betas = st.sampled_from((-2.0, -0.5, 0.7, 3.0))
exponents = st.sampled_from((3.0, 4.0))
seeds = st.integers(0, 2**31)


class TestProblemParams:
    def test_valid(self):
        p = ProblemParams(1.0, -2.0, 3.0, 4.0, 1.5)
        assert p.lam(1) == 1.0 and p.lam(2) == -2.0

    @pytest.mark.parametrize("p,gamma", [(2.0, 0.5), (1.5, 0.1), (4.0, 2.0),
                                         (4.0, 0.0), (4.0, -1.0), (3.0, 1.5)])
    def test_invalid(self, p, gamma):
        with pytest.raises(InvalidParams):
            ProblemParams(0.0, 0.0, 0.0, p, gamma)

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient(self, index, value):
        args = [0.0, 0.0, 0.0, 4.0, 1.0]
        args[index] = value
        with pytest.raises(InvalidParams, match="need a finite"):
            ProblemParams(*args)

    def test_swapped(self):
        p = ProblemParams(1.0, 2.0, -1.0, 4.0, 1.0).swapped()
        assert (p.lambda1, p.lambda2) == (2.0, 1.0)


def pair_potential(params, v1, v2, order=0):
    """Energy.potential of a pair at the cell values (v1, v2)."""
    energy = Energy.pair(params, identity_family(), identity_family())
    return energy.potential(np.array([v1, v2], dtype=float), order)


class TestCouplingPotential:
    def test_zero(self, params_p4):
        assert pair_potential(params_p4, 0.0, 0.0)[0] == 0.0

    def test_unit_values(self):
        p0 = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        assert pair_potential(p0, 1.0, 1.0)[0] == pytest.approx(0.5)
        pm1 = ProblemParams(0.0, 0.0, -1.0, 4.0, 1.0)
        assert pair_potential(pm1, 1.0, 1.0)[0] == pytest.approx(0.0, abs=1e-15)

    def test_even_and_symmetric(self):
        p = ProblemParams(0.0, 0.0, 2.0, 3.5, 1.0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            t1, t2 = rng.standard_normal(2) * 3.0
            (v,) = pair_potential(p, t1, t2)
            assert pair_potential(p, -t1, t2)[0] == pytest.approx(v, rel=1e-14)
            assert pair_potential(p, t2, t1)[0] == v

    def test_gradient_trivial_cases(self):
        p2 = ProblemParams(0.0, 0.0, 2.0, 4.0, 1.0)
        assert pair_potential(p2, 1.0, 0.0, 1)[1].tolist() == [1.0, 0.0]
        g = pair_potential(p2, 1.0, 1.0, 1)[1]
        assert g[0] == pytest.approx(3.0) and g[1] == pytest.approx(3.0)

    @pytest.mark.parametrize("p_exp", [2.5, 3.0, 4.0, 5.5])
    def test_gradient_matches_finite_differences(self, p_exp):
        params = ProblemParams(0.0, 0.0, -1.7, p_exp, min(1.0, (p_exp - 2) / 2))
        rng = np.random.default_rng(4)
        h = 1e-7
        for _ in range(25):
            t1, t2 = rng.uniform(-2.0, 2.0, size=2)
            g1, g2 = pair_potential(params, t1, t2, 1)[1]
            fd1 = (pair_potential(params, t1 + h, t2)[0]
                   - pair_potential(params, t1 - h, t2)[0]) / (2 * h)
            fd2 = (pair_potential(params, t1, t2 + h)[0]
                   - pair_potential(params, t1, t2 - h)[0]) / (2 * h)
            assert abs(g1 - fd1) / (1.0 + abs(fd1)) < 1e-8
            assert abs(g2 - fd2) / (1.0 + abs(fd2)) < 1e-8

    @pytest.mark.parametrize("p_exp", [2.5, 3.0, 4.0, 5.5])
    def test_second_derivatives_match_finite_differences(self, p_exp):
        params = ProblemParams(0.0, 0.0, -1.7, p_exp, min(1.0, (p_exp - 2) / 2))
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(25):
            t1, t2 = rng.uniform(-2.0, 2.0, size=2)
            _G, _g, (h11, h22), h12 = pair_potential(params, t1, t2, 2)
            d1 = (pair_potential(params, t1 + h, t2, 1)[1]
                  - pair_potential(params, t1 - h, t2, 1)[1]) / (2 * h)
            d2 = (pair_potential(params, t1, t2 + h, 1)[1]
                  - pair_potential(params, t1, t2 - h, 1)[1]) / (2 * h)
            for exact, fd in ((h11, d1[0]), (h22, d2[1]), (h12, d1[1]), (h12, d2[0])):
                assert abs(exact - fd) / (1.0 + abs(fd)) < 1e-6

    def test_gradient_zero_at_zero(self):
        for p_exp in (2.5, 3.0, 4.0, 5.5):
            params = ProblemParams(0.0, 0.0, 1.3, p_exp, min(1.0, (p_exp - 2) / 2))
            assert pair_potential(params, 0.0, 0.0, 1)[1].tolist() == [0.0, 0.0]
            assert pair_potential(params, 0.0, -2.0, 1)[1][0] == 0.0
            energy = Energy.scalar(params, 0.0, identity_family())
            g = energy.potential(np.array([[-2.0, 0.0, 2.0]]), 1)[1]
            assert g[0, 1] == 0.0 and g[0, 0] == -g[0, 2] < 0.0


class TestTotalEnergy:
    def test_zero_state(self, grid15, identity, params_p4):
        u = StatePair(zero_field(grid15), zero_field(grid15))
        assert total_energy(u, params_p4, identity, identity, grid15) == 0.0

    def test_beta_zero_decouples(self, grid15, identity, example1):
        params = ProblemParams(0.3, -0.2, 0.0, 4.0, 1.0)
        u = random_state(grid15, seed=8)
        e = total_energy(u, params, identity, example1, grid15)
        e1 = Energy.scalar(params, params.lambda1, identity).value(
            CellSample(u.u1.values[None], grid15))
        e2 = Energy.scalar(params, params.lambda2, example1).value(
            CellSample(u.u2.values[None], grid15))
        assert e == pytest.approx(e1 + e2, rel=1e-12)

    def test_swap_symmetry(self, grid15, identity, example1):
        params = ProblemParams(0.4, -0.1, -1.3, 4.0, 1.0)
        u = random_state(grid15, seed=9)
        e = total_energy(u, params, identity, example1, grid15)
        e_sw = total_energy(StatePair(u.u2, u.u1), params.swapped(), example1,
                            identity, grid15)
        assert e_sw == pytest.approx(e, rel=1e-13)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 5.5])
    @pytest.mark.parametrize("beta", [-1.3, 0.7])
    def test_swap_symmetry_is_exact(self, grid7, p, beta):
        # the swapped problem at the swapped stack gives the same value and
        # the row-swapped gradient, residuals and potential, bit for bit,
        # also where cell values are exactly 0.  Large smooth states make
        # the potential dominate the value, so a last-bit asymmetry in it
        # shows in the sum.
        params = ProblemParams(0.4, -0.1, beta, p, (p - 2.0) / 2.0)
        fams = (identity_family(), example_family(0.5))
        energy = Energy.pair(params, *fams)
        swapped = Energy.pair(params.swapped(), *fams[::-1])
        nodes = np.linspace(0.0, 1.0, grid7.shape[0] + 2)[1:-1]
        bump = np.outer(np.sin(np.pi * nodes), np.sin(np.pi * nodes))
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = 1e3 * bump * (1.0 + 0.5 * rng.random((2, *grid7.shape)))
            x[0, :2, :2] = 0.0
            x[1, -2:, -3:] = 0.0
            s, s_sw = CellSample(x, grid7), CellSample(x[::-1], grid7)
            assert np.any(s.v == 0.0)
            assert energy.value(s) == swapped.value(s_sw)
            for method in ("gradient", "residuals"):
                ref = getattr(swapped, method)(s_sw)
                assert np.array_equal(getattr(energy, method)(s), ref[::-1])
            G, g, diag, cross = energy.potential(s.v, 2)
            G_sw, g_sw, diag_sw, cross_sw = swapped.potential(s_sw.v, 2)
            assert np.array_equal(G, G_sw) and np.array_equal(cross, cross_sw)
            assert np.array_equal(g, g_sw[::-1])
            assert np.array_equal(diag, diag_sw[::-1])

    def test_evenness(self, grid15, example1):
        params = ProblemParams(0.1, 0.2, 1.5, 4.0, 1.0)
        u = random_state(grid15, seed=10)
        minus = StatePair.from_stack(-u.stacked(), u.spec)
        assert total_energy(minus, params, example1, example1, grid15) == \
            pytest.approx(total_energy(u, params, example1, example1, grid15),
                          rel=1e-13)

    @PROPERTY
    @given(fam=core_families, beta=st.sampled_from((-2.0, 0.7)), p=exponents,
           seed=seeds)
    def test_semi_trivial_equals_scalar(self, grid7, fam, beta, p, seed):
        # the one-component energy at z is the pair energy at (z, 0): in
        # the value, the first gradient component and the Hessian product
        # with (d, 0)
        params = ProblemParams(0.2, -0.3, beta, p, 0.5)
        rng = np.random.default_rng(seed)
        z, d = rng.standard_normal((2, *grid7.shape))
        zero = np.zeros(grid7.shape)
        one = CellSample(z[None], grid7)
        two = CellSample(np.stack((z, zero)), grid7)
        scalar = Energy.scalar(params, params.lambda1, fam)
        pair = Energy.pair(params, fam, fam)
        assert scalar.value(one) == pytest.approx(pair.value(two), rel=1e-13)
        g1, g2 = pair.gradient(two)
        assert rel_err(scalar.gradient(one)[0], g1) < 1e-13
        assert np.all(g2 == 0.0)
        h1, h2 = pair.hessian(two)(np.stack((d, zero)))
        assert rel_err(scalar.hessian(one)(d[None])[0], h1) < 1e-13
        assert np.all(h2 == 0.0)

    @PROPERTY
    @given(fam1=core_families, fam2=core_families,
           beta=st.sampled_from((-2.0, 0.7)), p=exponents, seed=seeds,
           t=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)))
    def test_scaled_sample_equals_fresh_sample(self, grid7, fam1, fam2, beta, p,
                                               seed, t):
        # the stencils are linear: samples of x scaled by t serve for t x
        params = ProblemParams(0.2, -0.3, beta, p, 0.5)
        x = positive_state(grid7, seed)
        scaled = CellSample(x, grid7).scaled(t)
        fresh = CellSample(np.reshape(t, (2, 1, 1)) * x, grid7)
        pair = Energy.pair(params, fam1, fam2)
        # the size of the integrals that cancel in the energy and residuals
        terms = grid7.cell_area * np.sum(np.abs(fresh.v) ** p + fresh.gsq)
        assert abs(pair.value(scaled) - pair.value(fresh)) <= 1e-12 * terms
        assert rel_err(pair.gradient(scaled), pair.gradient(fresh)) < 1e-12
        np.testing.assert_allclose(
            pair.residuals(scaled), pair.residuals(fresh), rtol=0.0,
            atol=1e-12 * terms,
        )

    def test_scalar_energy_hand_formula(self, grid31, identity):
        params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        z = random_state(grid31, seed=12).u1.values
        e = Energy.scalar(params, 0.0, identity).value(CellSample(z[None], grid31))
        v = G.cell_values(z, grid31)
        gx, gy = G.cell_gradients(z, grid31)
        hand = 0.5 * G.integrate(gx * gx + gy * gy, grid31) - 0.25 * G.integrate(
            v**4, grid31
        )
        assert e == pytest.approx(hand, rel=1e-13)

    def test_zero_scalar(self, grid15, identity, params_p4):
        zero = CellSample(np.zeros((1, *grid15.shape)), grid15)
        assert Energy.scalar(params_p4, 0.0, identity).value(zero) == 0.0


class TestEulerGradient:
    def test_zero_state(self, grid15, example1, params_p4):
        u = StatePair(zero_field(grid15), zero_field(grid15))
        g = euler_gradient(u, params_p4, example1, example1, grid15)
        assert np.all(g.u1.values == 0.0) and np.all(g.u2.values == 0.0)

    @pytest.mark.parametrize("beta", [-2.0, 0.0, 3.0])
    def test_matches_finite_differences(self, grid15, example1, beta):
        params = ProblemParams(0.1, -0.3, beta, 4.0, 1.0)
        rng = np.random.default_rng(13)
        for state_seed in range(3):
            u = random_state(grid15, seed=100 + state_seed, scale=0.8)
            g = euler_gradient(u, params, example1, example1, grid15)
            scale = 1.0 + max(np.abs(u.u1.values).max(), np.abs(u.u2.values).max())
            h = 1e-6 * scale
            for _ in range(5):
                i, j = rng.integers(0, grid15.shape[0], size=2)
                comp = int(rng.integers(1, 3))
                vp = [u.u1.values.copy(), u.u2.values.copy()]
                vm = [u.u1.values.copy(), u.u2.values.copy()]
                vp[comp - 1][i, j] += h
                vm[comp - 1][i, j] -= h
                up = StatePair(ScalarField(vp[0], u.spec), ScalarField(vp[1], u.spec))
                um = StatePair(ScalarField(vm[0], u.spec), ScalarField(vm[1], u.spec))
                fd = (
                    total_energy(up, params, example1, example1, grid15)
                    - total_energy(um, params, example1, example1, grid15)
                ) / (2 * h)
                gv = (g.u1 if comp == 1 else g.u2).values[i, j] * grid15.cell_area
                assert abs(gv - fd) / (1.0 + abs(fd)) < 1e-6

    @pytest.mark.parametrize("n,bound", [(31, 6e-3), (63, 1.6e-3)])
    def test_identity_family_matches_stencil_oracle(self, identity, n, bound):
        # on smooth fields the exact quadrature gradient and the plain
        # 5-point stencil residual are both second-order discretizations
        # of the same operator; their gap decays like h^2
        from nehari2d import GridSpec, build_grid

        grid = build_grid(GridSpec(n, n, 1.0, 1.0))
        params = ProblemParams(0.2, -0.4, -1.5, 4.0, 1.0)
        X, Y = grid.node_mesh()
        smooth = StatePair(
            ScalarField(np.sin(np.pi * X) * np.sin(np.pi * Y), grid.spec),
            ScalarField(0.5 * np.sin(2 * np.pi * X) * np.sin(np.pi * Y), grid.spec),
        )
        gs = euler_gradient(smooth, params, identity, identity, grid)
        s1, s2 = stencil_semilinear_gradient(
            smooth.u1.values, smooth.u2.values, params.lambda1, params.lambda2,
            params.beta, params.p, grid.hx, grid.hy,
        )
        vol = grid.cell_area
        for mine, ref in ((gs.u1.values, s1), (gs.u2.values, s2)):
            num = np.sqrt(np.sum((mine - ref) ** 2) * vol)
            den = np.sqrt(np.sum(ref**2) * vol)
            assert num / den < bound

    @pytest.mark.parametrize("beta", [-1.5, 0.0, 2.0])
    @pytest.mark.parametrize("profile", ["example2", "example1", "tabulated"])
    def test_matches_continuum_strong_form(self, profile, beta):
        # the exact gradient of the discrete energy is a second-order
        # discretization of the quasilinear operator: on smooth fields its
        # L2 gap to the continuum strong form falls by 4 per mesh halving
        from nehari2d import GridSpec, build_grid

        if profile == "example2":
            # A = 1 + s^2 / (1 + s^2), the example profile at gamma = 2
            fam = example_family(2.0)
            a = lambda s: 1.0 + s * s / (1.0 + s * s)  # noqa: E731
            da = lambda s: 2.0 * s / (1.0 + s * s) ** 2  # noqa: E731
        elif profile == "example1":
            # A = 1 + s / (1 + s) at gamma = 1, on fields positive inside
            fam = example_family(1.0)
            a = lambda s: 1.0 + s / (1.0 + s)  # noqa: E731
            da = lambda s: 1.0 / (1.0 + s) ** 2  # noqa: E731
        else:
            a = lambda s: 2.0 - np.exp(-s * s)  # noqa: E731
            da = lambda s: 2.0 * s * np.exp(-s * s)  # noqa: E731
            fam = tabulated_family(a, da, nu=1.0, c0=2.0, gamma=1.0)
        params = ProblemParams(0.3, -0.2, beta, 4.0, 1.0)
        errs = []
        for n in (15, 31, 63):
            grid = build_grid(GridSpec(n, n, 1.0, 1.0))
            X, Y = grid.node_mesh()
            ref = quasilinear_strong_form(X, Y, ((a, da), (a, da)),
                                          (params.lambda1, params.lambda2),
                                          beta, params.p)
            u = StatePair.from_stack(
                np.stack((np.sin(np.pi * X) * np.sin(np.pi * Y),
                          0.5 * (1.0 + X) * np.sin(np.pi * X) * np.sin(np.pi * Y))),
                grid.spec,
            )
            g = euler_gradient(u, params, fam, fam, grid).stacked()
            errs.append([rel_err(mine, want) for mine, want in zip(g, ref)])
        errs = np.array(errs)
        assert np.all(errs[:-1] / errs[1:] >= 3.5)
        assert np.all(errs[-1] < 2e-3)


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestHessian:
    @PROPERTY
    @given(fam1=families, fam2=families, beta=betas, p=exponents, seed=seeds)
    def test_pair_matches_difference_of_gradient(self, grid7, fam1, fam2, beta, p,
                                                 seed):
        params = ProblemParams(0.4, -0.3, beta, p, 0.5)
        x = positive_state(grid7, seed)
        d = np.random.default_rng(seed + 1).standard_normal((2, *grid7.shape))
        energy = Energy.pair(params, fam1, fam2)
        h = energy.hessian(CellSample(x, grid7))(d).ravel()
        eps = 1e-6

        def grad(s):
            return energy.gradient(CellSample(x + s * d, grid7)).ravel()

        assert rel_err(h, (grad(eps) - grad(-eps)) / (2 * eps)) < 1e-6

    @PROPERTY
    @given(fam=families, p=exponents, seed=seeds)
    def test_scalar_matches_difference_of_gradient(self, grid7, fam, p, seed):
        z = positive_state(grid7, seed)[:1]
        d = np.random.default_rng(seed + 1).standard_normal((1, *grid7.shape))
        energy = Energy.scalar(ProblemParams(0.4, 0.4, 0.0, p, 0.5), 0.4, fam)
        h = energy.hessian(CellSample(z, grid7))(d).ravel()
        eps = 1e-6

        def grad(s):
            return energy.gradient(CellSample(z + s * d, grid7)).ravel()

        assert rel_err(h, (grad(eps) - grad(-eps)) / (2 * eps)) < 1e-6

    @PROPERTY
    @given(fam1=families, fam2=families, beta=betas, p=exponents, seed=seeds)
    def test_products_are_symmetric(self, grid7, fam1, fam2, beta, p, seed):
        params = ProblemParams(0.4, -0.3, beta, p, 0.5)
        x = positive_state(grid7, seed)
        d = np.random.default_rng(seed + 1).standard_normal((2, *grid7.shape))
        e = np.random.default_rng(seed + 2).standard_normal((2, *grid7.shape))
        hess = Energy.pair(params, fam1, fam2).hessian(CellSample(x, grid7))
        hd, he = hess(d), hess(e)
        bound = 1e-10 * np.linalg.norm(hd) * np.linalg.norm(e)
        assert abs(np.sum(hd * e) - np.sum(d * he)) <= bound
        shess = Energy.scalar(params, 0.4, fam1).hessian(CellSample(x[:1], grid7))
        d, e = d[:1], e[:1]
        hd, he = shess(d), shess(e)
        bound = 1e-10 * np.linalg.norm(hd) * np.linalg.norm(e)
        assert abs(np.sum(hd * e) - np.sum(d * he)) <= bound

    @pytest.mark.parametrize("beta", [-1.5, 0.0])
    def test_products_are_new_arrays(self, grid15, example1, beta):
        # each product is a new array that later products of the same
        # closure leave alone, equal bit for bit to a fresh closure's
        # product and to the allocating formula, with d left unchanged
        params = ProblemParams(0.4, -0.3, beta, 3.0, 0.5)
        x = positive_state(grid15, 3)
        energy = Energy.pair(params, example1, example_family(0.5))
        s = CellSample(x, grid15)
        d, e = np.random.default_rng(4).standard_normal((2, *x.shape))
        d0 = d.copy()
        product = energy.hessian(s)
        hd = product(d)
        hd0 = hd.copy()
        he = product(e)
        assert not np.shares_memory(hd, he)
        assert np.array_equal(hd, hd0) and np.array_equal(d, d0)
        for v, hv in ((d, hd), (e, he)):
            assert np.array_equal(hv, energy.hessian(CellSample(x, grid15))(v))
            assert np.array_equal(hv, allocating_product(energy, s, v))

    def test_product_peak_memory(self, grid31, example1):
        # once the closure is built, a product's temporaries live in its
        # workspace: its traced peak is its result plus small change, far
        # under the 17 nodal stacks of a product that allocates each step
        import tracemalloc

        params = ProblemParams(0.4, -0.3, -1.5, 4.0, 1.0)
        x = positive_state(grid31, 0)
        d = np.random.default_rng(1).standard_normal(x.shape)
        product = Energy.pair(params, example1, example1).hessian(CellSample(x, grid31))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            product(d)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 5 * d.nbytes

    def test_coupling_second_derivatives_zero_convention(self):
        # p = 3: |t1|^(p/2-2) has no value at t1 = 0, taken as 0 there;
        # p = 4: that power is |t1|^0 = 1, the smooth value
        for p, h11_at_zero in ((3.0, 0.0), (4.0, 2.0 * 0.25)):
            params = ProblemParams(0.0, 0.0, 2.0, p, 0.5)
            _G, _g, (h11, _h22), h12 = pair_potential(params, 0.0, 0.5, 2)
            assert h11 == pytest.approx(h11_at_zero, abs=1e-15)
            assert h12 == 0.0


def allocating_product(energy, s, d):
    """H d with every step an expression allocating its result, in the
    order of operations of `Energy.hessian`'s in-place product."""
    _G, _g, diag, cross = energy.potential(s.v, 2)
    a, da, d2a = energy._profile(s, 2)
    m = 0.5 * d2a * s.gsq - np.reshape(energy.lams, (-1, 1, 1)) - diag
    ax, ay = da * s.gx, da * s.gy
    dv = G.cell_values(d, s.grid)
    dgx, dgy = G.cell_gradients(d, s.grid)
    w_val = m * dv + ax * dgx + ay * dgy
    if cross is not None:
        w_val = w_val - cross * dv[::-1]
    return G.scatter_cells(s.grid, w_val, ax * dv + a * dgx, ay * dv + a * dgy)


def matrix_free_hessian(energy, s, d):
    """H d at the sample s, by sampling the (k, nx, ny) direction d onto
    the cells and scattering the linearized gradient weights back."""
    a, da, d2a = (
        np.stack([getattr(f, name)(v) for f, v in zip(energy.fams, s.v)])
        for name in ("a", "da", "d2a")
    )
    _G, _g, diag, h12 = energy.potential(s.v, 2)
    h12 = 0.0 if h12 is None else h12
    m = 0.5 * d2a * s.gsq - np.reshape(energy.lams, (-1, 1, 1)) - diag
    ds = CellSample(d, s.grid)
    w_val = m * ds.v - h12 * ds.v[::-1] + da * (s.gx * ds.gx + s.gy * ds.gy)
    return G.scatter_cells(
        s.grid, w_val, da * s.gx * ds.v + a * ds.gx, da * s.gy * ds.v + a * ds.gy
    )


class TestAssembledHessian:
    """The Hessian product, assembled column by column into a dense
    matrix, against the matrix-free reference above."""

    @pytest.fixture(scope="class")
    def rect(self):
        return G.build_grid(G.GridSpec(9, 6, 1.0, 1.7))

    def energies(self, p=4.0):
        params = ProblemParams(0.4, -0.3, -1.5, p, 0.5)
        fam1, fam2 = example_family(0.5), example_family(1.3)
        return (Energy.scalar(params, 0.4, fam1), Energy.pair(params, fam1, fam2))

    def dense(self, apply, shape):
        n = math.prod(shape)
        return np.column_stack([apply(col.reshape(shape)).ravel()
                                for col in np.eye(n)])

    @pytest.mark.parametrize("p", [4.0, 3.0])
    def test_matches_matrix_free_products(self, rect, p):
        rng = np.random.default_rng(int(p))
        for energy in self.energies(p):
            k = len(energy.fams)
            x = rng.standard_normal((k, *rect.shape))
            if p == 3.0:
                # exact zero cell values where a second derivative does not
                # exist: A'' for gamma < 2, the coupling for p < 4
                x[0, :4, :3] = 0.0
                x[-1, 5:, 2:] = 0.0
            s = CellSample(x, rect)
            assert np.all(s.v != 0.0) == (p == 4.0)
            ref = self.dense(lambda d: matrix_free_hessian(energy, s, d), x.shape)
            assert rel_err(self.dense(energy.hessian(s), x.shape), ref) < 1e-13

    def test_matrix_is_symmetric(self, rect):
        x = np.random.default_rng(4).standard_normal((2, *rect.shape))
        for energy in self.energies():
            k = len(energy.fams)
            H = self.dense(energy.hessian(CellSample(x[:k], rect)), x[:k].shape)
            assert rel_err(H.T, H) < 1e-13

    def test_pattern_is_the_nine_point_stencil(self, rect):
        # node (c, i, j) couples to (c', i', j') exactly when |i - i'| <= 1
        # and |j - j'| <= 1, whatever c and c' are
        nx, ny = rect.shape
        i, j = np.divmod(np.arange(nx * ny), ny)
        near = (np.abs(i[:, None] - i) <= 1) & (np.abs(j[:, None] - j) <= 1)
        x = np.random.default_rng(5).standard_normal((2, *rect.shape))
        for energy in self.energies():
            k = len(energy.fams)
            H = self.dense(energy.hessian(CellSample(x[:k], rect)), x[:k].shape)
            assert np.array_equal(H != 0.0, np.tile(near, (k, k)))
            assert np.count_nonzero(H) == k * k * (3 * nx - 2) * (3 * ny - 2)


class TestNehariResidual:
    def test_zero_state(self, grid15, identity, params_p4):
        zero = CellSample(np.zeros((2, *grid15.shape)), grid15)
        r1, r2 = Energy.pair(params_p4, identity, identity).residuals(zero)
        assert r1 == 0.0 and r2 == 0.0

    @pytest.mark.parametrize("beta", [-2.0, 0.0, 1.5])
    def test_pairing_identity(self, grid15, example1, beta):
        params = ProblemParams(0.15, -0.25, beta, 4.0, 1.0)
        energy = Energy.pair(params, example1, example1)
        for seed in range(5):
            u = random_state(grid15, seed=200 + seed)
            sample = CellSample(u.stacked(), grid15)
            r1, r2 = energy.residuals(sample)
            g = euler_gradient(u, params, example1, example1, grid15)
            pairing = grid15.cell_area * float(np.sum(g.stacked() * u.stacked()))
            assert abs(r1 + r2 - pairing) / (1.0 + abs(pairing)) < 1e-10


class TestFiberIdentity:
    def test_energy_of_scaled_state(self, grid15, example1):
        # the pair energy of the scaled stack, and total_energy of the
        # scaled pair: the same quadrature path, bitwise
        params = ProblemParams(0.0, 0.1, -2.0, 4.0, 1.0)
        x = np.reshape((0.7, 1.9), (2, 1, 1)) * random_state(grid15, seed=21).stacked()
        lhs = Energy.pair(params, example1, example1).value(CellSample(x, grid15))
        rhs = total_energy(
            StatePair.from_stack(x, grid15.spec), params, example1, example1, grid15
        )
        assert lhs == rhs


class TestSynchronizedField:
    """For symmetric data the synchronized field u stands for the pair
    (u, u): E_s(u) = E(u, u)/2 carries the pair's value, gradient and
    Hessian on the diagonal bit for bit, and its residual in the pair norm
    is sqrt(2) |grad E_s|."""

    @pytest.mark.parametrize("beta", [0.5, 5.0])
    @pytest.mark.parametrize("fam", [identity_family(), example_family(1.0)],
                             ids=["identity", "example1"])
    def test_pair_on_the_diagonal(self, grid15, fam, beta):
        from nehari2d.solvers import _vol_norm

        lam = 3.0
        params = ProblemParams(lam, lam, beta, 4.0, 1.0)
        u = positive_state(grid15, 3)[0]
        d = random_state(grid15, 4).u1.values
        pair = Energy.pair(params, fam, fam)
        sync = Energy.synchronized(params, lam, fam)
        s_pair = CellSample(np.stack((u, u)), grid15)
        s_sync = CellSample(u[None], grid15)
        assert pair.value(s_pair) == 2.0 * sync.value(s_sync)
        g_pair, g_sync = pair.gradient(s_pair), sync.gradient(s_sync)
        assert np.array_equal(g_pair, np.concatenate((g_sync, g_sync)))
        h_pair = pair.hessian(s_pair)(np.stack((d, d)))
        h_sync = sync.hessian(s_sync)(d[None])
        assert np.array_equal(h_pair, np.concatenate((h_sync, h_sync)))
        res = _vol_norm(g_sync, grid15, 2)
        assert _vol_norm(g_pair, grid15) == res
        assert res == pytest.approx(math.sqrt(2.0) * _vol_norm(g_sync, grid15),
                                    rel=1e-15)

    @pytest.mark.parametrize("beta", [0.5, 5.0])
    def test_nonlinearity_is_weighted(self, grid15, example1, beta):
        # E_s is the scalar energy with nonlinearity (1 + beta)|u|^p/p
        lam, p = 3.0, 4.0
        params = ProblemParams(lam, lam, beta, p, 1.0)
        s = CellSample(positive_state(grid15, 5)[:1], grid15)
        (pp,) = s.integrals(p)[2]
        scalar = Energy.scalar(params, lam, example1).value(s)
        sync = Energy.synchronized(params, lam, example1).value(s)
        assert sync == pytest.approx(scalar - beta / p * pp, rel=1e-13)
        assert Energy.synchronized(params, lam, example1).coupled
        assert not Energy.scalar(params, lam, example1).coupled
