import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nehari2d.grid as G
from nehari2d import (
    ProblemParams,
    ScalarField,
    StatePair,
    coupling_G,
    coupling_grad_g,
    euler_gradient,
    example_family,
    identity_family,
    nehari_residual,
    scalar_energy,
    total_energy,
)
from nehari2d.energy import (
    coupling_hess_g,
    pair_hessian,
    scale_state,
    scalar_euler_gradient_c,
    scalar_hessian_c,
    sgn_pow,
)
from nehari2d.errors import InvalidParams
from oracles import stencil_semilinear_gradient

from conftest import PROPERTY, positive_state, random_state, zero_field

FAMILIES = (identity_family(), example_family(1.0), example_family(0.5))
families = st.sampled_from(FAMILIES)
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

    def test_swapped(self):
        p = ProblemParams(1.0, 2.0, -1.0, 4.0, 1.0).swapped()
        assert (p.lambda1, p.lambda2) == (2.0, 1.0)


class TestCouplingPotential:
    def test_zero(self, params_p4):
        assert coupling_G(0.0, 0.0, params_p4) == 0.0

    def test_unit_values(self):
        p0 = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        assert coupling_G(1.0, 1.0, p0) == pytest.approx(0.5)
        pm1 = ProblemParams(0.0, 0.0, -1.0, 4.0, 1.0)
        assert coupling_G(1.0, 1.0, pm1) == pytest.approx(0.0, abs=1e-15)

    def test_even_and_symmetric(self):
        p = ProblemParams(0.0, 0.0, 2.0, 3.5, 1.0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            t1, t2 = rng.standard_normal(2) * 3.0
            v = coupling_G(t1, t2, p)
            assert coupling_G(-t1, t2, p) == pytest.approx(v, rel=1e-14)
            assert coupling_G(t2, t1, p) == pytest.approx(v, rel=1e-14)

    def test_gradient_trivial_cases(self):
        p2 = ProblemParams(0.0, 0.0, 2.0, 4.0, 1.0)
        assert coupling_grad_g(1.0, 0.0, p2) == (1.0, 0.0)
        g = coupling_grad_g(1.0, 1.0, p2)
        assert g[0] == pytest.approx(3.0) and g[1] == pytest.approx(3.0)

    @pytest.mark.parametrize("p_exp", [2.5, 3.0, 4.0, 5.5])
    def test_gradient_matches_finite_differences(self, p_exp):
        params = ProblemParams(0.0, 0.0, -1.7, p_exp, min(1.0, (p_exp - 2) / 2))
        rng = np.random.default_rng(4)
        h = 1e-7
        for _ in range(25):
            t1, t2 = rng.uniform(-2.0, 2.0, size=2)
            g1, g2 = coupling_grad_g(t1, t2, params)
            fd1 = (coupling_G(t1 + h, t2, params) - coupling_G(t1 - h, t2, params)) / (2 * h)
            fd2 = (coupling_G(t1, t2 + h, params) - coupling_G(t1, t2 - h, params)) / (2 * h)
            assert abs(g1 - fd1) / (1.0 + abs(fd1)) < 1e-8
            assert abs(g2 - fd2) / (1.0 + abs(fd2)) < 1e-8

    def test_sgn_pow_zero_safe(self):
        assert sgn_pow(0.0, 0.5) == 0.0
        out = sgn_pow(np.array([-2.0, 0.0, 2.0]), 1.0)
        assert np.array_equal(out, [-2.0, 0.0, 2.0])


class TestTotalEnergy:
    def test_zero_state(self, grid15, identity, params_p4):
        u = StatePair(zero_field(grid15), zero_field(grid15))
        assert total_energy(u, params_p4, identity, identity, grid15) == 0.0

    def test_beta_zero_decouples(self, grid15, identity, example1):
        params = ProblemParams(0.3, -0.2, 0.0, 4.0, 1.0)
        u = random_state(grid15, seed=8)
        e = total_energy(u, params, identity, example1, grid15)
        e1 = scalar_energy(u.u1, 1, params, identity, grid15)
        e2 = scalar_energy(u.u2, 2, params, example1, grid15)
        assert e == pytest.approx(e1 + e2, rel=1e-12)

    def test_swap_symmetry(self, grid15, identity, example1):
        params = ProblemParams(0.4, -0.1, -1.3, 4.0, 1.0)
        u = random_state(grid15, seed=9)
        e = total_energy(u, params, identity, example1, grid15)
        e_sw = total_energy(u.swapped(), params.swapped(), example1, identity, grid15)
        assert e_sw == pytest.approx(e, rel=1e-13)

    def test_evenness(self, grid15, example1):
        params = ProblemParams(0.1, 0.2, 1.5, 4.0, 1.0)
        u = random_state(grid15, seed=10)
        minus = scale_state(u, -1.0, -1.0)
        assert total_energy(minus, params, example1, example1, grid15) == \
            pytest.approx(total_energy(u, params, example1, example1, grid15),
                          rel=1e-13)

    def test_semi_trivial_equals_scalar(self, grid15, example1):
        params = ProblemParams(0.2, 0.0, -5.0, 4.0, 1.0)
        z = random_state(grid15, seed=11).u1
        u = StatePair(z, zero_field(grid15))
        assert total_energy(u, params, example1, example1, grid15) == \
            pytest.approx(scalar_energy(z, 1, params, example1, grid15), rel=1e-13)

    def test_scalar_energy_hand_formula(self, grid31, identity):
        params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        z = random_state(grid31, seed=12).u1
        e = scalar_energy(z, 1, params, identity, grid31)
        v = G.cell_values(z, grid31)
        hand = 0.5 * G.integrate(G.grad_sq(z, grid31), grid31) - 0.25 * G.integrate(
            v**4, grid31
        )
        assert e == pytest.approx(hand, rel=1e-13)

    def test_zero_scalar(self, grid15, identity, params_p4):
        assert scalar_energy(zero_field(grid15), 1, params_p4, identity, grid15) == 0.0


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


def shifted(u, d1, d2, eps):
    return StatePair(
        ScalarField(u.u1.values + eps * d1, u.spec),
        ScalarField(u.u2.values + eps * d2, u.spec),
    )


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestHessian:
    @PROPERTY
    @given(fam1=families, fam2=families, beta=betas, p=exponents, seed=seeds)
    def test_pair_matches_difference_of_gradient(self, grid7, fam1, fam2, beta, p,
                                                 seed):
        params = ProblemParams(0.4, -0.3, beta, p, 0.5)
        u = positive_state(grid7, seed)
        d1, d2 = np.random.default_rng(seed + 1).standard_normal((2, *grid7.shape))
        h1, h2 = pair_hessian(u, params, fam1, fam2, grid7)(d1, d2)
        eps = 1e-6
        gp = euler_gradient(shifted(u, d1, d2, eps), params, fam1, fam2, grid7)
        gm = euler_gradient(shifted(u, d1, d2, -eps), params, fam1, fam2, grid7)
        fd = np.concatenate([(gp.u1.values - gm.u1.values).ravel(),
                             (gp.u2.values - gm.u2.values).ravel()]) / (2 * eps)
        assert rel_err(np.concatenate([h1.ravel(), h2.ravel()]), fd) < 1e-6

    @PROPERTY
    @given(fam=families, p=exponents, c=st.floats(0.5, 3.0), seed=seeds)
    def test_scalar_matches_difference_of_gradient(self, grid7, fam, p, c, seed):
        z = positive_state(grid7, seed).u1
        d = np.random.default_rng(seed + 1).standard_normal(grid7.shape)
        h = scalar_hessian_c(z, 0.4, p, fam, grid7, c)(d)
        eps = 1e-6

        def grad(s):
            zs = ScalarField(z.values + s * d, z.spec)
            return scalar_euler_gradient_c(zs, 0.4, p, fam, grid7, c).values

        assert rel_err(h, (grad(eps) - grad(-eps)) / (2 * eps)) < 1e-6

    @PROPERTY
    @given(fam1=families, fam2=families, beta=betas, p=exponents, seed=seeds)
    def test_products_are_symmetric(self, grid7, fam1, fam2, beta, p, seed):
        params = ProblemParams(0.4, -0.3, beta, p, 0.5)
        u = positive_state(grid7, seed)
        d = np.random.default_rng(seed + 1).standard_normal((2, *grid7.shape))
        e = np.random.default_rng(seed + 2).standard_normal((2, *grid7.shape))
        hess = pair_hessian(u, params, fam1, fam2, grid7)
        hd, he = np.array(hess(*d)), np.array(hess(*e))
        bound = 1e-10 * np.linalg.norm(hd) * np.linalg.norm(e)
        assert abs(np.sum(hd * e) - np.sum(d * he)) <= bound
        shess = scalar_hessian_c(u.u1, 0.4, p, fam1, grid7, 1.0 + abs(beta))
        hd, he = shess(d[0]), shess(e[0])
        bound = 1e-10 * np.linalg.norm(hd) * np.linalg.norm(e[0])
        assert abs(np.sum(hd * e[0]) - np.sum(d[0] * he)) <= bound

    def test_coupling_second_derivatives_zero_convention(self):
        # p = 3: |t1|^(p/2-2) has no value at t1 = 0, taken as 0 there;
        # p = 4: that power is |t1|^0 = 1, the smooth value
        for p, h11_at_zero in ((3.0, 0.0), (4.0, 2.0 * 0.25)):
            params = ProblemParams(0.0, 0.0, 2.0, p, 0.5)
            h11, h12, _h22 = coupling_hess_g(np.array([0.0]), np.array([0.5]), params)
            assert h11[0] == pytest.approx(h11_at_zero, abs=1e-15)
            assert h12[0] == 0.0


class TestNehariResidual:
    def test_zero_state(self, grid15, identity, params_p4):
        u = StatePair(zero_field(grid15), zero_field(grid15))
        r = nehari_residual(u, params_p4, identity, identity, grid15)
        assert r.r1 == 0.0 and r.r2 == 0.0

    @pytest.mark.parametrize("beta", [-2.0, 0.0, 1.5])
    def test_pairing_identity(self, grid15, example1, beta):
        params = ProblemParams(0.15, -0.25, beta, 4.0, 1.0)
        for seed in range(5):
            u = random_state(grid15, seed=200 + seed)
            r = nehari_residual(u, params, example1, example1, grid15)
            g = euler_gradient(u, params, example1, example1, grid15)
            pairing = grid15.cell_area * sum(
                float(np.sum(gc.values * uc.values))
                for gc, uc in ((g.u1, u.u1), (g.u2, u.u2))
            )
            assert abs(r.r1 + r.r2 - pairing) / (1.0 + abs(pairing)) < 1e-10


class TestFiberIdentity:
    def test_energy_of_scaled_state(self, grid15, example1):
        from nehari2d import FiberPoint, fiber_value

        params = ProblemParams(0.0, 0.1, -2.0, 4.0, 1.0)
        u = random_state(grid15, seed=21)
        t = FiberPoint(0.7, 1.9)
        lhs = fiber_value(u, t, params, example1, example1, grid15)
        rhs = total_energy(
            scale_state(u, 0.7, 1.9), params, example1, example1, grid15
        )
        assert lhs == rhs  # same quadrature path, bitwise
