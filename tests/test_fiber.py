import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import brentq

from nehari2d import (
    ProblemParams,
    example_family,
    identity_family,
    project_to_nehari,
    total_energy,
)
from nehari2d.coeffs import CoefficientFamily, tabulated_family
from nehari2d.energy import CellSample, Energy
from nehari2d.errors import DegenerateInput, GridMismatch, InvalidState
from nehari2d import fiber
from nehari2d.fiber import (
    _WARM_MAX_ITER,
    FiberEvaluator,
    _fiber_newton,
    critical_cell_count,
    scalar_fiber_root,
    unit_sample,
)
from nehari2d.grid import cell_values
from nehari2d.solvers import conservative_mu1, segregated_pair

from conftest import (
    PROPERTY,
    positive_state,
    random_state,
    segregated_random_state,
)


@pytest.fixture
def competitive_params():
    return ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)


@pytest.fixture
def half_profile():
    """A = 0.5, nu = 0.5: a certifiable family with A below 1."""
    return tabulated_family(lambda s: np.full_like(np.asarray(s, dtype=float), 0.5),
                            lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                            nu=0.5, c0=1.0, gamma=0.01)


def bump_state(grid):
    return np.stack(segregated_pair(grid))


def disjoint_state(grid):
    """Bumps hard-truncated to opposite thirds: no cell sees both."""
    left, right = segregated_pair(grid)
    X, _ = grid.node_mesh()
    s = grid.spec
    return np.stack(
        (np.where(X < 0.4 * s.lx, left, 0.0), np.where(X > 0.6 * s.lx, right, 0.0))
    )


def far_start_pair(grid, beta):
    """Pairs on which a far warm start can head for t_k -> 0: for
    beta > 0 (b, b (1 + 0.3 x)) with b = sin(pi x) sin(pi y), for
    beta <= 0 the segregated bumps."""
    if beta <= 0.0:
        return bump_state(grid)
    X, Y = grid.node_mesh()
    b = np.sin(np.pi * X) * np.sin(np.pi * Y)
    return np.stack((b, b * (1.0 + 0.3 * X)))


pair_families = st.sampled_from([(identity_family(), example_family(1.0)),
                                 (example_family(0.5), example_family(1.3))])
# repulsive and attractive coupling
betas = st.floats(-4.0, -0.5) | st.floats(0.5, 4.0)


def fiber_value(x, t, energy, grid):
    """h_x(t) = E(t1 x1, t2 x2), the energy of a fresh sample of the scaled
    stack: a path independent of FiberEvaluator."""
    return energy.value(CellSample(np.reshape(t, (2, 1, 1)) * x, grid))


def fiber_gradient(x, t, energy, grid):
    return FiberEvaluator(energy, CellSample(x, grid)).derivatives(t, order=1)[1]


class TestFiberRoot:
    def test_rejects_nonpositive(self, monkeypatch, grid15, example1,
                                 competitive_params):
        # a Newton run reported converged at a t that is not positive and
        # finite is no root: none of the warm, cold and ray runs counts
        ev = FiberEvaluator(Energy.pair(competitive_params, example1, example1),
                            CellSample(bump_state(grid15), grid15))
        starts = [(1.0, 1.0), tuple(ev.cold_start()), tuple(ev.ray_start())]
        for t in ((0.0, 1.0), (1.0, -2.0), (1.0, math.inf)):
            runs = []

            def fake_newton(ev, t_start, maximize, warm=False):
                runs.append((tuple(t_start), warm))
                return np.array(t), 0.0, np.zeros(2), True

            monkeypatch.setattr(fiber, "_fiber_newton", fake_newton)
            *_rest, converged = fiber._fiber_root(ev, (1.0, 1.0), maximize=True)
            assert not converged
            assert runs == list(zip(starts, (True, False, False)))

    @pytest.mark.parametrize("p", (3.0, 4.0, 5.0))
    def test_synchronized_root_at_beta_p_minus_2(self, grid15, identity, p):
        # two identical constant-profile components at beta = p - 2, where
        # the Jacobian at the uncoupled cold start is singular: the ray
        # start is the synchronized root t_1 = t_2 = (ia0 / ((1 + beta)
        # int |w|^p))^(1/(p-2)), and the projection reaches it
        params = ProblemParams(0.0, 0.0, p - 2.0, p, 0.5)
        X, Y = grid15.node_mesh()
        fields = (bump_state(grid15)[0], positive_state(grid15, 4)[0],
                  np.sin(np.pi * X) * np.sin(2.0 * np.pi * Y) ** 2)
        for w in fields:
            (a,), _q, (b,) = CellSample(w[None], grid15).integrals(p)
            t = (a / ((p - 1.0) * b)) ** (1.0 / (p - 2.0))
            res = project_to_nehari(np.stack((w, w)), params, identity, identity,
                                    grid15)
            assert res.projectable
            assert res.t == pytest.approx((t, t), rel=1e-10)


class TestFiberValue:
    def test_identity_at_unit_point(self, grid15, example1, competitive_params):
        u = random_state(grid15, seed=1)
        energy = Energy.pair(competitive_params, example1, example1)
        assert fiber_value(u.stacked(), (1.0, 1.0), energy, grid15) == \
            total_energy(u, competitive_params, example1, example1, grid15)

    def test_decoupled_closed_form(self, grid31, identity):
        # disjoint supports, constant profile, lambda = 0:
        # h(t) = sum t_i^2 a_i / 2 - t_i^p b_i / p
        params = ProblemParams(0.0, 0.0, -3.0, 4.0, 1.0)
        x = disjoint_state(grid31)
        sample = CellSample(x, grid31)
        a, _q, b = sample.integrals(4.0)
        cross = np.sum(np.abs(sample.v[0] * sample.v[1]) ** 2)
        assert cross == 0.0  # genuinely disjoint supports
        energy = Energy.pair(params, identity, identity)
        for t1, t2 in ((0.5, 2.0), (1.3, 0.7), (3.0, 3.0)):
            h = fiber_value(x, (t1, t2), energy, grid31)
            closed = sum(
                0.5 * t * t * ai - 0.25 * t**4 * bi
                for t, ai, bi in ((t1, a[0], b[0]), (t2, a[1], b[1]))
            )
            assert h == pytest.approx(closed, rel=1e-9)

    def test_decays_to_minus_infinity(self, grid15, example1, competitive_params):
        ev = FiberEvaluator(Energy.pair(competitive_params, example1, example1),
                            CellSample(bump_state(grid15), grid15))
        m1, m2 = ev.membership_values()
        assert m1 > 0.0 and m2 > 0.0
        vals = [ev.derivatives((s, s), order=0)[0] for s in (10.0, 100.0, 1000.0)]
        assert vals[2] < vals[1] < vals[0] and vals[2] < -1e6


class TestFiberGradient:
    def test_finite_difference_match(self, grid15, example1):
        params = ProblemParams(0.1, -0.2, -1.4, 4.0, 1.0)
        rng = np.random.default_rng(5)
        x = random_state(grid15, seed=3).stacked()
        energy = Energy.pair(params, example1, example1)
        for _ in range(10):
            t1, t2 = rng.uniform(0.2, 3.0, size=2)
            g1, g2 = fiber_gradient(x, (t1, t2), energy, grid15)
            dt = 1e-6
            for k, (gk, tk) in enumerate(((g1, t1), (g2, t2))):
                tp = [t1, t2]
                tm = [t1, t2]
                tp[k] += dt
                tm[k] -= dt
                fd = (
                    fiber_value(x, tp, energy, grid15)
                    - fiber_value(x, tm, energy, grid15)
                ) / (2 * dt)
                assert abs(gk - fd) / (1.0 + abs(fd)) < 1e-7

    @PROPERTY
    @given(
        fams=pair_families,
        beta=st.sampled_from((-2.0, 0.7)),
        p=st.sampled_from((3.0, 4.0)),
        t=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
        seed=st.integers(0, 2**31),
    )
    def test_jacobian_matches_difference_of_gradient(self, grid7, fams, beta, p, t,
                                                     seed):
        params = ProblemParams(0.4, -0.3, beta, p, 0.5)
        ev = FiberEvaluator(Energy.pair(params, *fams),
                            CellSample(positive_state(grid7, seed), grid7))
        h, g, J = ev.derivatives(np.array(t))
        # orders 0 and 2 read the same I_0 from the bound profile: the same h
        assert h == ev.derivatives(t, order=0)[0]
        assert np.array_equal(g, ev.derivatives(t, order=1)[1])
        dt = 1e-6
        fd = np.empty((2, 2))
        for k in range(2):
            tp, tm = list(t), list(t)
            tp[k] += dt
            tm[k] -= dt
            fd[:, k] = np.subtract(ev.derivatives(tp, 1)[1],
                                   ev.derivatives(tm, 1)[1]) / (2 * dt)
        assert np.max(np.abs(J - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_swap_is_bit_exact(self, grid15, identity, example1):
        # the swapped problem on the swapped stack, at the swapped t, gives
        # h, g and J swapped bit for bit: the swap equivariance of every
        # rescale, and of the solves, rests on this arithmetic
        rng = np.random.default_rng(31)
        fams = (identity, example1)
        for _ in range(200):
            lam1, lam2, beta = rng.uniform(-5.0, 5.0, 3)
            params = ProblemParams(lam1, lam2, beta, rng.choice((3.0, 4.0, 5.0)), 0.5)
            x = positive_state(grid15, int(rng.integers(2**31)))
            t = rng.uniform(0.1, 10.0, 2)
            h, g, J = FiberEvaluator(Energy.pair(params, *fams),
                                     CellSample(x, grid15)).derivatives(t)
            h_sw, g_sw, J_sw = FiberEvaluator(
                Energy.pair(params.swapped(), *fams[::-1]), CellSample(x[::-1], grid15)
            ).derivatives(t[::-1])
            assert h_sw == h
            assert np.array_equal(g_sw, g[::-1])
            assert np.array_equal(J_sw, np.array(J)[::-1, ::-1])

    @pytest.mark.parametrize("beta", (-2.0, 0.7))
    def test_grid_of_t_matches_points(self, grid7, beta):
        # arrays of t that broadcast together give, entry by entry, the
        # h, g and J of the one-point evaluation
        params = ProblemParams(0.4, -0.3, beta, 3.0, 0.5)
        ev = FiberEvaluator(Energy.pair(params, example_family(0.5), example_family(1.3)),
                            CellSample(positive_state(grid7, 3), grid7))
        t1, t2 = np.array([0.3, 1.0, 2.2]), np.array([0.5, 1.7])
        h, g, J = ev.derivatives((t1[:, None], t2[None, :]))
        assert h.shape == (3, 2) and g.shape == (2, 3, 2) and J.shape == (2, 2, 3, 2)
        for i, j in np.ndindex(3, 2):
            h_ij, g_ij, J_ij = ev.derivatives(np.array([t1[i], t2[j]]))
            assert h[i, j] == pytest.approx(h_ij, rel=1e-13)
            np.testing.assert_allclose(g[:, i, j], g_ij, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(J[:, :, i, j], J_ij, rtol=1e-12, atol=1e-12)

    def test_gradient_small_at_projection(self, grid15, example1, competitive_params):
        x = bump_state(grid15)
        res = project_to_nehari(x, competitive_params, example1, example1, grid15)
        assert res.projectable
        energy = Energy.pair(competitive_params, example1, example1)
        t = res.t
        g1, g2 = fiber_gradient(x, t, energy, grid15)
        h = fiber_value(x, t, energy, grid15)
        assert max(abs(g1), abs(g2)) <= 1e-9 * (abs(h) + 1.0)

    def test_decoupled_root_closed_form(self, grid31, identity):
        params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        z = bump_state(grid31)[0]
        (a,), _q, (b,) = CellSample(z[None], grid31).integrals(4.0)
        tau = scalar_fiber_root(z, 0.0, params, identity, grid31).t[0]
        assert tau == pytest.approx((a / b) ** 0.5, rel=1e-11)

    @PROPERTY
    @given(
        kind=st.sampled_from(("identity", "example", "tabulated")),
        p=st.sampled_from((3.0, 4.0)),
        tau=st.floats(0.2, 3.0),
        seed=st.integers(0, 2**31),
    )
    def test_axis_derivatives_match_differences(self, grid7, kind, p, tau, seed):
        ex = example_family(1.3)
        fam = {
            "identity": identity_family(),
            "example": ex,
            "tabulated": tabulated_family(ex.a, ex.da, nu=1.0, c0=2.0, gamma=1.3),
        }[kind]
        energy = Energy.scalar(ProblemParams(0.4, 0.4, 0.0, p, 0.5), 0.4, fam)
        z = positive_state(grid7, seed)[:1]
        ev = FiberEvaluator(energy, CellSample(z, grid7))
        _, grad, slope = ev._axis(0, tau, 2)
        dt = 1e-6
        fd_grad = (
            energy.value(CellSample((tau + dt) * z, grid7))
            - energy.value(CellSample((tau - dt) * z, grid7))
        ) / (2 * dt)
        fd_slope = (ev._axis(0, tau + dt, 1)[1] - ev._axis(0, tau - dt, 1)[1]) / (2 * dt)
        # the size of the terms that cancel in the axis derivatives
        scale = sum(np.abs(ev._ia0) + np.abs(ev.q) + ev.pp) * max(tau, 1.0) ** p
        assert abs(grad - fd_grad) <= 1e-8 * scale
        assert abs(slope - fd_slope) <= 1e-8 * scale


def counted(psi):
    """psi wrapped with a call counter in `.calls`."""

    def wrapper(*args):
        wrapper.calls += 1
        return psi(*args)

    wrapper.calls = 0
    return wrapper


def modulated_bump(grid):
    X, Y = grid.node_mesh()
    rng = np.random.default_rng(5)
    return np.sin(np.pi * X) * np.sin(np.pi * Y) * (1.0 + 0.3 * rng.random(grid.shape))


class TestAxisEvaluation:
    @pytest.mark.parametrize("order", (0, 1, 2))
    def test_tau_grid_matches_scalar_taus(self, grid15, order):
        # one dot product per integral serves a column of taus and a float
        ex = example_family(0.5)
        fams = (example_family(1.3),
                tabulated_family(ex.a, ex.da, nu=1.0, c0=2.0, gamma=0.5))
        energy = Energy.pair(ProblemParams(0.4, -0.3, 2.0, 4.0, 1.0), *fams)
        ev = FiberEvaluator(energy, CellSample(positive_state(grid15, 3), grid15))
        taus = np.logspace(-3.0, 3.0, 25)
        for k in (0, 1):
            on_grid = ev._axis(k, taus[:, None], order)
            assert len(on_grid) == order + 1
            for j, term in enumerate(on_grid):
                stacked = np.array([ev._axis(k, tau, order)[j] for tau in taus])
                assert term.shape == (len(taus), 1)
                assert np.allclose(term[:, 0], stacked, rtol=1e-13, atol=0.0)

    def test_critical_cell_counts_unchanged(self, grid15, identity, example1):
        # counts recorded before the reduction became a dot product
        params = ProblemParams(0.6 * conservative_mu1(grid15), 0.0, 2.0, 4.0, 1.0)
        xs = ([bump_state(grid15), far_start_pair(grid15, 2.0)]
              + [positive_state(grid15, seed) for seed in range(3)]
              + [segregated_random_state(grid15, seed) for seed in range(3)])
        counts = [critical_cell_count(x, params, identity, example1, grid15)
                  for x in xs]
        assert counts == [1, 0, 13, 13, 16, 1, 1, 1]

    def test_one_jet_call_per_component(self, monkeypatch, grid15):
        # the fiber evaluator binds each profile to its sample once, with
        # one `on_sample` call per component, and its evaluations call no
        # jet; Energy's gradient, residuals and Hessian read one fused jet
        # per component.  No a, da or d2a call in either
        jets, bound = [], []
        jet, on_sample = CoefficientFamily.jet, CoefficientFamily.on_sample

        def counting_jet(fam, s, order):
            jets.append((fam.gamma, order))
            return jet(fam, s, order)

        def counting_on_sample(fam, *args):
            bound.append(fam.gamma)
            return on_sample(fam, *args)

        monkeypatch.setattr(CoefficientFamily, "jet", counting_jet)
        monkeypatch.setattr(CoefficientFamily, "on_sample", counting_on_sample)
        fams = [dataclasses.replace(fam, a=counted(fam.a), da=counted(fam.da),
                                    d2a=counted(fam.d2a))
                for fam in (example_family(1.0), example_family(1.3))]
        energy = Energy.pair(ProblemParams(0.4, -0.3, 2.0, 4.0, 1.0), *fams)
        sample = CellSample(positive_state(grid15, 0), grid15)
        ev = FiberEvaluator(energy, sample)
        for t in ((0.8, 1.7), (0.9, 1.5), (2.0, 0.3)):
            ev.derivatives(t)
        assert bound == [1.0, 1.3] and jets == []
        for method, order in ((energy.gradient, 1), (energy.residuals, 1),
                              (energy.hessian, 2)):
            jets.clear()
            method(sample)
            assert jets == [(1.0, order), (1.3, order)]
        assert [(f.a.calls, f.da.calls, f.d2a.calls) for f in fams] == [(0, 0, 0)] * 2

    def test_underflowed_square_terms_vanish(self, grid15):
        # at tau = 1e-210, tau^2/2 underflows to 0 while A'(tau v) of the
        # gamma = 0.5 profile overflows to inf: tau^2/2 I_1 and tau^2/2 I_2
        # are taken as their limit 0, not 0 * inf
        energy = Energy.scalar(ProblemParams(0.0, 0.0, 0.0, 3.0, 0.5), 0.0,
                               example_family(0.5))
        ev = FiberEvaluator(energy, CellSample(modulated_bump(grid15)[None], grid15))
        tau = 1e-210
        value, slope, curvature = ev._axis(0, tau, 2)
        # A(tau v) = 1 to rounding, and tau^3 and tau^2 underflow too
        assert value == 0.0
        assert slope == pytest.approx(tau * ev._ia0[0], rel=1e-12)
        assert curvature == math.inf

    def test_solve_through_underflowed_taus(self, grid7):
        # a competitive solve whose fiber Newton runs through such taus
        # (it warned twice under numpy's invalid-value rule)
        from nehari2d.solvers import SolverOptions, solve_system

        mu1 = conservative_mu1(grid7)
        params = ProblemParams(0.3 * mu1, -0.06 * mu1, -4.0, 3.0, 0.5)
        _u, rep = solve_system(params, example_family(0.5), example_family(1.3),
                               grid7, SolverOptions(n_restarts=1, max_iter=600))
        assert rep.fully_nontrivial
        assert rep.energy == pytest.approx(50809.963368347642, rel=1e-10)


class TestPositiveRoot:
    """The unique positive root of the scalar fiber gradient,
    `scalar_fiber_root`."""

    def test_start_on_root_costs_one_call(self, monkeypatch, grid15, identity):
        # with the identity profile and lambda = 0 the cold start is the
        # exact root: one evaluation there, which passes the stationarity test
        params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        z = modulated_bump(grid15)
        (a,), _q, (b,) = CellSample(z[None], grid15).integrals(4.0)
        axis = counted(FiberEvaluator._axis)
        monkeypatch.setattr(FiberEvaluator, "_axis", axis)
        tau = scalar_fiber_root(z, 0.0, params, identity, grid15).t[0]
        assert tau == pytest.approx((a / b) ** 0.5, rel=1e-15)
        assert axis.calls == 1

    def test_no_root_is_not_projectable(self, grid15, identity):
        # lambda above the first sine mode's Rayleigh quotient: the fiber
        # gradient is negative for every tau > 0, and nothing is raised
        lam = 1.5 * conservative_mu1(grid15)
        params = ProblemParams(lam, lam, 0.0, 4.0, 1.0)
        X, Y = grid15.node_mesh()
        z = np.sin(np.pi * X) * np.sin(np.pi * Y)
        res = scalar_fiber_root(z, lam, params, identity, grid15)
        assert not res.projectable
        assert res.reason.startswith("fiber Newton stalled at t = (")
        assert res.t is None and res.sample is None

    @pytest.mark.parametrize("lam_frac", [0.0, 0.3])
    def test_result_is_the_rescaled_sample(self, grid15, example1, lam_frac):
        # the rescale returns the root finder's own sample scaled by tau,
        # and h(tau) as the energy of that sample
        lam = lam_frac * conservative_mu1(grid15)
        params = ProblemParams(lam, lam, 0.0, 4.0, 1.0)
        z = modulated_bump(grid15)
        res = scalar_fiber_root(z, lam, params, example1, grid15)
        assert res.projectable and len(res.t) == 1 and len(res.residual) == 1
        ref = CellSample(z[None], grid15).scaled(res.t)
        for name in ("x", "v", "gx", "gy", "gsq"):
            assert np.array_equal(getattr(res.sample, name), getattr(ref, name))
        energy = Energy.scalar(params, lam, example1).value(ref)
        assert res.energy == pytest.approx(energy, rel=1e-12)
        assert abs(res.residual[0]) <= 1e-10 * abs(res.energy)

    def test_root_far_below_the_cold_start_near_p_2(self, grid15, half_profile):
        # A = 0.5 and p = 2.05: the root is 0.5^20 ~ 9.5e-7 times the cold
        # start, the A = 1 root, and the maximizing Newton walks down to it
        params = ProblemParams(0.0, 0.0, 0.0, 2.05, 0.01)
        X, Y = grid15.node_mesh()
        z = np.sin(np.pi * X) * np.sin(np.pi * Y)
        (a,), _q, (b,) = CellSample(z[None], grid15).integrals(2.05)
        tau = scalar_fiber_root(z, 0.0, params, half_profile, grid15).t[0]
        assert tau == pytest.approx((0.5 * a / b) ** 20.0, rel=1e-9)
        assert tau < 1e-6 * (a / b) ** 20.0

    def test_extreme_warm_guess_gives_the_cold_root(self, grid15, example1):
        # a guess at which the fiber map over- or underflows, or one that
        # is not finite, hands over to the cold start
        lam = 0.3 * conservative_mu1(grid15)
        params = ProblemParams(lam, lam, 0.0, 4.0, 1.0)
        z = modulated_bump(grid15)
        ref = scalar_fiber_root(z, lam, params, example1, grid15).t[0]
        for tau_init in (1e-300, 1e300):
            with np.errstate(over="ignore", invalid="ignore"):
                tau = scalar_fiber_root(z, lam, params, example1, grid15,
                                        tau_init=tau_init).t[0]
            assert tau == pytest.approx(ref, rel=1e-12)
        for tau_init in (math.inf, math.nan):
            tau = scalar_fiber_root(z, lam, params, example1, grid15,
                                    tau_init=tau_init).t[0]
            assert tau == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("kind", ["identity", "example"])
    @pytest.mark.parametrize("lam_frac", [0.0, 0.3, -0.5])
    def test_matches_brentq(self, grid15, identity, example1, kind, lam_frac):
        fam = identity if kind == "identity" else example1
        lam = lam_frac * conservative_mu1(grid15)
        params = ProblemParams(lam, lam, 0.0, 4.0, 1.0)
        z = modulated_bump(grid15)
        ev = FiberEvaluator(Energy.scalar(params, lam, fam),
                            CellSample(z[None], grid15))
        ref = brentq(lambda t: float(ev._axis(0, t, 1)[1]), 1e-6, 1e6, xtol=1e-300,
                     rtol=1e-15)
        for tau_init in (None, 0.01 * ref, 100.0 * ref):
            tau = scalar_fiber_root(z, lam, params, fam, grid15,
                                    tau_init=tau_init).t[0]
            assert tau == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("offset", [0.99, 1.0, 1.01])
    def test_warm_start_is_cheap(self, monkeypatch, grid15, example1, offset):
        # offset 1.0 is the relapse case: a start on the root used to be
        # bisected away from it and walked back
        lam = 0.3 * conservative_mu1(grid15)
        params = ProblemParams(lam, lam, 0.0, 4.0, 1.0)
        z = modulated_bump(grid15)
        ref = scalar_fiber_root(z, lam, params, example1, grid15).t[0]
        psi = counted(FiberEvaluator._axis)
        monkeypatch.setattr(FiberEvaluator, "_axis", psi)
        tau = scalar_fiber_root(z, lam, params, example1, grid15,
                                tau_init=offset * ref).t[0]
        assert tau == pytest.approx(ref, rel=1e-12)
        assert 0 < psi.calls <= 8


class TestProjection:
    def test_decoupled_identity_closed_form(self, grid31, identity):
        params = ProblemParams(0.0, 0.0, -1.5, 4.0, 1.0)
        x = disjoint_state(grid31)
        res = project_to_nehari(x, params, identity, identity, grid31)
        assert res.projectable
        a, _q, b = CellSample(x, grid31).integrals(4.0)
        for k, tk in enumerate(res.t):
            assert tk == pytest.approx((a[k] / b[k]) ** 0.5, rel=1e-10, abs=0.0)

    def test_diagonal_not_projectable(self, grid15, example1, competitive_params):
        rng = np.random.default_rng(17)
        for seed in range(10):
            v = np.abs(rng.standard_normal(grid15.shape)) + 0.05
            res = project_to_nehari(
                np.stack((v, v)), competitive_params, example1, example1, grid15
            )
            assert not res.projectable

    def test_no_interior_point_is_not_projectable(self, grid15, example1):
        # lambda1 far above mu1: h decreases in t1 for every t1 > 0, so the
        # Newton stalls toward t1 -> 0 and nothing is raised
        params = ProblemParams(10.0 * conservative_mu1(grid15), 0.0, -2.0, 4.0, 1.0)
        res = project_to_nehari(bump_state(grid15), params, example1, example1,
                                grid15)
        assert not res.projectable
        assert "fiber Newton stalled" in res.reason

    def test_collapsing_fiber_stops_early(self, monkeypatch, grid15, identity,
                                          example1):
        # beta > 0 and no interior critical point: t_1 heads for 0.  The
        # cold and the ray run each stop once t_1 falls below its collapse
        # floor, not after all 100 steps.  Warnings are errors in this suite.
        x = positive_state(grid15, 1)
        beta = 0.5
        ev = FiberEvaluator(Energy.pair(ProblemParams(0.0, 0.0, beta, 4.0, 1.0),
                                        identity, example1), CellSample(x, grid15))
        (a1, a2), (q1, _q2), (pp1, pp2), c = ev._ia0, ev.q, ev.pp, beta * ev.cross
        params = ProblemParams((a1 - 0.9 * c * a2 / pp2) / q1, 0.0, beta, 4.0, 1.0)
        # why there is none, at p = 4 with X = t_1^2 and Y = t_2^2: the
        # identity component's t_1 dh/dt_1 = 0 reads a1' = X pp1 + c Y,
        # a1' = a1 - lambda1 q1, and as A + s A'/2 >= nu = 1 for the
        # example profile, t_2 dh/dt_2 = 0 needs Y pp2 + c X >= a2.  Then
        # X (pp1 pp2 - c^2) <= a1' pp2 - c a2, which is negative here
        a1p = a1 - params.lambda1 * q1
        assert pp1 * pp2 - c * c > 0.0 and a1p * pp2 - c * a2 < 0.0
        floor = FiberEvaluator(Energy.pair(params, identity, example1),
                               CellSample(x, grid15)).cold_start(floor=True)
        derivatives = counted(FiberEvaluator.derivatives)
        monkeypatch.setattr(FiberEvaluator, "derivatives", derivatives)
        res = project_to_nehari(x, params, identity, example1, grid15)
        assert not res.projectable
        assert res.reason.startswith("fiber Newton stalled at t = (")
        t1 = float(res.reason.split("(")[1].split(",")[0])
        assert 0.0 < t1 < floor[0]
        assert derivatives.calls <= 20

    @pytest.mark.parametrize("beta", (2.0, 10.0))
    def test_coupled_root_far_below_the_cold_start_near_p_2(self, grid15,
                                                            half_profile, beta):
        # A = 0.5, p = 2.05 and u1 = u2: the saddle is at t_1 = t_2 =
        # (0.5 ia0 / ((1 + beta) pp))^20, 0.5^20 / (1 + beta)^20 times the
        # cold start, and the beta > 0 Newton reaches it
        params = ProblemParams(0.0, 0.0, beta, 2.05, 0.01)
        X, Y = grid15.node_mesh()
        z = np.sin(np.pi * X) * np.sin(np.pi * Y)
        (a,), _q, (b,) = CellSample(z[None], grid15).integrals(2.05)
        res = project_to_nehari(np.stack([z, z]), params, half_profile,
                                half_profile, grid15)
        assert res.projectable
        t = (0.5 * a / ((1.0 + beta) * b)) ** 20.0
        assert res.t == pytest.approx((t, t), rel=1e-9)

    def test_idempotent(self, grid15, example1, competitive_params):
        x = bump_state(grid15)
        first = project_to_nehari(x, competitive_params, example1, example1, grid15)
        assert first.projectable
        assert max(map(abs, first.residual)) <= 1e-8
        again = project_to_nehari(
            first.sample.x, competitive_params, example1, example1, grid15
        )
        assert abs(again.t[0] - 1.0) <= 10 * 1e-8
        assert abs(again.t[1] - 1.0) <= 10 * 1e-8

    @PROPERTY
    @given(n=st.sampled_from((7, 15)), fams=pair_families, beta=betas,
           p=st.sampled_from((3.0, 4.0)), seed=st.integers(0, 2**31))
    def test_idempotent_property(self, grid7, grid15, n, fams, beta, p, seed):
        # criterion 5's bound: a projected pair is its own projection
        grid = grid7 if n == 7 else grid15
        params = ProblemParams(0.4, -0.3, beta, p, 0.5)
        first = project_to_nehari(segregated_random_state(grid, seed), params,
                                  *fams, grid)
        assert first.projectable
        again = project_to_nehari(first.sample.x, params, *fams, grid)
        assert abs(again.t[0] - 1.0) <= 1e-8
        assert abs(again.t[1] - 1.0) <= 1e-8

    @PROPERTY
    @given(n=st.sampled_from((7, 15)), fams=pair_families, beta=betas,
           p=st.sampled_from((3.0, 4.0)), seed=st.integers(0, 2**31))
    def test_swap_equivariance_property(self, grid7, grid15, n, fams, beta, p, seed):
        # the swapped pair with the swapped data projects with t swapped
        grid = grid7 if n == 7 else grid15
        params = ProblemParams(0.4, -0.3, beta, p, 0.5)
        x = segregated_random_state(grid, seed)
        res = project_to_nehari(x, params, *fams, grid)
        sw = project_to_nehari(x[::-1], params.swapped(), *fams[::-1], grid)
        assert res.projectable and sw.projectable
        assert sw.t[0] == pytest.approx(res.t[1], rel=1e-10)
        assert sw.t[1] == pytest.approx(res.t[0], rel=1e-10)
        assert sw.energy == pytest.approx(res.energy, rel=1e-12)

    def test_far_warm_start_is_cheap(self, monkeypatch, grid15, example1,
                                     competitive_params):
        # at 0.05 t* h is convex, so the Newton step descends and the line
        # search could only creep within its rounding slack: the warm
        # Newton must give up at once and leave t* to the cold start
        x = bump_state(grid15)
        axis = counted(FiberEvaluator._axis)
        monkeypatch.setattr(FiberEvaluator, "_axis", axis)
        cold = project_to_nehari(x, competitive_params, example1, example1, grid15)
        cold_calls, axis.calls = axis.calls, 0
        warm = project_to_nehari(
            x, competitive_params, example1, example1, grid15,
            t_init=(0.05 * cold.t[0], 0.05 * cold.t[1]),
        )
        assert warm.t == cold.t
        # one evaluation (an `_axis` call per component) at the warm guess,
        # then the cold projection's, which takes a handful of Newton steps
        assert axis.calls == cold_calls + 2
        assert cold_calls <= 22

    @pytest.mark.parametrize("lam_share, beta", [(0.0, 1.0), (0.5, 0.3)])
    def test_saddle_converges_with_one_component_at_its_rounding_floor(
            self, monkeypatch, grid15, lam_share, beta):
        # p = 3, t = (275, 6.6e-5) and (3.5e-5, 162): the far larger
        # |dh/dt_k| of one component sits at its rounding floor, so no
        # trial lowers max |dh/dt_k|; a stationary trial is accepted
        lam = lam_share * conservative_mu1(grid15)
        params = ProblemParams(lam, -0.2 * lam, beta, 3.0, 0.5)
        fams = (example_family(0.5), example_family(1.3))
        x = segregated_random_state(grid15, 7)
        derivatives = counted(FiberEvaluator.derivatives)
        monkeypatch.setattr(FiberEvaluator, "derivatives", derivatives)
        res = project_to_nehari(x, params, *fams, grid15)
        assert res.projectable
        assert derivatives.calls <= 20
        t = np.array(res.t)
        ev = FiberEvaluator(Energy.pair(params, *fams), CellSample(x, grid15))
        _h, g = ev.derivatives(t, 1)
        assert (np.abs(g) <= 1e-12 * t * ev._ia0).all()

    def test_evaluation_count_is_pinned(self, monkeypatch, grid15):
        # a cold projection whose Newton takes the most steps of the pinned
        # 15^2 cases: the example kernels bound to the sample take the
        # steps of the jet they replaced (18 evaluations when written)
        params = ProblemParams(0.4, -0.3, -2.0, 3.0, 0.5)
        fams = (example_family(0.5), example_family(1.3))
        derivatives = counted(FiberEvaluator.derivatives)
        monkeypatch.setattr(FiberEvaluator, "derivatives", derivatives)
        res = project_to_nehari(segregated_random_state(grid15, 7), params, *fams,
                                grid15)
        assert res.projectable
        assert res.t == pytest.approx((274.9769030213417, 160.93695351671468),
                                      rel=1e-12)
        assert derivatives.calls == 18

    @pytest.mark.parametrize("beta", [-2.0, 0.7])
    def test_warm_start_on_its_own_root_costs_one_call(self, monkeypatch, grid15,
                                                       identity, example1, beta):
        # warm-started from its own converged t, a projection evaluates the
        # fiber once, there, and returns that t bit for bit
        params = ProblemParams(0.4, -0.3, beta, 4.0, 1.0)
        x = bump_state(grid15)
        res = project_to_nehari(x, params, identity, example1, grid15)
        assert res.projectable
        derivatives = counted(FiberEvaluator.derivatives)
        monkeypatch.setattr(FiberEvaluator, "derivatives", derivatives)
        warm = project_to_nehari(x, params, identity, example1, grid15,
                                 t_init=res.t)
        assert derivatives.calls == 1
        assert warm.t == res.t

    @pytest.mark.parametrize("beta, t_init", [(5.0, (1e-3, 1e-3)),
                                              (-2.0, (1e6, 1e-6))])
    def test_warm_run_is_capped(self, monkeypatch, grid15, identity, example1,
                                beta, t_init):
        # far warm starts heading for t_k -> 0: the warm run stops at its
        # cap of 20 steps and the axis-root start takes over; each evaluated
        # fiber point costs one `_axis` call per component
        params = ProblemParams(0.0, 0.0, beta, 4.0, 1.0)
        x = far_start_pair(grid15, beta)
        axis = counted(FiberEvaluator._axis)
        monkeypatch.setattr(FiberEvaluator, "_axis", axis)
        cold = project_to_nehari(x, params, identity, example1, grid15)
        cold_calls, axis.calls = axis.calls, 0
        warm = project_to_nehari(x, params, identity, example1, grid15,
                                 t_init=t_init)
        assert warm.t == cold.t
        assert _WARM_MAX_ITER == 20
        assert axis.calls <= cold_calls + 2 * (1 + 20)

    @PROPERTY
    @given(beta=st.sampled_from((-2.0, 5.0)), log_t=st.tuples(st.floats(-6.0, 6.0),
                                                             st.floats(-6.0, 6.0)))
    @example(beta=5.0, log_t=(-3.0, -3.0))
    @example(beta=-2.0, log_t=(6.0, -6.0))
    def test_any_warm_start_gives_the_cold_projection(self, grid15, identity,
                                                      example1, beta, log_t):
        # a warm start either converges to the interior critical point or
        # hands over to the axis roots: never a boundary point t_k -> 0
        params = ProblemParams(0.0, 0.0, beta, 4.0, 1.0)
        x = far_start_pair(grid15, beta)
        cold = project_to_nehari(x, params, identity, example1, grid15)
        warm = project_to_nehari(x, params, identity, example1, grid15,
                                 t_init=(10.0 ** log_t[0], 10.0 ** log_t[1]))
        assert cold.projectable and warm.projectable
        assert warm.t[0] == pytest.approx(cold.t[0], rel=1e-10)
        assert warm.t[1] == pytest.approx(cold.t[1], rel=1e-10)

    @PROPERTY
    @given(fams=pair_families, beta=betas, seed=st.integers(0, 2**31),
           log_s=st.floats(-6.0, 6.0))
    @example(fams=(identity_family(), example_family(1.0)), beta=-2.0, seed=0,
             log_s=-4.0)
    def test_scale_equivariance_property(self, grid15, fams, beta, seed, log_s):
        # s x projects onto the same pair as x, with t divided by s
        s = 10.0 ** log_s
        params = ProblemParams(0.4, -0.3, beta, 4.0, 0.5)
        x = segregated_random_state(grid15, seed)
        res = project_to_nehari(x, params, *fams, grid15)
        scaled = project_to_nehari(s * x, params, *fams, grid15)
        assert res.projectable and scaled.projectable
        assert s * scaled.t[0] == pytest.approx(res.t[0], rel=1e-10)
        assert s * scaled.t[1] == pytest.approx(res.t[1], rel=1e-10)
        assert scaled.energy == pytest.approx(res.energy, rel=1e-10)

    def test_cold_polish_climbs_out_of_convex_region(self, grid15, example1,
                                                     competitive_params):
        # the same far start without the warm give-up: gradient ascent
        # steps carry t to where Newton takes over and converges to t*
        x = bump_state(grid15)
        cold = project_to_nehari(x, competitive_params, example1, example1, grid15)
        ev = FiberEvaluator(Energy.pair(competitive_params, example1, example1),
                            CellSample(x, grid15))
        t_star = np.array(cold.t)
        t, h, g, converged = _fiber_newton(ev, 0.05 * t_star, maximize=True)
        assert converged
        assert np.allclose(t, t_star, rtol=1e-10, atol=0.0)
        assert h == ev.derivatives(t, order=0)[0]
        assert h == pytest.approx(cold.energy, rel=1e-12)
        assert np.array_equal(g, ev.derivatives(t, order=1)[1])

    def test_componentwise_scale_covariance(self, grid15, example1,
                                            competitive_params):
        # h_{c u}(t) = h_u(c t): with u2 times c the precheck still passes,
        # t2 scales by 1/c and the energy is unchanged.  The precheck reads
        # unit gradient norms: at the input's own scales u2 times 100 or
        # 0.01 would fail it.
        x = unit_sample(bump_state(grid15), grid15).x
        res = project_to_nehari(x, competitive_params, example1, example1, grid15)
        assert res.projectable
        for c in (10.0, 100.0, 0.01):
            scaled = project_to_nehari(x * np.reshape((1.0, c), (2, 1, 1)),
                                       competitive_params, example1, example1,
                                       grid15)
            assert scaled.projectable, scaled.reason
            assert scaled.t[0] == pytest.approx(res.t[0], rel=1e-10)
            assert scaled.t[1] == pytest.approx(res.t[1] / c, rel=1e-10)
            assert scaled.energy == pytest.approx(res.energy, rel=1e-12)

    def test_degenerate_component_raises(self, grid15, example1, competitive_params):
        x = np.stack((np.ones(grid15.shape), np.zeros(grid15.shape)))
        with pytest.raises(DegenerateInput):
            project_to_nehari(x, competitive_params, example1, example1, grid15)

    def test_homeomorphism_round_trip(self, grid15, example1, competitive_params):
        x = unit_sample(bump_state(grid15), grid15).x
        res = project_to_nehari(x, competitive_params, example1, example1, grid15)
        back = unit_sample(res.sample.x, grid15).x
        assert np.max(np.abs(back[0] - x[0])) < 1e-8
        assert np.max(np.abs(back[1] - x[1])) < 1e-8

    def test_continuity_probe(self, grid15, example1, competitive_params):
        # t_u varies continuously: shrinking perturbations give shrinking |dt|
        x = bump_state(grid15)
        base = project_to_nehari(x, competitive_params, example1, example1, grid15)
        rng = np.random.default_rng(23)
        d1 = rng.standard_normal(grid15.shape)
        d2 = rng.standard_normal(grid15.shape)
        deltas = []
        for eps in (1e-3, 1e-4, 1e-5):
            xp = x + eps * np.stack((d1, d2))
            r = project_to_nehari(xp, competitive_params, example1, example1, grid15)
            deltas.append(math.hypot(r.t[0] - base.t[0], r.t[1] - base.t[1]))
        assert deltas[1] < 0.2 * deltas[0]
        assert deltas[2] < 0.2 * deltas[1]

    @PROPERTY
    @given(
        fams=pair_families,
        beta=st.sampled_from((-2.0, 0.7)),
        p=st.sampled_from((3.0, 4.0)),
        seed=st.integers(0, 2**31),
    )
    def test_reported_energy_and_residuals(self, grid7, fams, beta, p, seed):
        # read from the fiber map at t, they are those of a fresh sample
        params = ProblemParams(0.4, -0.3, beta, p, 0.5)
        x = segregated_random_state(grid7, seed)
        res = project_to_nehari(x, params, *fams, grid7)
        assert res.projectable
        w = np.reshape(res.t, (2, 1, 1)) * x
        assert np.array_equal(res.sample.x, w)
        fresh = CellSample(w, grid7)
        energy = Energy.pair(params, *fams)
        r1, r2 = energy.residuals(fresh)
        # the size of the integrals that cancel in the energy and residuals
        gr, _q, pp = fresh.integrals(p)
        terms = float(np.sum(gr + pp))
        assert abs(res.energy - energy.value(fresh)) <= 1e-12 * terms
        assert abs(res.residual[0] - r1) <= 1e-12 * terms
        assert abs(res.residual[1] - r2) <= 1e-12 * terms

    def test_attractive_rescale_matches_diagonal_root(self, grid15, identity):
        # symmetric state, beta > 0, constant profile, p = 4: the rescale is
        # the scalar root over sqrt(1 + beta), here over 2
        params = ProblemParams(0.0, 0.0, 3.0, 4.0, 1.0)
        v = np.abs(random_state(grid15, 31).u1.values) + 0.1
        res = project_to_nehari(np.stack((v, v)), params, identity, identity, grid15)
        assert res.projectable
        tau = scalar_fiber_root(v, 0.0, params, identity, grid15).t[0] / 2.0
        assert res.t[0] == pytest.approx(tau, rel=1e-9)
        assert res.t[1] == pytest.approx(tau, rel=1e-9)


class TestStateInput:
    """The one check of the state a projection takes: its shape, finite
    entries and nontrivial components."""

    FUNCTIONS = pytest.mark.parametrize(
        "fn", [project_to_nehari, critical_cell_count, scalar_fiber_root],
        ids=lambda fn: fn.__name__,
    )

    @staticmethod
    def state(fn, grid):
        x = bump_state(grid)
        return x[0] if fn is scalar_fiber_root else x

    @staticmethod
    def call(fn, state, grid):
        params, fam = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0), example_family(1.0)
        if fn is scalar_fiber_root:
            return fn(state, 0.0, params, fam, grid)
        return fn(state, params, fam, fam, grid)

    @FUNCTIONS
    @pytest.mark.parametrize("wrong", ["leading axis", "grid"])
    def test_wrong_shape_is_grid_mismatch(self, grid7, grid15, fn, wrong):
        if wrong == "grid":
            state = self.state(fn, grid7)
        else:
            state = np.stack([self.state(fn, grid15)] * 3)
        with pytest.raises(GridMismatch):
            self.call(fn, state, grid15)

    @FUNCTIONS
    def test_non_finite_entry_is_invalid_state(self, grid15, fn):
        state = self.state(fn, grid15).copy()
        state[..., 3, 4] = np.nan
        with pytest.raises(InvalidState, match="non-finite"):
            self.call(fn, state, grid15)

    @FUNCTIONS
    def test_zero_component_is_degenerate(self, grid15, fn):
        state = self.state(fn, grid15).copy()
        component = state if state.ndim == 2 else state[-1]
        component[...] = 0.0
        with pytest.raises(DegenerateInput, match="identically zero"):
            self.call(fn, state, grid15)


class TestSphereNormalize:
    """`unit_sample`: each component of a stack onto its unit gradient sphere."""

    def test_unit_norm(self, grid15):
        x = unit_sample(random_state(grid15, seed=2).stacked(), grid15).x
        gr, _q, _pp = CellSample(x, grid15).integrals(2.0)
        assert gr == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_scaling_invariance(self, grid15):
        x = random_state(grid15, seed=4).stacked()
        a = unit_sample(x, grid15).x
        b = unit_sample(np.reshape((17.0, 0.003), (2, 1, 1)) * x, grid15).x
        assert np.allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_already_normalized_unchanged(self, grid15):
        x = unit_sample(random_state(grid15, seed=6).stacked(), grid15).x
        again = unit_sample(x, grid15).x
        assert np.max(np.abs(again[0] - x[0])) < 1e-14

    def test_degenerate(self, grid15):
        with pytest.raises(DegenerateInput):
            unit_sample(np.zeros((2, *grid15.shape)), grid15).x

    def test_scaled_sample_is_the_sample_of_its_stack(self, grid15):
        # the stack is sampled once and the sample scaled: by linearity of
        # the stencils it is a fresh sample of the scaled stack to rounding
        unit = unit_sample(random_state(grid15, seed=3).stacked(), grid15)
        fresh = CellSample(unit.x, grid15)
        for name in ("v", "gx", "gy", "gsq"):
            got, want = getattr(unit, name), getattr(fresh, name)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_rescales_take_the_sample(self, monkeypatch, grid15, example1,
                                      competitive_params):
        # a rescale handed the unit sample samples nothing, and a sample of
        # the wrong shape is a GridMismatch
        unit = unit_sample(bump_state(grid15), grid15)
        calls = counted(cell_values)
        monkeypatch.setattr("nehari2d.energy.cell_values", calls)
        res = project_to_nehari(unit, competitive_params, example1, example1, grid15)
        assert res.projectable and calls.calls == 0
        with pytest.raises(GridMismatch):
            scalar_fiber_root(unit, 0.0, competitive_params, example1, grid15)


class TestUniquenessScan:
    def test_exactly_one_critical_cell(self, grid15, example1, competitive_params):
        found = 0
        seed = 0
        while found < 10:
            x = segregated_random_state(grid15, seed=seed)
            seed += 1
            ev = FiberEvaluator(Energy.pair(competitive_params, example1, example1),
                                CellSample(x, grid15))
            m1, m2 = ev.membership_values()
            if m1 <= 0 or m2 <= 0:
                continue
            found += 1
            assert critical_cell_count(
                x, competitive_params, example1, example1, grid15
            ) == 1

    def test_maximality_over_scan(self, grid15, example1, competitive_params):
        x = bump_state(grid15)
        res = project_to_nehari(x, competitive_params, example1, example1, grid15)
        energy = Energy.pair(competitive_params, example1, example1)
        ev = FiberEvaluator(energy, CellSample(x, grid15))
        taus = np.logspace(-3, 3, 64)
        (H,) = ev.derivatives((taus[:, None], taus[None, :]), order=0)
        h_star = fiber_value(x, res.t, energy, grid15)
        assert h_star >= np.max(H) - 1e-9 * (abs(h_star) + 1.0)
