import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

import nehari2d.grid as G
from nehari2d import (
    FiberPoint,
    ProblemParams,
    ScalarField,
    StatePair,
    example_family,
    fiber_gradient,
    fiber_value,
    identity_family,
    nehari_residual,
    project_to_nehari,
    sphere_normalize,
    total_energy,
)
from nehari2d.coeffs import tabulated_family
from nehari2d.energy import CellSample, Energy
from nehari2d.errors import DegenerateInput, NoConvergence
from nehari2d.fiber import (
    FiberEvaluator,
    _newton_polish,
    critical_cell_count,
    positive_root,
    scalar_fiber_root,
)
from nehari2d.solvers import conservative_mu1, segregated_pair

from conftest import (
    PROPERTY,
    positive_state,
    random_state,
    segregated_random_state,
    zero_field,
)


@pytest.fixture
def competitive_params():
    return ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)


def bump_state(grid):
    left, right = segregated_pair(grid)
    return StatePair(ScalarField(left, grid.spec), ScalarField(right, grid.spec))


def disjoint_state(grid):
    """Bumps hard-truncated to opposite thirds: no cell sees both."""
    left, right = segregated_pair(grid)
    X, _ = grid.node_mesh()
    s = grid.spec
    return StatePair(
        ScalarField(np.where(X < 0.4 * s.lx, left, 0.0), s),
        ScalarField(np.where(X > 0.6 * s.lx, right, 0.0), s),
    )


class TestFiberPoint:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FiberPoint(0.0, 1.0)
        with pytest.raises(ValueError):
            FiberPoint(1.0, -2.0)
        with pytest.raises(ValueError):
            FiberPoint(1.0, math.inf)


class TestFiberValue:
    def test_identity_at_unit_point(self, grid15, example1, competitive_params):
        u = random_state(grid15, seed=1)
        t = FiberPoint(1.0, 1.0)
        assert fiber_value(u, t, competitive_params, example1, example1, grid15) == \
            total_energy(u, competitive_params, example1, example1, grid15)

    def test_decoupled_closed_form(self, grid31, identity):
        # disjoint supports, constant profile, lambda = 0:
        # h(t) = sum t_i^2 a_i / 2 - t_i^p b_i / p
        params = ProblemParams(0.0, 0.0, -3.0, 4.0, 1.0)
        u = disjoint_state(grid31)
        a = [G.integrate(G.grad_sq(c, grid31), grid31) for c in (u.u1, u.u2)]
        b = [
            G.integrate(np.abs(G.cell_values(c, grid31)) ** 4, grid31)
            for c in (u.u1, u.u2)
        ]
        cross = G.integrate(
            np.abs(G.cell_values(u.u1, grid31) * G.cell_values(u.u2, grid31)) ** 2,
            grid31,
        )
        assert cross == 0.0  # genuinely disjoint supports
        for t1, t2 in ((0.5, 2.0), (1.3, 0.7), (3.0, 3.0)):
            h = fiber_value(u, FiberPoint(t1, t2), params, identity, identity, grid31)
            closed = sum(
                0.5 * t * t * ai - 0.25 * t**4 * bi
                for t, ai, bi in ((t1, a[0], b[0]), (t2, a[1], b[1]))
            )
            assert h == pytest.approx(closed, rel=1e-9)

    def test_decays_to_minus_infinity(self, grid15, example1, competitive_params):
        u = bump_state(grid15)
        ev = FiberEvaluator(Energy.pair(competitive_params, example1, example1),
                            CellSample(u.stacked(), grid15))
        m1, m2 = ev.membership_values()
        assert m1 > 0.0 and m2 > 0.0
        vals = [ev.value(s, s) for s in (10.0, 100.0, 1000.0)]
        assert vals[2] < vals[1] < vals[0] and vals[2] < -1e6


class TestFiberGradient:
    def test_finite_difference_match(self, grid15, example1):
        params = ProblemParams(0.1, -0.2, -1.4, 4.0, 1.0)
        rng = np.random.default_rng(5)
        u = random_state(grid15, seed=3)
        for _ in range(10):
            t1, t2 = rng.uniform(0.2, 3.0, size=2)
            g1, g2 = fiber_gradient(
                u, FiberPoint(t1, t2), params, example1, example1, grid15
            )
            dt = 1e-6
            for k, (gk, tk) in enumerate(((g1, t1), (g2, t2))):
                tp = [t1, t2]
                tm = [t1, t2]
                tp[k] += dt
                tm[k] -= dt
                fd = (
                    fiber_value(u, FiberPoint(*tp), params, example1, example1, grid15)
                    - fiber_value(u, FiberPoint(*tm), params, example1, example1, grid15)
                ) / (2 * dt)
                assert abs(gk - fd) / (1.0 + abs(fd)) < 1e-7

    @PROPERTY
    @given(
        fams=st.sampled_from([(identity_family(), example_family(1.0)),
                              (example_family(0.5), example_family(1.3))]),
        beta=st.sampled_from((-2.0, 0.7)),
        p=st.sampled_from((3.0, 4.0)),
        t=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
        seed=st.integers(0, 2**31),
    )
    def test_jacobian_matches_difference_of_gradient(self, grid7, fams, beta, p, t,
                                                     seed):
        params = ProblemParams(0.4, -0.3, beta, p, 0.5)
        ev = FiberEvaluator(Energy.pair(params, *fams),
                            CellSample(positive_state(grid7, seed).stacked(), grid7))
        g, J = ev.grad_and_jacobian(*t)
        np.testing.assert_allclose(g, ev.grad(*t), rtol=1e-12, atol=1e-12)
        dt = 1e-6
        fd = np.empty((2, 2))
        for k in range(2):
            tp, tm = list(t), list(t)
            tp[k] += dt
            tm[k] -= dt
            fd[:, k] = (np.array(ev.grad(*tp)) - np.array(ev.grad(*tm))) / (2 * dt)
        assert np.max(np.abs(J - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_gradient_small_at_projection(self, grid15, example1, competitive_params):
        u = bump_state(grid15)
        res = project_to_nehari(u, competitive_params, example1, example1, grid15)
        assert res.projectable
        g1, g2 = fiber_gradient(
            u, res.t, competitive_params, example1, example1, grid15
        )
        h = fiber_value(u, res.t, competitive_params, example1, example1, grid15)
        assert max(abs(g1), abs(g2)) <= 1e-9 * (abs(h) + 1.0)

    def test_decoupled_root_closed_form(self, grid31, identity):
        params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        u = bump_state(grid31)
        a = G.integrate(G.grad_sq(u.u1, grid31), grid31)
        b = G.integrate(np.abs(G.cell_values(u.u1, grid31)) ** 4, grid31)
        tau = scalar_fiber_root(u.u1, 0.0, params, identity, grid31)
        assert tau == pytest.approx((a / b) ** 0.5, rel=1e-11)

    @PROPERTY
    @given(
        kind=st.sampled_from(("identity", "example", "tabulated")),
        c=st.sampled_from((0.4, 2.5)),
        p=st.sampled_from((3.0, 4.0)),
        tau=st.floats(0.2, 3.0),
        seed=st.integers(0, 2**31),
    )
    def test_axis_derivatives_match_differences(self, grid7, kind, c, p, tau, seed):
        # the one-field axis carries the weight c in every derivative
        ex = example_family(1.3)
        fam = {
            "identity": identity_family(),
            "example": ex,
            "tabulated": tabulated_family(ex.a, ex.da, nu=1.0, c0=2.0, gamma=1.3),
        }[kind]
        energy = Energy.scalar(ProblemParams(0.4, 0.4, 0.0, p, 0.5), 0.4, fam, c)
        z = positive_state(grid7, seed).u1.values[None]
        ev = FiberEvaluator(energy, CellSample(z, grid7))
        _, grad, slope = ev._axis(0, tau, 2)
        dt = 1e-6
        fd_grad = (
            energy.value(CellSample((tau + dt) * z, grid7))
            - energy.value(CellSample((tau - dt) * z, grid7))
        ) / (2 * dt)
        fd_slope = (ev._axis(0, tau + dt, 1)[1] - ev._axis(0, tau - dt, 1)[1]) / (2 * dt)
        # the size of the terms that cancel in the axis derivatives
        scale = sum(np.abs(ev._ia0) + np.abs(ev.q) + c * ev.pp) * max(tau, 1.0) ** p
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
    return ScalarField(
        np.sin(np.pi * X) * np.sin(np.pi * Y) * (1.0 + 0.3 * rng.random(grid.shape)),
        grid.spec,
    )


class TestPositiveRoot:
    def test_start_on_root_costs_one_call(self):
        # psi(2) == 0 exactly: a start on the root must not walk away from it
        psi = counted(lambda t: (t * (4.0 - t * t), 4.0 - 3.0 * t * t))
        assert positive_root(psi, 2.0) == 2.0
        assert psi.calls == 1

    def test_step_rounding_to_nothing_is_kept(self):
        # psi(2) is tiny but nonzero, so the Newton step rounds to nothing
        # and lands on the bracket end that psi's sign has just set
        psi = counted(lambda t: (1e-20 + (2.0 - t), -1.0))
        assert positive_root(psi, 2.0) == 2.0
        assert psi.calls == 1

    def test_no_root_raises(self):
        with pytest.raises(NoConvergence):
            positive_root(lambda t: (1.0 + t, 1.0), 1.0)

    @pytest.mark.parametrize("kind", ["identity", "example"])
    @pytest.mark.parametrize("lam_frac,nonlin", [(0.0, 1.0), (0.3, 1.0), (0.3, 2.5),
                                                 (-0.5, 1.0)])
    def test_matches_brentq(self, grid15, identity, example1, kind, lam_frac,
                            nonlin):
        fam = identity if kind == "identity" else example1
        lam = lam_frac * conservative_mu1(grid15)
        params = ProblemParams(lam, lam, 0.0, 4.0, 1.0)
        z = modulated_bump(grid15)
        ev = FiberEvaluator(Energy.scalar(params, lam, fam, nonlin),
                            CellSample(z.values[None], grid15))
        ref = brentq(lambda t: float(ev._axis(0, t, 1)[1]), 1e-6, 1e6, xtol=1e-300,
                     rtol=1e-15)
        for tau_init in (None, 0.01 * ref, 100.0 * ref):
            tau = scalar_fiber_root(z, lam, params, fam, grid15, nonlin,
                                    tau_init=tau_init)
            assert tau == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("offset", [0.99, 1.0, 1.01])
    def test_warm_start_is_cheap(self, monkeypatch, grid15, example1, offset):
        # offset 1.0 is the relapse case: a start on the root used to be
        # bisected away from it and walked back
        lam = 0.3 * conservative_mu1(grid15)
        params = ProblemParams(lam, lam, 0.0, 4.0, 1.0)
        z = modulated_bump(grid15)
        ref = scalar_fiber_root(z, lam, params, example1, grid15)
        psi = counted(FiberEvaluator._axis)
        monkeypatch.setattr(FiberEvaluator, "_axis", psi)
        tau = scalar_fiber_root(z, lam, params, example1, grid15,
                                tau_init=offset * ref)
        assert tau == pytest.approx(ref, rel=1e-12)
        assert 0 < psi.calls <= 8


class TestProjection:
    def test_decoupled_identity_closed_form(self, grid31, identity):
        params = ProblemParams(0.0, 0.0, -1.5, 4.0, 1.0)
        u = disjoint_state(grid31)
        res = project_to_nehari(u, params, identity, identity, grid31)
        assert res.projectable
        for comp, tk in ((u.u1, res.t.t1), (u.u2, res.t.t2)):
            a = G.integrate(G.grad_sq(comp, grid31), grid31)
            b = G.integrate(np.abs(G.cell_values(comp, grid31)) ** 4, grid31)
            assert tk == pytest.approx((a / b) ** 0.5, rel=1e-10, abs=0.0)

    def test_diagonal_not_projectable(self, grid15, example1, competitive_params):
        rng = np.random.default_rng(17)
        for seed in range(10):
            v = ScalarField(
                np.abs(rng.standard_normal(grid15.shape)) + 0.05, grid15.spec
            )
            res = project_to_nehari(
                StatePair(v, v), competitive_params, example1, example1, grid15
            )
            assert res.status == "not_projectable"

    def test_idempotent(self, grid15, example1, competitive_params):
        u = bump_state(grid15)
        first = project_to_nehari(u, competitive_params, example1, example1, grid15)
        assert first.projectable
        assert first.residual.max_abs <= 1e-8
        again = project_to_nehari(
            first.projected, competitive_params, example1, example1, grid15
        )
        assert abs(again.t.t1 - 1.0) <= 10 * 1e-8
        assert abs(again.t.t2 - 1.0) <= 10 * 1e-8

    def test_far_warm_start_is_cheap(self, monkeypatch, grid15, example1,
                                     competitive_params):
        # at 0.05 t* h is convex, so the Newton step descends and the line
        # search could only creep within its rounding slack: the polish
        # must give up at once and leave t* to the scan
        u = bump_state(grid15)
        cold = project_to_nehari(u, competitive_params, example1, example1, grid15)
        calls = []
        value = FiberEvaluator.value
        monkeypatch.setattr(
            FiberEvaluator, "value",
            lambda self, t1, t2: calls.append(1) or value(self, t1, t2),
        )
        warm = project_to_nehari(
            u, competitive_params, example1, example1, grid15,
            t_init=(0.05 * cold.t.t1, 0.05 * cold.t.t2),
        )
        assert warm.t == cold.t
        assert len(calls) <= 61

    def test_cold_polish_climbs_out_of_convex_region(self, grid15, example1,
                                                     competitive_params):
        # the same far start without the warm give-up: gradient ascent
        # steps carry t to where Newton takes over and converges to t*
        u = bump_state(grid15)
        cold = project_to_nehari(u, competitive_params, example1, example1, grid15)
        ev = FiberEvaluator(Energy.pair(competitive_params, example1, example1),
                            CellSample(u.stacked(), grid15))
        t_star = np.array([cold.t.t1, cold.t.t2])
        t, converged = _newton_polish(ev, 0.05 * t_star, warm=False)
        assert converged
        assert np.allclose(t, t_star, rtol=1e-10, atol=0.0)

    def test_degenerate_component_raises(self, grid15, example1, competitive_params):
        u = StatePair(
            ScalarField(np.ones(grid15.shape), grid15.spec), zero_field(grid15)
        )
        with pytest.raises(DegenerateInput):
            project_to_nehari(u, competitive_params, example1, example1, grid15)

    def test_homeomorphism_round_trip(self, grid15, example1, competitive_params):
        u = sphere_normalize(bump_state(grid15), grid15)
        res = project_to_nehari(u, competitive_params, example1, example1, grid15)
        back = sphere_normalize(res.projected, grid15)
        assert np.max(np.abs(back.u1.values - u.u1.values)) < 1e-8
        assert np.max(np.abs(back.u2.values - u.u2.values)) < 1e-8

    def test_continuity_probe(self, grid15, example1, competitive_params):
        # t_u varies continuously: shrinking perturbations give shrinking |dt|
        u = bump_state(grid15)
        base = project_to_nehari(u, competitive_params, example1, example1, grid15)
        rng = np.random.default_rng(23)
        d1 = rng.standard_normal(grid15.shape)
        d2 = rng.standard_normal(grid15.shape)
        deltas = []
        for eps in (1e-3, 1e-4, 1e-5):
            up = StatePair(
                ScalarField(u.u1.values + eps * d1, grid15.spec),
                ScalarField(u.u2.values + eps * d2, grid15.spec),
            )
            r = project_to_nehari(up, competitive_params, example1, example1, grid15)
            deltas.append(math.hypot(r.t.t1 - base.t.t1, r.t.t2 - base.t.t2))
        assert deltas[1] < 0.2 * deltas[0]
        assert deltas[2] < 0.2 * deltas[1]

    @PROPERTY
    @given(
        fams=st.sampled_from([(identity_family(), example_family(1.0)),
                              (example_family(0.5), example_family(1.3))]),
        beta=st.sampled_from((-2.0, 0.7)),
        p=st.sampled_from((3.0, 4.0)),
        seed=st.integers(0, 2**31),
    )
    def test_reported_energy_and_residuals(self, grid7, fams, beta, p, seed):
        # read from the fiber map at t, they are those of a fresh sample
        params = ProblemParams(0.4, -0.3, beta, p, 0.5)
        res = project_to_nehari(segregated_random_state(grid7, seed), params, *fams,
                                grid7)
        assert res.projectable
        w = res.projected
        energy = total_energy(w, params, *fams, grid7)
        resid = nehari_residual(w, params, *fams, grid7)
        # the size of the integrals that cancel in the energy and residuals
        terms = sum(
            G.integrate(G.grad_sq(c, grid7) + np.abs(G.cell_values(c, grid7)) ** p,
                        grid7)
            for c in (w.u1, w.u2)
        )
        assert abs(res.energy - energy) <= 1e-12 * terms
        assert abs(res.residual.r1 - resid.r1) <= 1e-12 * terms
        assert abs(res.residual.r2 - resid.r2) <= 1e-12 * terms
        assert np.array_equal(res.sample.x, w.stacked())

    def test_attractive_rescale_matches_diagonal_root(self, grid15, identity):
        # symmetric state, beta > 0: rescale = scalar root with weight 1+beta
        params = ProblemParams(0.0, 0.0, 3.0, 4.0, 1.0)
        v = ScalarField(np.abs(random_state(grid15, 31).u1.values) + 0.1, grid15.spec)
        u = StatePair(v, v)
        res = project_to_nehari(u, params, identity, identity, grid15)
        assert res.projectable
        tau = scalar_fiber_root(v, 0.0, params, identity, grid15, nonlin_coeff=4.0)
        assert res.t.t1 == pytest.approx(tau, rel=1e-9)
        assert res.t.t2 == pytest.approx(tau, rel=1e-9)


class TestSphereNormalize:
    def test_unit_norm(self, grid15):
        u = sphere_normalize(random_state(grid15, seed=2), grid15)
        for comp in (u.u1, u.u2):
            assert G.integrate(G.grad_sq(comp, grid15), grid15) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_scaling_invariance(self, grid15):
        u = random_state(grid15, seed=4)
        from nehari2d.energy import scale_state

        a = sphere_normalize(u, grid15)
        b = sphere_normalize(scale_state(u, 17.0, 0.003), grid15)
        assert np.allclose(a.u1.values, b.u1.values, rtol=1e-12, atol=1e-15)
        assert np.allclose(a.u2.values, b.u2.values, rtol=1e-12, atol=1e-15)

    def test_already_normalized_unchanged(self, grid15):
        u = sphere_normalize(random_state(grid15, seed=6), grid15)
        again = sphere_normalize(u, grid15)
        assert np.max(np.abs(again.u1.values - u.u1.values)) < 1e-14

    def test_degenerate(self, grid15):
        with pytest.raises(DegenerateInput):
            sphere_normalize(
                StatePair(zero_field(grid15), zero_field(grid15)), grid15
            )


class TestUniquenessScan:
    def test_exactly_one_critical_cell(self, grid15, example1, competitive_params):
        found = 0
        seed = 0
        while found < 10:
            u = segregated_random_state(grid15, seed=seed)
            seed += 1
            ev = FiberEvaluator(Energy.pair(competitive_params, example1, example1),
                                CellSample(u.stacked(), grid15))
            m1, m2 = ev.membership_values()
            if m1 <= 0 or m2 <= 0:
                continue
            found += 1
            assert critical_cell_count(
                u, competitive_params, example1, example1, grid15
            ) == 1

    def test_maximality_over_scan(self, grid15, example1, competitive_params):
        u = bump_state(grid15)
        res = project_to_nehari(u, competitive_params, example1, example1, grid15)
        ev = FiberEvaluator(Energy.pair(competitive_params, example1, example1),
                            CellSample(u.stacked(), grid15))
        taus = np.logspace(-3, 3, 64)
        H = ev.value(taus[:, None], taus[None, :])
        h_star = fiber_value(u, res.t, competitive_params, example1, example1, grid15)
        assert h_star >= np.max(H) - 1e-9 * (abs(h_star) + 1.0)
