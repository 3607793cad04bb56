import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import diags_array

import nehari2d.energy as E
import nehari2d.grid as G
import nehari2d.solvers as S
from nehari2d import (
    GridSpec,
    ProblemParams,
    ScalarField,
    SolverOptions,
    StatePair,
    beta_sweep,
    build_grid,
    euler_gradient,
    refine_solution,
    scalar_ground_state,
    solve_system,
)
from nehari2d.coeffs import tabulated_family
from nehari2d.energy import CellSample, Energy
from nehari2d.errors import (
    DegenerateInput,
    InadmissibleLambda,
    NoConvergence,
)
from nehari2d.solvers import (
    _POLISH_MAX_ITER,
    _STAGNATION_WINDOW,
    REGIME_DECOUPLED,
    ScalarReport,
    conservative_mu1,
    diagonal_candidate,
    nehari_floors_hold,
    scalar_levels,
)
from nehari2d.fiber import h1_normalize
from oracles import semilinear_ground_level

from conftest import StopSolve, capture_first_descent, zero_field


@pytest.fixture(scope="module")
def fast_opts():
    return SolverOptions(tol=1e-8, n_restarts=1, max_iter=1500, seed=0)


@pytest.fixture(scope="module")
def scalar15(fast_opts, identity):
    grid = build_grid(GridSpec(15, 15, 1.0, 1.0))
    params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
    z, L, rep = scalar_ground_state(1, params, identity, grid, fast_opts)
    return grid, params, z, L, rep


class TestScalarGroundState:
    def test_level_positive_and_converged(self, scalar15):
        _grid, _params, _z, L, rep = scalar15
        assert L > 0.0
        assert rep.euler_residual_norm <= 1e-8
        assert rep.converged

    def test_energy_lower_bound(self, scalar15, identity):
        # L >= ((p-2-gamma)/(2p) nu - (p-2) lam / (2 p mu1)) * |grad z|^2
        grid, params, z, L, _rep = scalar15
        mu1 = conservative_mu1(grid)
        gradsq = G.integrate(G.grad_sq(z, grid), grid)
        p, gam, lam, nu = params.p, params.gamma, params.lambda1, identity.nu
        bound = ((p - 2 - gam) / (2 * p) * nu - (p - 2) * lam / (2 * p * mu1)) * gradsq
        assert L >= bound - 1e-10
        assert bound > 0.0

    def test_nonnegative_output(self, scalar15):
        _grid, _params, z, _L, _rep = scalar15
        assert np.min(z.values) >= -1e-8 * np.max(z.values)

    def test_matches_independent_flow_oracle(self, grid31, identity, fast_opts):
        params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        _z, L, _rep = scalar_ground_state(1, params, identity, grid31, fast_opts)
        L_oracle, _ = semilinear_ground_level(31, p=4.0)
        assert abs(L - L_oracle) / L_oracle < 0.01  # independent discretizations

    def test_level_converges_second_order(self, identity, fast_opts):
        params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        levels = []
        for n in (15, 31, 63):
            grid = build_grid(GridSpec(n, n, 1.0, 1.0))
            _z, L, _rep = scalar_ground_state(1, params, identity, grid, fast_opts)
            levels.append(L)
        # Richardson: successive increments shrink by ~4 under halving h
        d1 = levels[0] - levels[1]
        d2 = levels[1] - levels[2]
        assert d1 > 0 and d2 > 0  # converges from above
        assert math.log2(d1 / d2) >= 1.9

    def test_inadmissible_lambda_raises(self, grid15, identity, fast_opts):
        mu1 = conservative_mu1(grid15)
        params = ProblemParams(1.5 * mu1, 0.0, 0.0, 4.0, 1.0)
        with pytest.raises(InadmissibleLambda):
            scalar_ground_state(1, params, identity, grid15, fast_opts)

    def test_weak_admissible_warns(self, grid15, identity, fast_opts):
        mu1 = conservative_mu1(grid15)
        # strong threshold is mu1/2 here; pick lambda between the two
        params = ProblemParams(0.75 * mu1, 0.0, 0.0, 4.0, 1.0)
        _z, L, rep = scalar_ground_state(1, params, identity, grid15, fast_opts)
        assert rep.admissibility == "admissible_weak"
        assert any("weak" in w for w in rep.warnings)

    def test_raising_start_is_rejected(self, monkeypatch, scalar15, identity,
                                       fast_opts):
        # the bump start raises; the random start alone gives the level
        grid, params, _z, L, _rep = scalar15
        real = S._descend
        calls = []

        def first_raises(*args):
            calls.append(1)
            if len(calls) == 1:
                raise NoConvergence("stub failure")
            return real(*args)

        monkeypatch.setattr(S, "_descend", first_raises)
        _z, L_rej, rep = scalar_ground_state(1, params, identity, grid, fast_opts)
        assert len(calls) == 2
        assert "start rejected: stub failure" in rep.warnings
        assert L_rej == pytest.approx(L, rel=1e-10)

    def test_scalar_residual_is_nehari_zero(self, scalar15, identity):
        # converged scalar state pairs to ~zero against itself
        grid, params, z, _L, _rep = scalar15
        from nehari2d import nehari_residual

        u = StatePair(z, zero_field(grid))
        r = nehari_residual(u, params, identity, identity, grid)
        assert abs(r.r1) <= 1e-7
        assert r.r2 == 0.0


def stub_scalar_solves(monkeypatch):
    """Replace scalar_ground_state by a stub that warns `note i`; returns the
    list of its calls."""
    calls = []

    def fake(i, params, fam, grid, opts=None, nonlin_coeff=1.0):
        calls.append(i)
        z = ScalarField(np.full(grid.shape, float(i)), grid.spec)
        return z, float(i), ScalarReport(
            float(i), 0.0, 1, True, "admissible", (f"note {i}",)
        )

    monkeypatch.setattr(S, "scalar_ground_state", fake)
    return calls


class TestDescentDriver:
    """The one Armijo driver on 7x7 toys: E(x) = |x - x*|^2 / 2, and a
    Rayleigh quotient on the gradient sphere for the conjugate rule."""

    @staticmethod
    def problem(grid, shrink=1.0, calls=None):
        target = np.linspace(0.1, 1.0, grid.spec.n_nodes).reshape(grid.shape)
        calls = {} if calls is None else calls

        def energy(x):
            return 0.5 * float(np.sum((x - target) ** 2))

        def gradient(x):
            calls["gradient"] = calls.get("gradient", 0) + 1
            g = x - target
            return g, float(np.linalg.norm(g))

        def direction(x, g, memo):
            d = -shrink * g
            return d, float(np.sum(g * d)), None

        def retract(x, d, a):
            calls["retract"] = calls.get("retract", 0) + 1
            y = x + a * d
            return y, energy(y)

        x0 = np.zeros(grid.shape)
        return x0, energy(x0), gradient, direction, retract, target

    def test_residual_stop(self, grid7):
        opts = SolverOptions(tol=1e-8)
        x0, e0, gradient, direction, retract, target = self.problem(grid7)
        stop = 1e2 * opts.tol
        x, e, res, its = S._descend(
            x0, e0, gradient, direction, retract, opts, stop
        )
        # the full step lands on x*, and the next gradient stops the descent
        assert its == 2
        assert res <= stop
        assert np.array_equal(x, target) and e == 0.0

    def test_handoff_stop(self, grid7):
        # a stop above 1e2 * tol ends the descent at the first residual below it
        opts = SolverOptions(tol=1e-8)
        x0, e0, gradient, direction, retract, _t = self.problem(grid7, shrink=1e-4)
        seen = []

        def recorded(x):
            g, res = gradient(x)
            seen.append(res)
            return g, res

        x, e, res, its = S._descend(
            x0, e0, recorded, direction, retract, opts, 1e-2
        )
        assert its == len(seen) > 2
        assert seen[-1] == res <= 1e-2 < min(seen[:-1])
        assert res > 1e2 * opts.tol

    def test_max_iter_reached(self, grid7):
        opts = SolverOptions(tol=1e-8, max_iter=3)
        calls = {}
        x0, e0, gradient, direction, retract, _t = self.problem(
            grid7, shrink=1e-3, calls=calls
        )
        accepted = []
        x, e, res, its = S._descend(
            x0, e0, gradient, direction, retract, opts, 1e2 * opts.tol,
            check=lambda x, e: accepted.append(e),
        )
        assert its == opts.max_iter == calls["gradient"]
        assert res > 1e2 * opts.tol
        assert len(accepted) == 3 and accepted[-1] == e < e0

    def test_zero_max_iter_returns_start(self, grid7):
        calls = {}
        x0, e0, gradient, direction, retract, _t = self.problem(grid7, calls=calls)
        opts = SolverOptions(max_iter=0)
        x, e, res, its = S._descend(
            x0, e0, gradient, direction, retract, opts, 1e2 * opts.tol
        )
        assert x is x0 and e == e0 and res == math.inf and its == 0
        assert calls == {}

    def test_stagnation_stop(self, grid7):
        opts = SolverOptions(tol=1e-8)
        calls = {}
        x0, e0, gradient, _d, _r, _t = self.problem(grid7, calls=calls)

        def flat_direction(x, g, memo):
            return -g, 0.0, None

        def flat_retract(x, d, a):
            calls["retract"] = calls.get("retract", 0) + 1
            return x, e0

        x, e, res, its = S._descend(
            x0, e0, gradient, flat_direction, flat_retract, opts, 1e2 * opts.tol
        )
        assert calls["retract"] == its <= _STAGNATION_WINDOW + 1
        assert its < opts.max_iter and e == e0

    def test_rejecting_retraction_ends_after_50_halvings(self, grid7):
        opts = SolverOptions(tol=1e-8)
        x0, e0, gradient, direction, _r, _t = self.problem(grid7)
        steps = []

        def rejects(x, d, a):
            steps.append(a)
            raise DegenerateInput("rejected")

        accepted = []
        x, e, res, its = S._descend(
            x0, e0, gradient, direction, rejects, opts, 1e2 * opts.tol,
            check=lambda x, e: accepted.append(e),
        )
        assert len(steps) == 50 and steps[-1] == 0.5**49
        assert x is x0 and e == e0 and its == 1 and accepted == []

    @staticmethod
    def sphere_problem(grid):
        """Rayleigh quotient of the ill-conditioned form int (1 + 100xy) v^2
        over the gradient norm, on the unit gradient sphere: like the
        reduced energies, it is invariant under scaling v."""
        X, Y = grid.node_mesh()
        w = 1.0 + 100.0 * X * Y

        def energy(v):
            vg = G.cell_gradients(v, grid)
            return 0.5 * float(np.sum(w * v * v)) / float(np.sum(vg[0]**2 + vg[1]**2))

        def gradient(v):
            vg = G.cell_gradients(v, grid)
            g = w * v - 2.0 * energy(v) * G.scatter_cells(grid, None, *vg)
            return g, S._vol_norm(g, grid)

        def retract(v, d, a):
            y = h1_normalize(v + a * d, grid)
            return y, energy(y)

        def rule(v, g, memo):
            return S._conjugate_lift(g, CellSample(v, grid), [1.0], grid, memo)

        v0 = h1_normalize(np.ones((1, *grid.shape)), grid)
        return v0, energy(v0), gradient, rule, retract

    def test_conjugate_rule_beats_plain_lift(self, grid7):
        opts = SolverOptions(tol=1e-8)
        v0, e0, gradient, rule, retract = self.sphere_problem(grid7)

        def plain(v, gs, memo):
            return rule(v, gs, None)

        runs = [
            S._descend(v0, e0, gradient, d, retract, opts, 1e-4)
            for d in (rule, plain)
        ]
        (_x, e_cg, res_cg, its_cg), (_y, e_sd, res_sd, its_sd) = runs
        assert res_cg <= 1e-4 and res_sd <= 1e-4
        assert e_cg == pytest.approx(e_sd, rel=1e-6)
        # 89 against 648 iterations when written
        assert 4 * its_cg < its_sd

    def test_non_descent_conjugate_direction_restarts(self, grid7):
        v0, _e, gradient, rule, _r = self.sphere_problem(grid7)
        g, _res = gradient(v0)
        d, slope, memo = rule(v0, g, None)
        _pg, gpg, _d = memo
        assert slope == -gpg < 0.0
        # beta_PR = beta_FR = 2 on the old direction +pg: d = -pg + 2 pg
        # climbs, so the rule restarts from -pg
        ascent = (np.zeros_like(v0), 0.5 * gpg, -d)
        d2, slope2, memo2 = rule(v0, g, ascent)
        assert np.array_equal(d2, d) and slope2 == slope
        assert np.array_equal(memo2[2], d)

    def test_every_descent_starts_without_memory(self, monkeypatch, grid7,
                                                 identity, params_p4):
        # one scalar start whose first polish fails its guard, so the
        # descent resumes
        opts = SolverOptions(n_restarts=0)
        memos = []
        entered_at = []
        descent_its = []
        polished_at = []
        real_rule, real_descend = S._conjugate_lift, S._descend
        real_polish = S._newton_krylov_polish

        def recorded(g, sample, t, grid, memo):
            memos.append(memo)
            return real_rule(g, sample, t, grid, memo)

        def descend(*args):
            entered_at.append(len(memos))
            out = real_descend(*args)
            descent_its.append(out[3])
            return out

        def polish(x0, energy, grid, *args):
            polished_at.append(len(memos))
            if len(polished_at) == 1:
                return CellSample(x0.copy(), grid), 1.0, False, 0
            return real_polish(x0, energy, grid, *args)

        monkeypatch.setattr(S, "_conjugate_lift", recorded)
        monkeypatch.setattr(S, "_descend", descend)
        monkeypatch.setattr(S, "_newton_krylov_polish", polish)
        _z, _L, rep = scalar_ground_state(1, params_p4, identity, grid7, opts)
        (note,) = rep.warnings
        assert note.endswith("descent resumed") and len(polished_at) == 2
        assert len(memos) == sum(descent_its) - 2
        fresh = [k for k, memo in enumerate(memos) if memo is None]
        assert fresh == [0, polished_at[0]] == entered_at


def count_stencils(monkeypatch):
    """Count cell samplings by every module, a (k, nx, ny) stack as k."""
    import nehari2d.energy as E
    import nehari2d.fiber as F

    counts = {"values": 0, "gradients": 0}
    for name, key in (("cell_values", "values"), ("cell_gradients", "gradients")):
        stencil = getattr(G, name)

        def counted(x, grid, stencil=stencil, key=key):
            counts[key] += int(np.prod(np.shape(x)[:-2]))
            return stencil(x, grid)

        for module in (G, E, F, S):
            if getattr(module, name, None) is stencil:
                monkeypatch.setattr(module, name, counted)
    return counts


class TestOneSamplePerState:
    def test_sphere_product_trial(self, monkeypatch, grid15, example1):
        # the descent's own callbacks, taken from one competitive start
        captured = capture_first_descent(monkeypatch, S)
        params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
        with pytest.raises(StopSolve):
            S._pair_starts([np.stack(S.segregated_pair(grid15))], params,
                           example1, example1, grid15, SolverOptions(), True, [])
        x = captured["x"]
        g, _res = captured["gradient"](x)
        d, _slope, _memo = captured["direction"](x, g, None)

        counts = count_stencils(monkeypatch)
        # normalization samples gradients, project_to_nehari samples the
        # normalized pair once, and its energy comes from the fiber map
        x_try, e_try = captured["retract"](x, d, 0.01)
        assert counts == {"values": 2, "gradients": 4}
        # the accepted state's checks and gradient read the same sample
        captured["check"](x_try, e_try)
        captured["gradient"](x_try)
        assert counts == {"values": 2, "gradients": 4}
        energy = S.Energy.pair(params, example1, example1)
        assert e_try == pytest.approx(energy.value(x_try[2]), rel=1e-14)

    def test_scalar_polish(self, monkeypatch, grid15, example1, params_p4):
        # the start and every accepted trial are sampled once, and the
        # gradient, energy and Hessian of an iterate read that sample
        counts = count_stencils(monkeypatch)
        real = S._newton_krylov_polish
        polishes = []

        def polish(*args):
            before = dict(counts)
            out = real(*args)
            polishes.append((out[3], *(counts[k] - before[k] for k in counts)))
            return out

        monkeypatch.setattr(S, "_newton_krylov_polish", polish)
        opts = SolverOptions(n_restarts=0)
        scalar_ground_state(1, params_p4, example1, grid15, opts)
        # two Newton steps, each accepting its full step
        assert polishes == [(2, 3, 3)]


class TestZeroMaxIter:
    """solver.max_iter = 0 skips the descent and goes straight to the polish."""

    def test_polish_runs_from_the_start(self, grid7, identity, params_p4):
        # from the bump start the polish alone does not reach tol here
        opts = SolverOptions(max_iter=0, n_restarts=0)
        with pytest.raises(NoConvergence) as err:
            scalar_ground_state(1, params_p4, identity, grid7, opts)
        assert err.value.iterations == _POLISH_MAX_ITER

    def test_polish_alone_can_converge(self, grid7, example1):
        lam = -conservative_mu1(grid7)
        params = ProblemParams(lam, lam, 0.0, 6.0, 1.0)
        opts = SolverOptions(max_iter=0, n_restarts=0)
        _z0, L0, rep0 = scalar_ground_state(1, params, example1, grid7, opts)
        _z, L, _rep = scalar_ground_state(1, params, example1, grid7)
        assert rep0.converged and rep0.iterations <= 5
        assert L0 == pytest.approx(L, rel=1e-10)


class TestNewtonHandoff:
    """The descent hands off to Newton at residual 1e-2, behind a guard."""

    def test_failed_handoff_resumes_descent(self, monkeypatch, grid7, identity,
                                            params_p4):
        opts = SolverOptions(n_restarts=0)
        _z, L, rep = scalar_ground_state(1, params_p4, identity, grid7, opts)
        assert rep.warnings == ()
        real = S._newton_krylov_polish
        starts = []

        def fails_first(x0, energy, grid, *args):
            starts.append(x0)
            if len(starts) == 1:
                return CellSample(x0.copy(), grid), 1.0, False, 0
            return real(x0, energy, grid, *args)

        monkeypatch.setattr(S, "_newton_krylov_polish", fails_first)
        _z, L_fb, rep_fb = scalar_ground_state(1, params_p4, identity, grid7, opts)

        def residual(x):
            energy = Energy.scalar(params_p4, 0.0, identity)
            return S._vol_norm(energy.gradient(CellSample(x, grid7)), grid7)

        # handed off at residual <= 1e-2, polished again after more descent
        assert len(starts) == 2
        assert 1e2 * opts.tol < residual(starts[0]) <= 1e-2
        assert residual(starts[1]) < residual(starts[0])
        assert rep_fb.iterations > rep.iterations
        (note,) = rep_fb.warnings
        assert note.startswith("start 0: Newton handoff at res ")
        assert note.endswith("(polish stopped at res 1.00e+00); descent resumed")
        assert L_fb == pytest.approx(L, rel=1e-10)

    def test_semitrivial_handoff_rejected(self, monkeypatch, grid15, example1):
        # one start, so without the guard the semi-trivial pair would win
        opts = SolverOptions(n_restarts=0)
        params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
        scalars = scalar_levels(params, example1, example1, grid15, opts)
        _u, rep = solve_system(
            params, example1, example1, grid15, opts, scalar_data=scalars
        )
        real = S.refine_solution
        calls = []

        def semitrivial_first(u, *args):
            calls.append(u)
            if len(calls) == 1:
                return StatePair(u.u1, zero_field(grid15)), 0.0, True
            return real(u, *args)

        monkeypatch.setattr(S, "refine_solution", semitrivial_first)
        _u, rep_g = solve_system(
            params, example1, example1, grid15, opts, scalar_data=scalars
        )
        assert len(calls) == 2 and rep_g.fully_nontrivial
        (note,) = rep_g.warnings
        assert note.startswith("start 0: Newton handoff at res ")
        assert note.endswith("(semi-trivial state); descent resumed")
        assert rep_g.energy == pytest.approx(rep.energy, rel=1e-10)

    def test_finishing_target_is_best_effort(self, grid7):
        # |g| has a floor between 1e-2 * tol and tol that no step can pass
        opts = SolverOptions(tol=1e-8)
        shape = (1, *grid7.shape)
        n = grid7.spec.n_nodes
        free = (np.arange(n) % 2 == 0).reshape(shape)
        target = np.linspace(0.1, 1.0, n).reshape(shape)
        floor = np.where(free, 0.0, 1.0)
        floor *= 1e-9 / (np.linalg.norm(floor) * math.sqrt(grid7.cell_area))

        class Quadratic:
            def gradient(self, sample):
                return np.where(free, sample.x - target, 0.0) + floor

            def value(self, sample):
                return 0.0

            def hessian(self, sample):
                return diags_array(free.ravel().astype(float))

        _sample, res, converged, its = S._newton_krylov_polish(
            np.zeros(shape), Quadratic(), grid7, opts
        )
        assert converged
        assert 1e-2 * opts.tol < res <= opts.tol
        assert its < _POLISH_MAX_ITER

    def test_hessian_products_do_not_scatter(self, monkeypatch, grid15, example1,
                                             params_p4):
        # the Hessian is assembled once per Newton step: MINRES iterations
        # multiply by a matrix and scatter nothing back through the cells
        opts = SolverOptions(n_restarts=0)
        z, _L, _rep = scalar_ground_state(1, params_p4, example1, grid15, opts)
        rng = np.random.default_rng(0)
        x0 = (z.values * (1.0 + 1e-3 * rng.standard_normal(grid15.shape)))[None]
        energy = Energy.scalar(params_p4, 0.0, example1)
        counts = {"scatter": 0, "gradient": 0, "minres": 0}
        real_scatter, real_minres = E.scatter_cells, S.minres

        def scatter(*args):
            counts["scatter"] += 1
            return real_scatter(*args)

        def minres(*args, **kwargs):
            def callback(_xk):
                counts["minres"] += 1

            return real_minres(*args, callback=callback, **kwargs)

        def gradient(sample):
            counts["gradient"] += 1
            return energy.gradient(sample)

        monkeypatch.setattr(E, "scatter_cells", scatter)
        monkeypatch.setattr(S, "minres", minres)
        _sample, _res, converged, its = S._newton_krylov_polish(
            x0, energy, grid15, opts, gradient
        )
        assert converged and its >= 2
        assert counts["scatter"] == counts["gradient"]
        assert counts["minres"] > 2 * counts["scatter"]


class TestAcceptanceRule:
    """One rule decides at the handoff and at the final pick, for every
    solver: the polish reaches tol at a state with no trivial component."""

    def test_semitrivial_competitive_state_is_refused(self, monkeypatch, grid15,
                                                      example1):
        opts = SolverOptions(n_restarts=0)
        params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
        scalars = scalar_levels(params, example1, example1, grid15, opts)
        calls = []

        def semitrivial(u, *args):
            calls.append(u)
            return StatePair(u.u1, zero_field(grid15)), 0.0, True

        monkeypatch.setattr(S, "refine_solution", semitrivial)
        with pytest.raises(NoConvergence, match="fully nontrivial"):
            solve_system(
                params, example1, example1, grid15, opts, scalar_data=scalars
            )
        # the handoff guard refused the first polish too
        assert len(calls) == 2

    def test_semitrivial_cooperative_state_is_refused(self, monkeypatch, grid15,
                                                      identity):
        opts = SolverOptions(n_restarts=0)
        params = ProblemParams(0.0, 0.0, 5.0, 4.0, 1.0)
        scalars = scalar_levels(params, identity, identity, grid15, opts)
        calls = []

        def semitrivial(u, *args):
            calls.append(u)
            return StatePair(u.u1, zero_field(grid15)), 0.0, True

        monkeypatch.setattr(S, "refine_solution", semitrivial)
        with pytest.raises(NoConvergence, match="no cooperative start reached a "
                                                "fully nontrivial state at tol"):
            solve_system(
                params, identity, identity, grid15, opts, scalar_data=scalars
            )
        # the diagonal and the near-semitrivial start were both polished
        assert len(calls) >= 2
        (row,) = beta_sweep([5.0], params, identity, identity, grid15, opts)
        assert row.status == "error" and row.report is None
        assert "no cooperative start" in row.error

    def test_collapsed_scalar_state_is_refused(self, monkeypatch, grid7, identity,
                                               params_p4):
        opts = SolverOptions(n_restarts=0)

        def collapses(x0, energy, grid, *args):
            return CellSample(np.zeros_like(x0), grid), 0.0, True, 0

        monkeypatch.setattr(S, "_newton_krylov_polish", collapses)
        with pytest.raises(NoConvergence, match="nontrivial"):
            scalar_ground_state(1, params_p4, identity, grid7, opts)


class TestScalarLevels:
    def test_symmetric_data_solved_once(self, monkeypatch, grid15, example1,
                                        fast_opts):
        calls = stub_scalar_solves(monkeypatch)
        params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
        z1, z2, L1, L2 = scalar_levels(params, example1, example1, grid15, fast_opts)
        assert calls == [1]
        assert z2 is z1 and L2 == L1

    def test_asymmetric_data_solved_twice(self, monkeypatch, grid15, identity,
                                          example1, fast_opts):
        calls = stub_scalar_solves(monkeypatch)
        params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
        z1, z2, L1, L2 = scalar_levels(params, identity, example1, grid15, fast_opts)
        assert calls == [1, 2]
        assert (L1, L2) == (1.0, 2.0)

    def test_tabulated_profiles_compared_by_identity(self, monkeypatch, grid15,
                                                     fast_opts):
        def a1(s):
            return np.ones_like(s)

        def a2(s):
            return 1.0 + 0.5 * s * s / (1.0 + s * s)

        def da1(s):
            return np.zeros_like(s)

        def da2(s):
            return s / (1.0 + s * s) ** 2

        fam1 = tabulated_family(a1, da1, nu=1.0, c0=2.0, gamma=1.0)
        fam2 = tabulated_family(a2, da2, nu=1.0, c0=2.0, gamma=1.0)
        params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
        calls = stub_scalar_solves(monkeypatch)
        scalar_levels(params, fam1, fam2, grid15, fast_opts)
        assert calls == [1, 2]
        calls.clear()
        scalar_levels(params, fam1, fam1, grid15, fast_opts)
        assert calls == [1]

    def test_scalar_warnings_reach_system_reports(self, monkeypatch, grid15,
                                                  identity, example1, fast_opts):
        stub_scalar_solves(monkeypatch)
        notes = ("scalar problem 1: note 1", "scalar problem 2: note 2")
        params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        _u, rep = solve_system(params, identity, example1, grid15, fast_opts)
        assert rep.warnings[:2] == notes
        (row,) = beta_sweep([0.0], params, identity, example1, grid15, fast_opts)
        assert row.report.warnings[:2] == notes
        warnings = []
        diagonal_candidate(
            replace(params, beta=1.0), identity, grid15, fast_opts, warnings
        )
        assert warnings == ["diagonal scalar problem: note 1"]


class TestRefineSolution:
    def test_zero_state_fixed(self, grid15, identity, params_p4, fast_opts):
        u = StatePair(zero_field(grid15), zero_field(grid15))
        out, res, converged = refine_solution(
            u, params_p4, identity, identity, grid15, fast_opts
        )
        assert res == 0.0 and converged
        assert np.all(out.u1.values == 0.0)

    def test_polishes_decoupled_pair(self, scalar15, identity, fast_opts):
        grid, params, z, _L, _rep = scalar15
        u = StatePair(z, z)
        out, res, converged = refine_solution(
            u, params, identity, identity, grid, fast_opts
        )
        assert converged and res < 1e-10

    def test_residual_never_increases(self, scalar15, identity, fast_opts):
        grid, params, z, _L, _rep = scalar15
        rng = np.random.default_rng(5)
        u = StatePair(
            ScalarField(z.values * (1 + 0.01 * rng.standard_normal(grid.shape)),
                        grid.spec),
            ScalarField(z.values * (1 + 0.01 * rng.standard_normal(grid.shape)),
                        grid.spec),
        )
        g0 = euler_gradient(u, params, identity, identity, grid)
        res0 = math.sqrt(
            grid.cell_area
            * (np.sum(g0.u1.values**2) + np.sum(g0.u2.values**2))
        )
        _out, res, _conv = refine_solution(u, params, identity, identity, grid,
                                           fast_opts)
        assert res <= res0


@pytest.fixture(scope="module")
def solved(grid31, example1, fast_opts):
    params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
    u, rep = solve_system(params, example1, example1, grid31, fast_opts)
    return params, u, rep


class TestCompetitive:
    def test_flags_and_residuals(self, solved):
        _params, _u, rep = solved
        assert rep.fully_nontrivial
        assert rep.nonnegative
        assert rep.regime == "competitive"
        assert rep.nehari_residual.max_abs <= 1e-8
        assert rep.euler_residual_norm <= 1e-8

    def test_floors_hold(self, solved, grid31, example1):
        params, u, _rep = solved
        mu1 = conservative_mu1(grid31)
        sample = CellSample(u.stacked(), grid31)
        assert nehari_floors_hold(sample, params, example1.nu, mu1)

    def test_coercivity_bound_at_output(self, solved, grid31, example1):
        params, u, rep = solved
        mu1 = conservative_mu1(grid31)
        p, gam = params.p, params.gamma
        ints = [
            G.integrate(G.grad_sq(c, grid31), grid31) for c in (u.u1, u.u2)
        ]
        bound = (p - 2 - gam) / (2 * p) * example1.nu * sum(ints)
        assert rep.energy >= bound - 1e-8 * (1 + abs(rep.energy))

    def test_energy_between_bounds(self, solved):
        # repulsive coupling costs energy: above the decoupled sum
        _params, _u, rep = solved
        assert rep.energy > rep.L1 + rep.L2

    def test_output_is_spectrally_smooth(self, solved):
        # the midpoint quadrature barely sees cell-frequency wiggles, so a
        # sound solver output must not carry them
        from scipy.fft import dstn

        _params, u, _rep = solved
        for comp in (u.u1.values, u.u2.values):
            coef = np.abs(dstn(comp, type=1))
            n = comp.shape[0]
            high = coef[3 * n // 4 :, 3 * n // 4 :].max()
            assert high <= 1e-5 * coef.max()

    def test_beta_above_minus_one_warns(self, grid15, identity, fast_opts):
        params = ProblemParams(0.0, 0.0, -0.5, 4.0, 1.0)
        _u, rep = solve_system(params, identity, identity, grid15, fast_opts)
        assert any("projectability" in w for w in rep.warnings)

    def test_beta_to_zero_consistency(self, grid15, identity, fast_opts):
        # e_beta -> L1 + L2 as the repulsion vanishes; for weak repulsion
        # the synchronized pair is least, with the exact envelope
        # e_beta = (L1 + L2) / (1 + beta)^(2/(p-2)), so the relative gap
        # is |beta|/(1+beta) + o(beta)
        scalars = scalar_levels(
            ProblemParams(0.0, 0.0, -0.5, 4.0, 1.0), identity, identity, grid15,
            fast_opts,
        )
        L_sum = scalars[2] + scalars[3]
        gaps = []
        for beta in (-0.5, -0.1, -0.01):
            params = ProblemParams(0.0, 0.0, beta, 4.0, 1.0)
            _u, rep = solve_system(
                params, identity, identity, grid15, fast_opts, scalar_data=scalars
            )
            # never worse than the synchronized candidate (which for weak
            # repulsion is the exact envelope; stronger repulsion favors
            # partial segregation below it)
            envelope = L_sum / (1.0 + beta)
            assert rep.energy <= envelope * (1.0 + 2e-3)
            assert rep.fully_nontrivial
            gaps.append(abs(rep.energy - L_sum) / L_sum)
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 0.011


class TestCooperative:
    def test_beats_scalar_levels(self, grid15, identity, fast_opts):
        params = ProblemParams(0.0, 0.0, 10.0, 4.0, 1.0)
        u, rep = solve_system(params, identity, identity, grid15, fast_opts)
        assert rep.fully_nontrivial and rep.nonnegative
        assert rep.energy < min(rep.L1, rep.L2)
        assert rep.euler_residual_norm <= 1e-8

    def test_diagonal_candidate_exact_solution(self, grid15, identity, fast_opts):
        params = ProblemParams(0.0, 0.0, 5.0, 4.0, 1.0)
        pair, pp = diagonal_candidate(params, identity, grid15, fast_opts)
        g = euler_gradient(pair, params, identity, identity, grid15)
        res = math.sqrt(
            grid15.cell_area
            * (np.sum(g.u1.values**2) + np.sum(g.u2.values**2))
        )
        assert res <= 1e-6
        assert pp > 0.0

    def test_diagonal_mass_decays(self, grid15, identity, fast_opts):
        # int |w_beta|^p decreasing in beta, log-log slope <= -0.9
        betas = [5.0, 10.0, 20.0, 40.0]
        masses = []
        for beta in betas:
            params = ProblemParams(0.0, 0.0, beta, 4.0, 1.0)
            _pair, pp = diagonal_candidate(params, identity, grid15, fast_opts)
            masses.append(pp)
        assert all(b < a for a, b in zip(masses, masses[1:]))
        slope = np.polyfit(np.log(betas), np.log(masses), 1)[0]
        assert slope <= -0.9


class TestSemiTrivialGuard:
    def test_near_semitrivial_not_declared_nontrivial(self, scalar15, identity,
                                                      fast_opts):
        grid, params, z, L, _rep = scalar15
        faint = ScalarField(1e-9 * z.values, grid.spec)
        _u, rep = solve_system(
            params, identity, identity, grid, fast_opts, scalar_data=(z, faint, L, L)
        )
        assert not rep.fully_nontrivial


class TestCoercivityGuard:
    def test_violation_aborts_with_diagnostics(self, grid15, identity):
        from nehari2d.energy import NehariResidual
        from nehari2d.errors import CoercivityViolation
        from nehari2d.solvers import check_coercivity_bound

        params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
        rng = np.random.default_rng(0)
        u = StatePair(
            ScalarField(rng.standard_normal(grid15.shape), grid15.spec),
            ScalarField(rng.standard_normal(grid15.shape), grid15.spec),
        )
        fake_energy = -1e6  # far below any admissible constrained level
        with pytest.raises(CoercivityViolation):
            check_coercivity_bound(
                fake_energy, CellSample(u.stacked(), grid15), params, identity.nu,
                NehariResidual(0.0, 0.0),
            )


class TestDecoupledAndSweep:
    def test_beta_zero_energy_is_sum(self, grid15, identity, fast_opts):
        params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        _u, rep = solve_system(params, identity, identity, grid15, fast_opts)
        assert rep.regime == REGIME_DECOUPLED
        assert rep.energy == pytest.approx(rep.L1 + rep.L2, rel=1e-9)
        assert rep.fully_nontrivial and rep.nonnegative

    def test_sweep_single_zero_row(self, grid15, identity, fast_opts):
        params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        rows = beta_sweep([0.0], params, identity, identity, grid15, fast_opts)
        assert len(rows) == 1 and rows[0].status == "ok"
        r = rows[0].report
        assert r.energy == pytest.approx(r.L1 + r.L2, rel=1e-9)

    def test_sweep_competitive_rows(self, grid15, example1, fast_opts):
        params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
        rows = beta_sweep([-2.0, -4.0], params, example1, example1, grid15,
                          fast_opts)
        for row in rows:
            assert row.status == "ok"
            assert row.report.fully_nontrivial and row.report.nonnegative

    def test_sweep_survives_bad_beta(self, grid15, identity, fast_opts):
        params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        rows = beta_sweep(
            [0.0, float("nan")], params, identity, identity, grid15, fast_opts
        )
        assert rows[0].status == "ok"
        assert rows[1].status == "error"


    def test_sweep_records_solver_failure(self, monkeypatch, grid15, identity,
                                          fast_opts):
        stub_scalar_solves(monkeypatch)

        def fails(*args, **kwargs):
            raise NoConvergence("no start converged")

        monkeypatch.setattr(S, "solve_system", fails)
        params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        rows = beta_sweep([0.0], params, identity, identity, grid15, fast_opts)
        assert rows[0].status == "error"
        assert "no start converged" in rows[0].error

    def test_sweep_propagates_bugs(self, monkeypatch, grid15, identity, fast_opts):
        stub_scalar_solves(monkeypatch)

        def buggy(*args, **kwargs):
            raise RuntimeError("programming error")

        monkeypatch.setattr(S, "solve_system", buggy)
        params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        with pytest.raises(RuntimeError, match="programming error"):
            beta_sweep([0.0], params, identity, identity, grid15, fast_opts)


class TestDeterminismAndSymmetry:
    def test_conjugate_descent_is_clamped(self, grid15, example1, fast_opts):
        # unclamped Polak-Ribiere+ oscillates (beta near 2) and runs the
        # random start to max_iter; steepest descent took 1006 iterations
        # and the clamped rule 78 when written
        params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
        _u, rep = solve_system(params, example1, example1, grid15, fast_opts)
        assert rep.iterations < 500

    def test_repeat_run_bit_identical(self, grid15, example1, fast_opts):
        params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
        u1, rep1 = solve_system(params, example1, example1, grid15, fast_opts)
        u2, rep2 = solve_system(params, example1, example1, grid15, fast_opts)
        assert np.array_equal(u1.u1.values, u2.u1.values)
        assert np.array_equal(u1.u2.values, u2.u2.values)
        assert rep1.energy == rep2.energy

    def test_swap_equivariance_asymmetric(self, grid15, identity, example1,
                                          fast_opts):
        mu1 = conservative_mu1(grid15)
        lam = 0.05 * mu1
        params = ProblemParams(lam, 0.0, -2.0, 4.0, 1.0)
        u, rep = solve_system(params, identity, example1, grid15, fast_opts)
        u_sw, rep_sw = solve_system(
            params.swapped(), example1, identity, grid15, fast_opts
        )
        assert abs(rep.energy - rep_sw.energy) <= 1e-10 * (1 + abs(rep.energy))
        # minimizers are degenerate under the domain's reflections, so
        # compare reflection-invariant component integrals, swapped
        def integrals(state):
            out = []
            for comp in (state.u1, state.u2):
                v = G.cell_values(comp, grid15)
                out.append(
                    (
                        G.integrate(G.grad_sq(comp, grid15), grid15),
                        G.integrate(v * v, grid15),
                        G.integrate(np.abs(v) ** 4, grid15),
                    )
                )
            return out

        ints = integrals(u)
        ints_sw = integrals(u_sw)
        for a, b in zip(ints_sw, reversed(ints)):
            for x, y in zip(a, b):
                assert abs(x - y) <= 1e-9 * (1.0 + abs(y))

    @pytest.mark.parametrize("beta, level", [(5.0, 17.206402257128417),
                                             (0.5, 110.6663003289)])
    def test_swap_equivariance_cooperative(self, grid15, identity, example1,
                                           fast_opts, beta, level):
        # asymmetric data: the near-semitrivial start runs in both orders
        lam = 0.05 * conservative_mu1(grid15)
        params = ProblemParams(lam, 0.0, beta, 4.0, 1.0)
        u, rep = solve_system(params, identity, example1, grid15, fast_opts)
        u_sw, rep_sw = solve_system(
            params.swapped(), example1, identity, grid15, fast_opts
        )
        assert rep.fully_nontrivial and rep_sw.fully_nontrivial
        assert rep.energy == pytest.approx(level, rel=1e-10)
        assert rep_sw.energy == pytest.approx(rep.energy, rel=1e-12)
        assert np.max(np.abs(u.u1.values - u_sw.u2.values)) <= 1e-12
        assert np.max(np.abs(u.u2.values - u_sw.u1.values)) <= 1e-12
        # above min(L1, L2) the report says so, in both orders
        warned = [
            any("not below min(L1, L2) = 35.1423" in w for w in r.warnings)
            for r in (rep, rep_sw)
        ]
        assert warned == [beta < 1.0] * 2
