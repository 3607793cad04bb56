import math
from dataclasses import replace

import numpy as np
import pytest

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
    example_family,
    identity_family,
    refine_solution,
    scalar_ground_state,
    solve_system,
)
from nehari2d.coeffs import tabulated_family
from nehari2d.energy import CellSample, Energy
from nehari2d.errors import (
    CoercivityViolation,
    DegenerateInput,
    InadmissibleLambda,
    InvalidState,
    NoConvergence,
    ValidationError,
)
from nehari2d.solvers import (
    _POLISH_MAX_ITER,
    _STAGNATION_WINDOW,
    REGIME_DECOUPLED,
    ScalarReport,
    conservative_mu1,
    nehari_floors_hold,
    scalar_levels,
)
from nehari2d.fiber import unit_sample
from oracles import semilinear_ground_level

from conftest import (
    StopSolve,
    capture_first_descent,
    positive_state,
    quadrature_stiffness,
    segregated_random_state,
    zero_field,
)


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

    def test_energy_lower_bound(self, scalar15, identity):
        # L >= ((p-2-gamma)/(2p) nu - (p-2) lam / (2 p mu1)) * |grad z|^2
        grid, params, z, L, _rep = scalar15
        mu1 = conservative_mu1(grid)
        (gradsq,), _q, _pp = CellSample(z.values[None], grid).integrals(params.p)
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

    # the saturating example profile keeps the order: log2 of the
    # increment ratio is 2.00 for the identity and 1.93 for the example
    @pytest.mark.parametrize("fam", [identity_family(1.0), example_family(1.0)],
                             ids=["identity", "example"])
    def test_level_converges_second_order(self, fam, fast_opts):
        params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        levels = []
        for n in (15, 31, 63):
            grid = build_grid(GridSpec(n, n, 1.0, 1.0))
            _z, L, _rep = scalar_ground_state(1, params, fam, grid, fast_opts)
            levels.append(L)
        # Richardson: successive increments shrink by ~4 under halving h
        d1 = levels[0] - levels[1]
        d2 = levels[1] - levels[2]
        assert d1 > 0 and d2 > 0  # converges from above
        assert math.log2(d1 / d2) >= 1.9

    def test_competitive_level_converges_second_order(self, fast_opts):
        # the repulsive least-energy level (example profiles, beta = -2):
        # 439.62, 419.04 and 413.67, log2 of the increment ratio 1.94
        fam = example_family(1.0)
        params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
        levels = []
        for n in (15, 31, 63):
            grid = build_grid(GridSpec(n, n, 1.0, 1.0))
            _u, rep = solve_system(params, fam, fam, grid, fast_opts)
            assert rep.fully_nontrivial
            levels.append(rep.energy)
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

    @staticmethod
    def first_raises(monkeypatch, name, error):
        """Make the first call of `S.<name>` raise error("stub failure");
        returns the list of its calls."""
        real = getattr(S, name)
        calls = []

        def stub(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise error("stub failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(S, name, stub)
        return calls

    @pytest.mark.parametrize(
        "error",
        [DegenerateInput, InvalidState, CoercivityViolation],
        ids=lambda error: error.__name__,
    )
    def test_raising_start_is_rejected(self, monkeypatch, scalar15, identity,
                                       fast_opts, error):
        grid, params, _z, L, _rep = scalar15
        if error is CoercivityViolation:
            # evidence against the hypotheses, not one start's failure: the
            # solve aborts
            calls = self.first_raises(monkeypatch, "_descend", error)
            with pytest.raises(CoercivityViolation, match="stub failure"):
                scalar_ground_state(1, params, identity, grid, fast_opts)
            assert len(calls) == 1
            return
        # the bump start's rescale raises; the random start alone gives the
        # level
        calls = self.first_raises(monkeypatch, "scalar_fiber_root", error)
        _z, L_rej, rep = scalar_ground_state(1, params, identity, grid, fast_opts)
        assert len(calls) > 2
        assert "start 0 rejected: stub failure" in rep.warnings
        assert L_rej == pytest.approx(L, rel=1e-10)

    def test_raising_polish_aborts(self, monkeypatch, scalar15, identity,
                                   fast_opts):
        # only a rescale rejects a start: an error of the polish propagates,
        # although the random start alone would give the level
        grid, params, _z, _L, _rep = scalar15
        calls = self.first_raises(monkeypatch, "_newton_krylov_polish",
                                  InvalidState)
        with pytest.raises(InvalidState, match="stub failure"):
            scalar_ground_state(1, params, identity, grid, fast_opts)
        assert len(calls) == 1

    def test_scalar_residual_is_nehari_zero(self, scalar15, identity):
        # converged scalar state pairs to ~zero against itself
        grid, params, z, _L, _rep = scalar15
        x = np.stack((z.values, np.zeros(grid.shape)))
        r1, r2 = Energy.pair(params, identity, identity).residuals(CellSample(x, grid))
        assert abs(r1) <= 1e-7
        assert r2 == 0.0


def stub_scalar_solves(monkeypatch):
    """Replace scalar_ground_state by a stub that warns `note i`; returns the
    list of its calls."""
    calls = []

    def fake(i, params, fam, grid, opts=None):
        calls.append(i)
        z = ScalarField(np.full(grid.shape, float(i)), grid.spec)
        return z, float(i), ScalarReport(
            float(i), 0.0, 1, "admissible", (f"note {i}",)
        )

    monkeypatch.setattr(S, "scalar_ground_state", fake)
    return calls


class TestDescentDriver:
    """The one Armijo driver on 7x7 toys: E(x) = |x - x*|^2 / 2, and a
    Rayleigh quotient on the gradient sphere for the conjugate rule."""

    @staticmethod
    def problem(grid, shrink=1.0, calls=None):
        n = grid.spec.nx * grid.spec.ny
        target = np.linspace(0.1, 1.0, n).reshape(grid.shape)
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
            x0, e0, gradient, direction, retract, opts.max_iter, stop
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
            x0, e0, recorded, direction, retract, opts.max_iter, 1e-2
        )
        assert its == len(seen) > 2
        assert seen[-1] == res <= 1e-2 < min(seen[:-1])
        assert res > 1e2 * opts.tol

    def test_max_iter_reached(self, grid7):
        opts = SolverOptions(tol=1e-8, max_iter=3)
        calls = {}
        x0, e0, gradient, direction, retract, target = self.problem(
            grid7, shrink=1e-3, calls=calls
        )
        # each gradient after the first is taken at the last accepted state
        at = []

        def recorded(x):
            at.append(x)
            return gradient(x)

        x, e, res, its = S._descend(
            x0, e0, recorded, direction, retract, opts.max_iter, 1e2 * opts.tol
        )
        assert its == opts.max_iter == calls["gradient"]
        assert res > 1e2 * opts.tol
        accepted = at[1:] + [x]
        energies = [0.5 * float(np.sum((y - target) ** 2)) for y in accepted]
        assert at[0] is x0 and len(accepted) == 3
        assert e0 > energies[0] > energies[1] > energies[2] == e

    def test_zero_max_iter_returns_start(self, grid7):
        calls = {}
        x0, e0, gradient, direction, retract, _t = self.problem(grid7, calls=calls)
        opts = SolverOptions(max_iter=0)
        x, e, res, its = S._descend(
            x0, e0, gradient, direction, retract, opts.max_iter, 1e2 * opts.tol
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
            x0, e0, gradient, flat_direction, flat_retract, opts.max_iter,
            1e2 * opts.tol,
        )
        assert calls["retract"] == its <= _STAGNATION_WINDOW + 1
        assert its < opts.max_iter and e == e0

    @staticmethod
    def recorded_steps(retract, energies=()):
        """`retract` that records each step a and reports the given trial
        energies, in order, before the true ones."""
        steps = []
        energies = list(energies)

        def recorded(x, d, a):
            steps.append(a)
            y, e = retract(x, d, a)
            return y, (energies.pop(0) if energies else e)

        return steps, recorded

    def test_overshoot_backtracks_to_the_quadratic_minimizer(self, grid7):
        # d = -3 g: the trial a = 1 overshoots to E = 4 E0, and the quadratic
        # through E0, the slope -6 E0 and 4 E0 has its minimizer at a = 1/3,
        # which is x* (halving would try a = 1/2)
        opts = SolverOptions(tol=1e-8)
        x0, e0, gradient, direction, retract, target = self.problem(grid7, shrink=3.0)
        steps, recorded = self.recorded_steps(retract)
        x, e, res, its = S._descend(
            x0, e0, gradient, direction, recorded, opts.max_iter, 1e2 * opts.tol
        )
        assert steps[0] == 1.0 and steps[1] == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert its == 2 and res <= 1e2 * opts.tol
        assert np.allclose(x, target, rtol=0.0, atol=1e-14)

    def test_huge_trial_energy_clips_the_step(self, grid7):
        opts = SolverOptions(tol=1e-8)
        x0, e0, gradient, direction, retract, _t = self.problem(grid7)
        steps, recorded = self.recorded_steps(retract, [1e300])
        S._descend(x0, e0, gradient, direction, recorded, opts.max_iter, 1e2 * opts.tol)
        assert steps[:2] == [1.0, S._SHRINK_MIN] == [1.0, 0.1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_trial_energy_halves_the_step(self, grid7, bad):
        # d = -6 g: after the halving, a = 1/2 overshoots to 4 E0 and the
        # quadratic step a = 1/6 lands on x*
        opts = SolverOptions(tol=1e-8)
        x0, e0, gradient, direction, retract, _t = self.problem(grid7, shrink=6.0)
        steps, recorded = self.recorded_steps(retract, [bad])
        x, e, res, its = S._descend(
            x0, e0, gradient, direction, recorded, opts.max_iter, 1e2 * opts.tol
        )
        assert steps[:2] == [1.0, 0.5]
        assert steps[2] == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert its == 2 and res <= 1e2 * opts.tol

    def test_rejecting_retraction_ends_after_50_halvings(self, grid7):
        opts = SolverOptions(tol=1e-8)
        x0, e0, gradient, direction, _r, _t = self.problem(grid7)
        steps = []

        def rejects(x, d, a):
            steps.append(a)
            return x + a * d, math.inf

        x, e, res, its = S._descend(
            x0, e0, gradient, direction, rejects, opts.max_iter, 1e2 * opts.tol
        )
        assert len(steps) == 50 and steps[-1] == 0.5**49
        assert x is x0 and e == e0 and its == 1

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
            y = unit_sample(v + a * d, grid).x
            return y, energy(y)

        def rule(v, g, memo):
            return S._conjugate_lift(g, CellSample(v, grid), [1.0], grid, memo)

        v0 = unit_sample(np.ones((1, *grid.shape)), grid).x
        return v0, energy(v0), gradient, rule, retract

    def test_conjugate_rule_beats_plain_lift(self, grid7):
        opts = SolverOptions(tol=1e-8)
        v0, e0, gradient, rule, retract = self.sphere_problem(grid7)

        def plain(v, gs, memo):
            return rule(v, gs, None)

        runs = [
            S._descend(v0, e0, gradient, d, retract, opts.max_iter, 1e-4)
            for d in (rule, plain)
        ]
        (_x, e_cg, res_cg, its_cg), (_y, e_sd, res_sd, its_sd) = runs
        assert res_cg <= 1e-4 and res_sd <= 1e-4
        assert e_cg == pytest.approx(e_sd, rel=1e-6)
        # 96 against 564 iterations when written
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

    def test_lift_slope_is_minus_the_tangent_h1_norm(self):
        # with r = K^-1 g, K the quadrature stiffness, and P the
        # K-orthogonal tangent projection, <g, pg> = cell_area sum_i t_i
        # pg_i^T K pg_i, so -pg descends at every state, gradient and
        # fiber scale
        grid = build_grid(GridSpec(7, 9, 1.0, 1.3))
        n = grid.shape[0] * grid.shape[1]
        K = quadrature_stiffness(grid)
        rng = np.random.default_rng(0)
        for seed in range(200):
            w = positive_state(grid, seed)
            g = rng.standard_normal((2, *grid.shape))
            t = rng.uniform(0.1, 10.0, 2)
            d, slope, (pg, _gpg, _d) = S._conjugate_lift(
                g, CellSample(w, grid), t, grid, None)
            assert np.array_equal(d, -pg)
            pg = pg.reshape(2, n)
            norm = grid.cell_area * sum(t[i] * (pg[i] @ K @ pg[i]) for i in range(2))
            assert slope < 0.0
            assert slope == pytest.approx(-norm, rel=1e-12)

    def test_every_descent_starts_without_memory(self, monkeypatch, grid7,
                                                 identity, params_p4):
        # one scalar start whose first polish fails its guard, so the
        # descent resumes
        opts = SolverOptions(n_restarts=0)
        memos = []
        entered_at = []
        descent_its = []
        residual_stops = []
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
            # (x, energy, gradient, direction, retract, opts, stop, ...)
            residual_stops.append(out[2] <= args[6])
            return out

        def polish(x0, energy, grid, *args):
            polished_at.append(len(memos))
            if len(polished_at) == 1:
                return CellSample(x0.copy(), grid), 1.0, False, 0
            return real_polish(x0, energy, grid, *args)

        monkeypatch.setattr(S, "_conjugate_lift", recorded)
        monkeypatch.setattr(S, "_descend", descend)
        monkeypatch.setattr(S, "_newton_krylov_polish", polish)
        _z, level, rep = scalar_ground_state(1, params_p4, identity, grid7, opts)
        (note,) = rep.warnings
        assert note.endswith("descent resumed") and len(polished_at) == 2
        # every descent step asks for a direction, except a last one that
        # the residual test ends
        assert len(memos) == sum(descent_its) - sum(residual_stops)
        assert level == pytest.approx(41.20411605014968, rel=1e-10)
        fresh = [k for k, memo in enumerate(memos) if memo is None]
        assert fresh == [0, polished_at[0]] == entered_at


def counted_products(apply, counts):
    """The operator `apply`, counting its products in counts["minres"]:
    `_minres` makes one per iteration."""
    def product(v):
        counts["minres"] += 1
        return apply(v)

    return product


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
        # the descent's own callbacks, taken from the first competitive
        # start (the segregated pair); the scalar data skips the scalar
        # solves, which a competitive solve does not start from
        captured = capture_first_descent(monkeypatch, S)
        params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
        with pytest.raises(StopSolve):
            solve_system(params, example1, example1, grid15,
                         SolverOptions(n_restarts=0),
                         scalar_data=(None, None, 0.0, 0.0))
        x = captured["x"]
        g, _res = captured["gradient"](x)
        d, _slope, _memo = captured["direction"](x, g, None)

        counts = count_stencils(monkeypatch)
        guarded = []
        real_guard = S.check_coercivity_bound

        def guard(energy_val, sample, *args):
            guarded.append(sample)
            return real_guard(energy_val, sample, *args)

        monkeypatch.setattr(S, "check_coercivity_bound", guard)
        # the trial pair is sampled once: normalization scales that sample,
        # project_to_nehari rescales it, and its energy comes from the
        # fiber map
        x_try, e_try = captured["retract"](x, d, 0.01)
        assert counts == {"values": 2, "gradients": 2}
        # the trial's guard and the accepted state's gradient read the same
        # sample
        assert len(guarded) == 1 and guarded[0] is x_try[1].sample
        captured["gradient"](x_try)
        assert counts == {"values": 2, "gradients": 2}
        energy = S.Energy.pair(params, example1, example1)
        assert e_try == pytest.approx(energy.value(x_try[1].sample), rel=1e-14)

    def test_scalar_trial(self, monkeypatch, grid15, example1, params_p4):
        # a scalar rescale samples its trial once, inside
        # `scalar_fiber_root`, and the descent reads that sample: outside
        # the polish a scalar solve samples once per root
        counts = count_stencils(monkeypatch)
        real_polish, real_root = S._newton_krylov_polish, S.scalar_fiber_root
        roots = []

        def polish(*args):
            before = dict(counts)
            out = real_polish(*args)
            counts.update(before)
            return out

        def root(*args, **kwargs):
            roots.append(1)
            return real_root(*args, **kwargs)

        monkeypatch.setattr(S, "_newton_krylov_polish", polish)
        monkeypatch.setattr(S, "scalar_fiber_root", root)
        scalar_ground_state(1, params_p4, example1, grid15, SolverOptions(n_restarts=0))
        assert len(roots) > 10
        assert counts["values"] == len(roots)

    def test_scalar_polish(self, monkeypatch, grid15, example1, params_p4):
        # the start and every accepted trial are sampled once, and the
        # gradient, energy and Hessian of an iterate read that sample; the
        # Hessian products sample their directions, which are not counted
        counts = count_stencils(monkeypatch)
        real, real_hessian = S._newton_krylov_polish, Energy.hessian
        polishes = []

        def hessian(energy, sample):
            product = real_hessian(energy, sample)

            def uncounted(d):
                before = dict(counts)
                out = product(d)
                counts.update(before)
                return out

            return uncounted

        def polish(*args):
            before = dict(counts)
            out = real(*args)
            polishes.append((out[3], *(counts[k] - before[k] for k in counts)))
            return out

        monkeypatch.setattr(S, "_newton_krylov_polish", polish)
        monkeypatch.setattr(Energy, "hessian", hessian)
        opts = SolverOptions(n_restarts=0)
        scalar_ground_state(1, params_p4, example1, grid15, opts)
        # two Newton steps, each accepting its full step
        assert polishes == [(2, 3, 3)]


class TestIntegerCounts:
    """Counts are integers, NumPy's included; anything else is a typed
    error, not a TypeError deep inside a solve."""

    @pytest.mark.parametrize(
        "name,value", [("max_iter", 2.5), ("n_restarts", 1.5), ("seed", "0")]
    )
    def test_non_integer_count_is_invalid(self, name, value):
        with pytest.raises(ValidationError, match=f"^{name}: must be an integer$"):
            SolverOptions(**{name: value})

    def test_numpy_integer_counts_solve(self, identity, params_p4):
        levels = [
            scalar_ground_state(
                1, params_p4, identity, build_grid(GridSpec(nx, 7)),
                SolverOptions(max_iter=its, n_restarts=restarts),
            )[1]
            for nx, its, restarts in ((7, 600, 1),
                                      (np.int64(7), np.int64(600), np.int32(1)))
        ]
        assert levels[0] == levels[1]


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
        assert rep0.iterations <= 5
        assert L0 == pytest.approx(L, rel=1e-10)


class TestNewtonHandoff:
    """The descent hands off to Newton at residual _HANDOFF_RES, behind a
    guard."""

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

        # handed off at residual <= _HANDOFF_RES, polished again after more
        # descent
        assert len(starts) == 2
        assert 1e2 * opts.tol < residual(starts[0]) <= S._HANDOFF_RES
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
        n = grid7.spec.nx * grid7.spec.ny
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
                return lambda d: free * d

        _sample, res, converged, its = S._newton_krylov_polish(
            np.zeros(shape), Quadratic(), grid7, opts
        )
        assert converged
        assert 1e-2 * opts.tol < res <= opts.tol
        assert its < _POLISH_MAX_ITER

    @pytest.mark.parametrize("kind, energy_ref", [("asymmetric", 269.82059859222215),
                                                   ("symmetric", 455.05691158972957)])
    def test_handoff_keeps_bump_start_energy(self, grid15, identity, example1,
                                             kind, energy_ref):
        # the bump starts alone (both end on the side-by-side state, above
        # the least energy): the energies measured with the handoff at 1e-2
        lam = 0.05 * conservative_mu1(grid15) if kind == "asymmetric" else 0.0
        params = ProblemParams(lam, 0.0, -2.0, 4.0, 1.0)
        fam1 = identity if kind == "asymmetric" else example1
        _u, rep = solve_system(params, fam1, example1, grid15,
                               SolverOptions(n_restarts=0))
        assert rep.energy == pytest.approx(energy_ref, rel=1e-10)

    @pytest.mark.parametrize("beta", [-2.0, 5.0])
    def test_accepted_polishes_are_newton_quick(self, monkeypatch, grid15,
                                                identity, example1, beta):
        # every polish that hands a candidate over (the scalar levels' and
        # the pair starts') is inside Newton's quadratic region
        real_polish, real_rejection = S._newton_krylov_polish, S._rejection
        polishes, accepted = [], []

        def polish(*args, **kwargs):
            out = real_polish(*args, **kwargs)
            polishes.append(out)
            return out

        def rejection(sample, res, *args):
            reason = real_rejection(sample, res, *args)
            if reason is None:
                accepted.append(res)
            return reason

        monkeypatch.setattr(S, "_newton_krylov_polish", polish)
        monkeypatch.setattr(S, "_rejection", rejection)
        lam = 0.05 * conservative_mu1(grid15)
        params = ProblemParams(lam, 0.0, beta, 4.0, 1.0)
        solve_system(params, identity, example1, grid15,
                     SolverOptions(n_restarts=1))
        steps = [its for _sample, res, _conv, its in polishes if res in accepted]
        assert len(steps) == len(accepted) > 0
        assert max(steps) <= 3

    def test_each_hessian_product_scatters_once(self, monkeypatch, grid15,
                                                example1, params_p4):
        # the Hessian weights are formed once per Newton step: each MINRES
        # iteration makes one product, which scatters once through the
        # cells, and each gradient scatters once
        opts = SolverOptions(n_restarts=0)
        z, _L, _rep = scalar_ground_state(1, params_p4, example1, grid15, opts)
        rng = np.random.default_rng(0)
        x0 = (z.values * (1.0 + 1e-3 * rng.standard_normal(grid15.shape)))[None]
        energy = Energy.scalar(params_p4, 0.0, example1)
        counts = {"scatter": 0, "gradient": 0, "minres": 0, "hessian": 0}
        real_scatter, real_hessian = E.scatter_cells, energy.hessian

        def scatter(*args):
            counts["scatter"] += 1
            return real_scatter(*args)

        def gradient(sample):
            counts["gradient"] += 1
            return energy.gradient(sample)

        def hessian(sample):
            counts["hessian"] += 1
            return counted_products(real_hessian(sample), counts)

        monkeypatch.setattr(E, "scatter_cells", scatter)
        monkeypatch.setattr(energy, "hessian", hessian)
        _sample, _res, converged, its = S._newton_krylov_polish(
            x0, energy, grid15, opts, gradient
        )
        assert converged and its >= 2
        assert counts["hessian"] == its
        assert counts["minres"] > 2 * counts["gradient"]
        assert counts["scatter"] == counts["gradient"] + counts["minres"]

    @pytest.mark.parametrize(
        "n, energy_ref", [(15, 110.464861107188), (31, 108.038290994432)]
    )
    def test_minres_work_is_mesh_independent(self, monkeypatch, example1,
                                             params_p4, n, energy_ref):
        # the quadrature-matched preconditioner bounds the MINRES iterations
        # of a Newton step independently of the mesh (the 5-point one took
        # 136 over 3 steps on 15^2 and 259 on 31^2)
        grid = build_grid(GridSpec(n, n, 1.0, 1.0))
        opts = SolverOptions(n_restarts=0)
        z, _L, _rep = scalar_ground_state(1, params_p4, example1, grid, opts)
        rng = np.random.default_rng(0)
        x0 = (z.values * (1.0 + 1e-3 * rng.standard_normal(grid.shape)))[None]
        energy = Energy.scalar(params_p4, 0.0, example1)
        counts = {"minres": 0}
        real_hessian = energy.hessian
        monkeypatch.setattr(
            energy, "hessian",
            lambda sample: counted_products(real_hessian(sample), counts),
        )
        sample, _res, converged, its = S._newton_krylov_polish(
            x0, energy, grid, opts
        )
        assert converged and its >= 1
        assert counts["minres"] <= 15 * its
        assert energy.value(sample) == pytest.approx(energy_ref, rel=1e-10)


def allocating_minres(apply, b, precond, rtol, maxiter):
    """`_minres` with every vector a new array, the reference for the
    order of operations of the in-place recurrence."""
    eps = np.finfo(float).eps
    x = w = w2 = np.zeros_like(b)
    r1 = r2 = b
    y = precond(b)
    beta1 = float(np.vdot(b, y))
    beta1 = beta = phibar = math.sqrt(beta1)
    oldb = dbar = epsln = tnorm2 = gmax = sn = 0.0
    gmin, cs = math.inf, -1.0
    for itn in range(1, maxiter + 1):
        v = (1.0 / beta) * y
        y = apply(v)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(np.vdot(v, y))
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = precond(r2)
        oldb, beta = beta, math.sqrt(float(np.vdot(r2, y)))
        tnorm2 += alfa**2 + oldb**2 + beta**2
        oldeps, delta = epsln, cs * dbar + sn * alfa
        gbar, epsln, dbar = sn * dbar - cs * alfa, sn * beta, -cs * beta
        root = math.hypot(gbar, dbar)
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) * (1.0 / gamma)
        x = x + phi * w
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        anorm, xnorm = math.sqrt(tnorm2), float(np.linalg.norm(x))
        test1 = phibar / (anorm * xnorm) if xnorm > 0.0 else math.inf
        if (itn == 1 and beta / beta1 <= 10.0 * eps
                or min(test1, root / anorm) <= max(rtol, eps / 2.0)
                or gmax / gmin >= 0.1 / eps or anorm * xnorm * eps >= beta1):
            break
    return x


def copy_into(r, out):
    """The identity preconditioner, in the `precond(r, out=...)` form."""
    out[...] = r
    return out


class TestMinres:
    """The in-package MINRES against `scipy.sparse.linalg.minres`, an
    independent implementation of the same recurrence, on Hessian
    products at saddle-type states: both must take the same iterations to
    the same solution."""

    @pytest.fixture(scope="class")
    def systems(self, grid15, example1):
        # states large enough that -3 v^2 beats the stiffness somewhere:
        # the Hessians have 3 (scalar) and 2 (pair) negative eigenvalues
        params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
        X, Y = grid15.node_mesh()
        bump = np.sin(np.pi * X) * np.sin(np.pi * Y)
        out = {}
        for name, energy, x in (
            ("scalar", Energy.scalar(params, 0.0, example1), 12.0 * bump[None]),
            ("pair", Energy.pair(params, example1, example1),
             12.0 * segregated_random_state(grid15, 0)),
        ):
            sample = CellSample(x, grid15)
            out[name] = energy.hessian(sample), -energy.gradient(sample)
        return out

    @staticmethod
    def solve_both(apply, b, precond, rtol, maxiter):
        from scipy.sparse.linalg import LinearOperator, minres

        def operator(f):
            return LinearOperator((b.size, b.size), dtype=float,
                                  matvec=lambda v: f(v.reshape(b.shape)).ravel())

        ref_its, counts = [], {"minres": 0}
        ref, _info = minres(operator(apply), b.ravel(), rtol=rtol, maxiter=maxiter,
                            M=None if precond is None else operator(precond),
                            callback=ref_its.append)
        x = S._minres(counted_products(apply, counts), b, precond or copy_into,
                      rtol, maxiter)
        return x, ref.reshape(b.shape), (len(ref_its), counts["minres"])

    @pytest.mark.parametrize("name", ["scalar", "pair"])
    @pytest.mark.parametrize("quadrature", [True, False], ids=["quadrature", "plain"])
    def test_matches_scipy(self, systems, grid15, name, quadrature):
        apply, b = systems[name]
        H = np.column_stack([apply(col.reshape(b.shape)).ravel()
                             for col in np.eye(b.size)])
        assert np.sum(np.linalg.eigvalsh(H) < 0.0) == {"scalar": 3, "pair": 2}[name]
        precond = grid15.quadrature_solver if quadrature else None
        for rtol in (S._POLISH_RTOL, 1e-10):
            x, ref, (n_ref, n) = self.solve_both(apply, b, precond, rtol,
                                                 S._POLISH_INNER_ITER)
            assert n == n_ref < S._POLISH_INNER_ITER
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_maxiter_caps_the_iterations(self, systems):
        apply, b = systems["pair"]
        x, ref, counts = self.solve_both(apply, b, None, 1e-12, 5)
        assert counts == (5, 5)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("name", ["scalar", "pair"])
    def test_matches_allocating_recurrence(self, systems, grid15, name):
        # the in-place recurrence keeps the order of operations of the one
        # that allocates every vector, so the two agree bit for bit
        apply, b = systems[name]
        for rtol in (S._POLISH_RTOL, 1e-10):
            x = S._minres(apply, b, grid15.quadrature_solver, rtol,
                          S._POLISH_INNER_ITER)
            ref = allocating_minres(apply, b, grid15.quadrature_solver, rtol,
                                    S._POLISH_INNER_ITER)
            assert np.array_equal(x, ref)

    def test_inputs_and_results_are_not_shared(self, systems, grid15):
        # b is left unchanged, and each solve returns a new array
        apply, b = systems["pair"]
        b0 = b.copy()
        x = S._minres(apply, b, grid15.quadrature_solver, 1e-10, 400)
        y = S._minres(apply, b, grid15.quadrature_solver, 1e-10, 400)
        assert np.array_equal(b, b0)
        assert not np.shares_memory(x, b) and not np.shares_memory(x, y)
        assert np.array_equal(x, y)

    def test_zero_right_hand_side_makes_no_product(self, grid15):
        calls = []

        def apply(v):
            calls.append(1)
            return v

        b = np.zeros((2, *grid15.shape))
        x = S._minres(apply, b, grid15.quadrature_solver, 1e-6, 400)
        assert not calls and x.shape == b.shape and not np.any(x)


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
        # the one start, the scalar pair (z1, z1), projects onto the
        # synchronized critical point: its descent stops at once, below the
        # resume threshold, and it is polished exactly once
        assert len(calls) == 1
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


    def test_rounding_ties_go_to_the_earlier_start(self, grid7, identity,
                                                   params_p4):
        # candidates whose energies agree to rounding are one level: the
        # earlier start's is kept, though the later one is lower by a few
        # ulps; a candidate lower by more than rounding replaces it
        energy = Energy.scalar(params_p4, 0.0, identity)
        w = positive_state(grid7, 2)[:1]
        level = energy.value(CellSample(w, grid7))
        slope = float(np.sum(energy.gradient(CellSample(w, grid7)) * w))
        down = -math.copysign(1.0, slope)

        def run(scales):
            candidates = iter(CellSample((1.0 + down * c) * w, grid7) for c in scales)

            def rescale(v, t_init):
                return S.scalar_fiber_root(v, 0.0, params_p4, identity, grid7)

            best, _its = S._best_polished(
                [w] * len(scales), rescale, lambda x: (next(candidates), 0.0),
                energy, grid7, SolverOptions(max_iter=0), [])
            return best

        second = energy.value(CellSample((1.0 + down * 1e-14) * w, grid7))
        assert level - 1e-12 * abs(level) < second < level
        tie = run((0.0, 1e-14))
        assert tie[1] == level and np.array_equal(tie[0], w)
        lower = run((0.0, 1e-14, 1e-6))
        assert lower[1] < level - 1e-9 * abs(level)
        assert np.array_equal(lower[0], (1.0 + down * 1e-6) * w)


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
        ints, _q, _pp = CellSample(u.stacked(), grid31).integrals(p)
        bound = (p - 2 - gam) / (2 * p) * example1.nu * sum(ints)
        assert rep.energy >= bound - 1e-8 * (1 + abs(rep.energy))

    def test_unprojectable_warm_start_is_rejected(self, grid15, example1):
        # the diagonal pair (v, v) is not projectable at beta = -2 (criterion
        # 6): the warm start is dropped with the fiber's reason, and the
        # solve goes on exactly as without it
        params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
        opts = SolverOptions(n_restarts=0)
        v = ScalarField(np.abs(np.random.default_rng(7).standard_normal(
            grid15.shape)) + 0.02, grid15.spec)
        scalars = (None, None, 0.0, 0.0)
        u, rep = solve_system(params, example1, example1, grid15, opts,
                              scalars, StatePair(v, v))
        u0, rep0 = solve_system(params, example1, example1, grid15, opts,
                                scalars)
        (note,) = rep.warnings
        assert note.startswith("start 0 rejected: membership inequalities fail: (")
        assert rep0.warnings == ()
        assert replace(rep, warnings=()) == rep0
        assert np.array_equal(u.stacked(), u0.stacked())

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

    def test_backtracking_is_cheap(self, monkeypatch, grid15, identity, example1):
        # the asymmetric repulsive solve: most descent steps pass the Armijo
        # test at their first or second fiber projection (1.60 projections
        # per descent iteration when written; 2.09 when failed steps were
        # halved)
        calls = []
        real = S.project_to_nehari

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(S, "project_to_nehari", counted)
        params = ProblemParams(0.05 * conservative_mu1(grid15), 0.0, -2.0, 4.0, 1.0)
        _u, rep = solve_system(params, identity, example1, grid15,
                               SolverOptions(n_restarts=1, max_iter=300))
        assert 0 < len(calls) <= 1.8 * rep.iterations

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


@pytest.fixture(scope="module")
def synchronized15(scalar15, identity, fast_opts):
    """(beta, state, report) of the symmetric cooperative solves on scalar15's
    data, for beta = 5, 10, 20, 40."""
    grid, params, z, L, _rep = scalar15
    out = []
    for beta in (5.0, 10.0, 20.0, 40.0):
        u, rep = solve_system(replace(params, beta=beta), identity, identity,
                              grid, fast_opts, scalar_data=(z, z, L, L))
        out.append((beta, u, rep))
    return out


class TestSystemStarts:
    """The start list of a coupled solve: the warm start, the deterministic
    start, then the random starts, each start followed by its mirror
    unless the data are symmetric or the start is its own mirror."""

    @pytest.mark.parametrize("warm", (False, True))
    @pytest.mark.parametrize("symmetric", (True, False))
    @pytest.mark.parametrize("beta", (-2.0, 2.0))
    def test_order_and_mirrors(self, grid7, identity, example1, beta, symmetric,
                               warm):
        z1 = ScalarField(S._bump(grid7, 0.5, 0.5, 0.2), grid7.spec)
        # scalar_levels solves symmetric data once and returns z1 twice
        z2 = z1 if symmetric else ScalarField(S._bump(grid7, 0.4, 0.6, 0.3),
                                              grid7.spec)
        fam2 = identity if symmetric else example1
        warm_start = StatePair(z2, ScalarField(2.0 * z1.values, grid7.spec))
        params = ProblemParams(0.0, 0.0, beta, 4.0, 1.0)
        starts = S._system_starts(params, identity, fam2, grid7,
                                  SolverOptions(n_restarts=1), z1, z2,
                                  warm_start if warm else None)

        pair = np.stack((z1.values, z2.values))
        if beta < 0.0:
            envelope = np.stack(S.segregated_pair(grid7))
            deterministic = [envelope] if symmetric else [envelope, envelope[::-1]]
        else:
            envelope = 1.0
            deterministic = [pair]
        y = starts[-1] if symmetric else starts[-2]
        expected = ([warm_start.stacked()] if warm else []) + deterministic + (
            [y] if symmetric else [y, y[::-1]]
        )
        assert len(starts) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(starts, expected))
        # the random start is a positive draw shaped by the envelope, and
        # the scalar pair, its own mirror, runs once (beta > 0 only)
        assert np.all(y >= 0.1 * envelope) and not np.array_equal(y, y[::-1])
        assert sum(np.array_equal(x, pair) for x in starts) == (beta > 0.0)


class TestCooperative:
    def test_beats_scalar_levels(self, grid15, identity, fast_opts):
        params = ProblemParams(0.0, 0.0, 10.0, 4.0, 1.0)
        u, rep = solve_system(params, identity, identity, grid15, fast_opts)
        assert rep.fully_nontrivial and rep.nonnegative
        assert rep.energy < min(rep.L1, rep.L2)
        assert rep.euler_residual_norm <= 1e-8

    def test_mixed_profiles_reach_a_nontrivial_state(self, grid15, identity,
                                                     example1):
        # the scalar pair (z1, z2) must project: a fiber Newton started
        # from the exact axis roots stalls on such pairs toward t2 -> 0,
        # one started from the constant-profile roots converges
        lam = 0.3 * conservative_mu1(grid15)
        opts = SolverOptions(n_restarts=0)
        u, rep = solve_system(ProblemParams(lam, 0.0, 2.0, 4.0, 1.0), example1,
                              identity, grid15, opts)
        assert rep.fully_nontrivial and rep.nonnegative
        assert rep.energy == pytest.approx(30.48537981432166, rel=1e-10)
        assert rep.energy < min(rep.L1, rep.L2)
        sw, sw_rep = solve_system(ProblemParams(0.0, lam, 2.0, 4.0, 1.0), identity,
                                  example1, grid15, opts)
        assert sw_rep.energy == pytest.approx(rep.energy, rel=1e-12)
        np.testing.assert_allclose(sw.u1.values, u.u2.values, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(sw.u2.values, u.u1.values, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("fam, lam_frac, level", [
        (identity_family(), 0.3, 229.7081907461717),
        (example_family(0.5), 0.0, 3605.1324252260365),
    ])
    def test_coarse_grid_reaches_the_lower_state(self, grid7, fam, lam_frac, level):
        # 7^2, p = 3, beta = 0.3: the coupled system has upper critical
        # states (274.529, 4179.97) above min(L1, L2); the solve reaches the
        # lower state, and the report carries no "not below" warning
        lam = lam_frac * conservative_mu1(grid7)
        _u, rep = solve_system(ProblemParams(lam, lam, 0.3, 3.0, 0.5), fam, fam,
                               grid7, SolverOptions(n_restarts=1))
        assert rep.fully_nontrivial
        assert rep.energy == pytest.approx(level, rel=1e-10)
        assert rep.energy < min(rep.L1, rep.L2)
        assert not any("not below min(L1, L2)" in w for w in rep.warnings)

    def test_synchronized_state_is_rescaled_ground_state(self, scalar15,
                                                         synchronized15):
        # symmetric identity data at p = 4: the least-energy state is
        # (w, w) with w = z1 / sqrt(1 + beta), at energy 2 L1 / (1 + beta)
        _grid, _params, z, L, _rep = scalar15
        for beta, u, rep in synchronized15:
            w = z.values / math.sqrt(1.0 + beta)
            np.testing.assert_allclose(u.u1.values, w, rtol=0.0, atol=1e-8)
            np.testing.assert_allclose(u.u2.values, u.u1.values, rtol=0.0,
                                       atol=1e-12)
            assert rep.energy == pytest.approx(2.0 * L / (1.0 + beta), rel=1e-10)

    def test_diagonal_mass_decays(self, scalar15, synchronized15):
        # int |u1|^p decreasing in beta, log-log slope <= -0.9
        grid, params, _z, _L, _rep = scalar15
        betas = [beta for beta, _u, _rep in synchronized15]
        masses = [
            float(CellSample(u.u1.values[None], grid).integrals(params.p)[2][0])
            for _beta, u, _rep in synchronized15
        ]
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
                fake_energy, CellSample(u.stacked(), grid15),
                Energy.pair(params, identity, identity), (0.0, 0.0),
            )

    def test_scalar_solve_is_guarded(self, monkeypatch, grid15, example1,
                                     params_p4, fast_opts):
        # the scalar start loop checks the floor as the pair loop does: a
        # rescale reporting an energy far below it aborts the solve
        real = S.scalar_fiber_root

        def fake_energy(*args, **kwargs):
            return replace(real(*args, **kwargs), energy=-1e6)

        monkeypatch.setattr(S, "scalar_fiber_root", fake_energy)
        with pytest.raises(CoercivityViolation, match="fell below the bound"):
            scalar_ground_state(1, params_p4, example1, grid15, fast_opts)


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

    def test_sweep_solves_scalar_problem_once(self, monkeypatch, grid15,
                                              identity, fast_opts):
        calls = []

        def counted(i, *args, **kwargs):
            calls.append(i)
            return scalar_ground_state(i, *args, **kwargs)

        monkeypatch.setattr(S, "scalar_ground_state", counted)
        params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        rows = beta_sweep([5.0, 10.0], params, identity, identity, grid15,
                          fast_opts)
        assert [row.status for row in rows] == ["ok", "ok"]
        assert calls == [1]

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

    def test_sweep_records_non_finite_state(self, monkeypatch, grid15, identity,
                                            fast_opts):
        stub_scalar_solves(monkeypatch)

        def diverges(params, fam1, fam2, grid, *args):
            nan = np.full((2, *grid.shape), np.nan)
            return StatePair.from_stack(nan, grid.spec), None

        monkeypatch.setattr(S, "solve_system", diverges)
        params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        rows = beta_sweep([0.0], params, identity, identity, grid15, fast_opts)
        assert rows[0].status == "error"
        assert rows[0].error == "field contains non-finite entries"

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
            return np.array(CellSample(state.stacked(), grid15).integrals(4.0))

        ints = integrals(u)
        ints_sw = integrals(u_sw)
        swapped = ints[:, ::-1]
        assert np.all(np.abs(ints_sw - swapped) <= 1e-9 * (1.0 + np.abs(swapped)))

    @pytest.mark.parametrize("beta, level", [(5.0, 17.206402257128417),
                                             (0.5, 110.6663003289)])
    def test_swap_equivariance_cooperative(self, grid15, identity, example1,
                                           fast_opts, beta, level):
        # asymmetric data: the scalar pair is its own mirror and runs once,
        # each random start runs in both orders
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
