"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The heavy criteria share scalar ground-state levels
through a module-level cache; a criterion run in isolation recomputes
them inside its own timer.
"""

import math
import time

import numpy as np
import pytest

import nehari2d.grid as G
from nehari2d import (
    FiberPoint,
    GridSpec,
    ProblemParams,
    ScalarField,
    SolverOptions,
    StatePair,
    build_grid,
    certify,
    euler_gradient,
    example_family,
    fiber_gradient,
    fiber_value,
    identity_family,
    principal_eigenpair,
    project_to_nehari,
    scalar_ground_state,
    solve_system,
    total_energy,
)
from nehari2d.coeffs import tabulated_family
from nehari2d.energy import CellSample
from nehari2d.fiber import critical_cell_count
from nehari2d.solvers import (
    conservative_mu1,
    diagonal_candidate,
    nehari_floors_hold,
)
from conftest import segregated_random_state
from oracles import semilinear_ground_level

_CACHE = {}


def _report(num, name, t0, budget):
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {num} ({name}): PASS  [{elapsed:.1f}s <= {budget:.0f}s]")
    assert elapsed <= budget


def _identity_levels63(opts):
    """Scalar ground data on the 63x63 unit square, identity profile."""
    if "levels63" not in _CACHE:
        grid = build_grid(GridSpec(63, 63, 1.0, 1.0))
        params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
        iden = identity_family(1.0)
        z1, L1, _ = scalar_ground_state(1, params, iden, grid, opts)
        z2, L2, _ = scalar_ground_state(2, params, iden, grid, opts)
        _CACHE["levels63"] = (grid, z1, z2, L1, L2)
    return _CACHE["levels63"]


def test_criterion_1_eigenvalue_oracle():
    t0 = time.time()
    for n in (15, 31, 63):
        grid = build_grid(GridSpec(n, n, 1.0, 1.0))
        pair = principal_eigenpair(grid)
        h = 1.0 / (n + 1)
        exact = (8.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2
        assert abs(pair.mu - exact) / exact <= 1e-10
        if n == 63:
            assert abs(pair.mu - 2.0 * math.pi**2) / (2.0 * math.pi**2) <= 1e-3
    _report(1, "eigenvalue oracle", t0, 5.0)


def test_criterion_2_gradient_consistency():
    t0 = time.time()
    grid = build_grid(GridSpec(31, 31, 1.0, 1.0))
    fam = example_family(1.0)
    rng = np.random.default_rng(42)
    betas = [-2.0, 0.0, 3.0]
    for state_idx in range(20):
        beta = betas[state_idx % 3]
        params = ProblemParams(0.0, 0.0, beta, 4.0, 1.0)
        u = StatePair(
            ScalarField(rng.standard_normal(grid.shape), grid.spec),
            ScalarField(rng.standard_normal(grid.shape), grid.spec),
        )
        g = euler_gradient(u, params, fam, fam, grid)
        scale = 1.0 + max(np.abs(u.u1.values).max(), np.abs(u.u2.values).max())
        h = 1e-6 * scale
        for _ in range(5):
            i, j = rng.integers(0, 31, size=2)
            comp = int(rng.integers(1, 3))
            vp = [u.u1.values.copy(), u.u2.values.copy()]
            vm = [u.u1.values.copy(), u.u2.values.copy()]
            vp[comp - 1][i, j] += h
            vm[comp - 1][i, j] -= h
            ep = total_energy(
                StatePair(ScalarField(vp[0], u.spec), ScalarField(vp[1], u.spec)),
                params, fam, fam, grid,
            )
            em = total_energy(
                StatePair(ScalarField(vm[0], u.spec), ScalarField(vm[1], u.spec)),
                params, fam, fam, grid,
            )
            fd = (ep - em) / (2.0 * h)
            gv = (g.u1 if comp == 1 else g.u2).values[i, j] * grid.cell_area
            assert abs(gv - fd) / (1.0 + abs(fd)) < 1e-6

        t = FiberPoint(*rng.uniform(0.3, 2.5, size=2))
        g1, g2 = fiber_gradient(u, t, params, fam, fam, grid)
        dt = 1e-6
        for k, gk in enumerate((g1, g2)):
            tp = [t.t1, t.t2]
            tm = [t.t1, t.t2]
            tp[k] += dt
            tm[k] -= dt
            fd = (
                fiber_value(u, FiberPoint(*tp), params, fam, fam, grid)
                - fiber_value(u, FiberPoint(*tm), params, fam, fam, grid)
            ) / (2.0 * dt)
            assert abs(gk - fd) / (1.0 + abs(fd)) < 1e-7
    _report(2, "gradient consistency", t0, 10.0)


def test_criterion_3_decoupling_oracle():
    t0 = time.time()
    opts = SolverOptions(tol=1e-8, n_restarts=1, max_iter=2000, seed=0)
    grid, z1, z2, L1, L2 = _identity_levels63(opts)
    params = ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
    iden = identity_family(1.0)
    _u, rep = solve_system(
        params, iden, iden, grid, opts, scalar_data=(z1, z2, L1, L2)
    )
    assert abs(rep.energy - (L1 + L2)) / (L1 + L2) <= 0.01
    L_oracle, _ = semilinear_ground_level(63, p=4.0)
    for L in (L1, L2):
        assert abs(L - L_oracle) / L_oracle <= 0.005
    _report(3, "decoupling oracle", t0, 120.0)


def test_criterion_4_competitive_regime():
    t0 = time.time()
    grid = build_grid(GridSpec(63, 63, 1.0, 1.0))
    fam = example_family(1.0)
    params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
    opts = SolverOptions(tol=1e-8, n_restarts=1, max_iter=2000, seed=0)
    u, rep = solve_system(params, fam, fam, grid, opts)
    # the least-energy state, not the side-by-side trap at E = 427.4287
    assert rep.energy == pytest.approx(413.67085720769313, rel=1e-10)

    assert rep.fully_nontrivial
    assert rep.nonnegative
    assert rep.nehari_residual.max_abs <= 1e-8
    assert rep.euler_residual_norm <= 1e-6

    mu1 = conservative_mu1(grid)
    assert nehari_floors_hold(CellSample(u.stacked(), grid), params, fam.nu, mu1)

    p, gam = params.p, params.gamma
    gr = [G.integrate(G.grad_sq(c, grid), grid) for c in (u.u1, u.u2)]
    bound = (p - 2.0 - gam) / (2.0 * p) * fam.nu * sum(gr)
    assert rep.energy >= bound - 1e-8 * (1.0 + abs(rep.energy))
    _CACHE["competitive63"] = (grid, params, fam, u, rep)
    _report(4, "competitive regime", t0, 300.0)


def test_criterion_5_fiber_uniqueness():
    t0 = time.time()
    grid = build_grid(GridSpec(31, 31, 1.0, 1.0))
    fam = example_family(1.0)
    params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
    found = 0
    seed = 0
    while found < 50:
        u = segregated_random_state(grid, seed=seed)
        seed += 1
        proj = project_to_nehari(u, params, fam, fam, grid)
        if not proj.projectable:
            continue
        found += 1
        assert critical_cell_count(u, params, fam, fam, grid) == 1
        again = project_to_nehari(proj.projected, params, fam, fam, grid)
        assert abs(again.t.t1 - 1.0) <= 1e-8
        assert abs(again.t.t2 - 1.0) <= 1e-8
    _report(5, "fiber critical point uniqueness", t0, 120.0)


def test_criterion_6_diagonal_exclusion():
    t0 = time.time()
    grid = build_grid(GridSpec(31, 31, 1.0, 1.0))
    fam = example_family(1.0)
    params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
    rng = np.random.default_rng(7)
    for _ in range(10):
        v = ScalarField(np.abs(rng.standard_normal(grid.shape)) + 0.02, grid.spec)
        res = project_to_nehari(StatePair(v, v), params, fam, fam, grid)
        assert res.status == "not_projectable"
    _report(6, "diagonal exclusion", t0, 30.0)


def test_criterion_7_cooperative_regime():
    t0 = time.time()
    opts = SolverOptions(tol=1e-8, n_restarts=0, max_iter=300, seed=0)
    grid, z1, z2, L1, L2 = _identity_levels63(opts)
    iden = identity_family(1.0)
    min_L = min(L1, L2)

    masses = []
    warm = None
    betas = [5.0, 10.0, 20.0, 40.0]
    for beta in betas:
        params = ProblemParams(0.0, 0.0, beta, 4.0, 1.0)
        u, rep = solve_system(
            params, iden, iden, grid, opts,
            scalar_data=(z1, z2, L1, L2), warm_start=warm,
        )
        warm = u
        assert rep.fully_nontrivial
        assert rep.euler_residual_norm <= 1e-8
        assert rep.energy < min_L
        _pair, mass = diagonal_candidate(params, iden, grid, opts)
        masses.append(mass)
    assert all(b < a for a, b in zip(masses, masses[1:]))
    slope = np.polyfit(np.log(betas), np.log(masses), 1)[0]
    assert slope <= -0.9
    _report(7, "cooperative regime", t0, 600.0)


def test_criterion_8_coefficient_certification():
    t0 = time.time()
    report = certify(example_family(1.0), 4.0, (-10.0, 10.0), 10000)
    assert report.all_passed
    assert report.max_growth_ratio <= 0.5 + 1e-6

    planted = tabulated_family(
        a=lambda s: 1.0 + np.asarray(s) ** 2,
        da=lambda s: 2.0 * np.asarray(s),
        nu=1.0,
        c0=1e4,
        gamma=1.5,
        label="planted",
    )
    bad = certify(planted, 4.0, (-10.0, 10.0), 10000)
    v = bad.verdict("a3_growth")
    assert v.status == "fail"
    assert v.witness_s is not None
    _report(8, "coefficient certification", t0, 1.0)


def test_criterion_9_determinism_and_swap():
    t0 = time.time()
    grid = build_grid(GridSpec(31, 31, 1.0, 1.0))
    iden = identity_family(1.0)
    fam = example_family(1.0)
    mu1 = conservative_mu1(grid)
    lam = 0.05 * mu1
    params = ProblemParams(lam, 0.0, -2.0, 4.0, 1.0)
    opts = SolverOptions(tol=1e-8, n_restarts=1, max_iter=2000, seed=3)

    u_a, rep_a = solve_system(params, iden, fam, grid, opts)
    # the least-energy state, not the trap at E = 257.826
    assert rep_a.energy == pytest.approx(245.4972501868092, rel=1e-10)
    u_b, rep_b = solve_system(params, iden, fam, grid, opts)
    assert np.array_equal(u_a.u1.values, u_b.u1.values)
    assert np.array_equal(u_a.u2.values, u_b.u2.values)
    assert rep_a.energy == rep_b.energy

    u_sw, rep_sw = solve_system(
        params.swapped(), fam, iden, grid, opts
    )
    assert abs(rep_a.energy - rep_sw.energy) <= 1e-10 * (1.0 + abs(rep_a.energy))
    _report(9, "determinism and swap equivariance", t0, 300.0)
