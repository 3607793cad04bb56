"""Ground-state solvers: the scalar solve, the one system solve, and sweeps.

Scalar ground states minimize the one-component energy over the unit
gradient sphere: each trial direction is rescaled onto the scalar
constraint set by its unique fiber root, and the descent direction is the
Riesz lift of the exact energy gradient projected onto the sphere
tangent.  `solve_system` solves the system for every sign of beta, and
the sign picks only the method.  Repulsive coupling runs the scalar
scheme on the product of two spheres, with the two-parameter fiber
projection supplying the constrained energy.  Attractive coupling has no
sphere reduction: each start descends with per-iteration rescaling onto
the constraint set.  At beta = 0 the pair of scalar ground states is the
solution.  Both coupled regimes run one start set, each start followed
by its mirror (the start the swapped problem builds, components swapped
back), and fail one way, with NoConvergence, when no start gives a
candidate.  The descent only brings a start near a critical point: at
Euler residual 1e-2 it hands over to a damped Newton-Krylov root finder
on the exact gradient and Hessian, and resumes only when that polish
fails its guard.  Every solve runs one start loop with one acceptance
rule: a polished state is a candidate when its Euler residual is at most
tol and none of its components is trivial.  The rule is both the handoff
guard and the final pick, and the lowest-energy candidate wins.

Inside the solvers a state is a bare (k, nx, ny) array, k = 1 for a
scalar problem and k = 2 for a pair, measured by one `energy.Energy`.
The energy, gradient, checks and direction rule of an accepted descent
state read one cell sample of it: for a pair the projection's, for a
field the sample of its rescaled state.  The Newton polish likewise reads
each of its iterates from one sample.

Determinism: every random draw flows from the seed in SolverOptions, and
asymmetric candidates are explored in both component orders so that
swapping the problem data swaps the solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse.linalg import LinearOperator, minres

from .coeffs import KIND_TABULATED, CoefficientFamily
from .energy import (
    CellSample,
    Energy,
    NehariResidual,
    ProblemParams,
    euler_gradient,
)
from .errors import (
    CoercivityViolation,
    DegenerateInput,
    InadmissibleLambda,
    InvalidParams,
    NoConvergence,
    NotProjectable,
)
from .fiber import h1_normalize, project_to_nehari, scalar_fiber_root
from .grid import Grid, ScalarField, StatePair, cell_gradients
from .spectrum import ADMISSIBLE, ADMISSIBLE_WEAK, INADMISSIBLE, admissibility

REGIME_COOPERATIVE = "cooperative"
REGIME_COMPETITIVE = "competitive"
REGIME_DECOUPLED = "decoupled"


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8              # Euler residual target, function-space l2 norm
    max_iter: int = 2000
    n_restarts: int = 2            # random starts; each explored in both orders
    seed: int = 0


@dataclass(frozen=True)
class ScalarReport:
    energy: float
    euler_residual_norm: float
    iterations: int
    converged: bool
    admissibility: str
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class SolveReport:
    energy: float
    L1: float
    L2: float
    e_beta_estimate: float
    euler_residual_norm: float
    nehari_residual: NehariResidual
    fully_nontrivial: bool
    nonnegative: bool
    iterations: int
    regime: str
    warnings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# shared numerics


def conservative_mu1(grid: Grid) -> float:
    return grid.eigenpair.mu_conservative


def _vol_norm(values: np.ndarray, grid: Grid) -> float:
    return math.sqrt(float(np.sum(values * values)) * grid.cell_area)


def _sign_fix(x: np.ndarray) -> np.ndarray:
    """Each component of the stack x with its sum made nonnegative."""
    signs = np.where(np.sum(x, axis=(-2, -1)) < 0.0, -1.0, 1.0)
    return signs[:, None, None] * x


def _is_nonnegative(values: np.ndarray) -> bool:
    top = float(np.max(np.abs(values)))
    return top == 0.0 or float(np.min(values)) >= -1e-8 * top


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _random_positive(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    return np.abs(rng.standard_normal(grid.shape)) + 0.1


def _bump(grid: Grid, cx: float, cy: float, width: float) -> np.ndarray:
    X, Y = grid.node_mesh()
    return np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * width**2))


def segregated_pair(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Two disjoint-ish bumps in the left and right half of the rectangle."""
    s = grid.spec
    w = s.lx / 8.0
    left = _bump(grid, s.lx / 4.0, s.ly / 2.0, w)
    right = _bump(grid, 3.0 * s.lx / 4.0, s.ly / 2.0, w)
    return left, right


def symmetric_problem(params, fam1, fam2) -> bool:
    """True when both components pose the same problem."""
    # a tabulated family's constants do not determine its profile
    same_profile = fam1.kind != KIND_TABULATED or (
        fam1.a is fam2.a and fam1.da is fam2.da
    )
    return (
        params.lambda1 == params.lambda2
        and fam1.kind == fam2.kind
        and same_profile
        and fam1.gamma == fam2.gamma
        and fam1.nu == fam2.nu
        and fam1.c0 == fam2.c0
    )


def check_coercivity_bound(
    energy_val: float,
    sample: CellSample,
    params: ProblemParams,
    nu: float,
    residual: NehariResidual,
) -> None:
    """Abort when a constrained iterate undercuts the coercivity bound.

    On the constraint set the energy of the sampled pair dominates
    (p-2-gamma)/(2p) * nu * sum_i int |grad u_i|^2
        - (p-2)/(2p) * sum_i lambda_i int u_i^2,
    an exact consequence of the growth hypothesis on the profiles.  The
    slack absorbs quadrature roundoff and the distance of the iterate
    from the constraint set (measured by the residuals).
    """
    p, g = params.p, params.gamma
    gr, q, _pp = sample.integrals(p)
    lams = np.array((params.lambda1, params.lambda2))
    bound = float(np.sum(
        (p - 2.0 - g) / (2.0 * p) * nu * gr - (p - 2.0) / (2.0 * p) * lams * q
    ))
    slack = 1e-8 * (1.0 + abs(energy_val)) + abs(residual.r1) + abs(residual.r2)
    if energy_val < bound - slack:
        raise CoercivityViolation(
            f"constrained energy {energy_val:.12g} fell below the bound "
            f"{bound:.12g} (residuals {residual.r1:.3e}, {residual.r2:.3e})"
        )


def nehari_floors_hold(
    sample: CellSample, params: ProblemParams, nu: float, mu1: float
) -> bool:
    """Component floors nu*(1 - max(lam,0)/(nu*mu1)) int|grad u_i|^2 <= int|u_i|^p
    of the sampled pair.

    Valid for constraint-set members with non-attractive coupling
    (beta <= 0); negative lambdas enter through their positive part since
    the spectral bound only helps against positive ones.
    """
    gr, _q, pp = sample.integrals(params.p)
    for g, lp, lam in zip(gr, pp, (params.lambda1, params.lambda2)):
        lhs = nu * (1.0 - max(lam, 0.0) / (nu * mu1)) * g
        if lhs > lp + 1e-10 * (1.0 + abs(lp)):
            return False
    return True


def _fully_nontrivial(sample: CellSample, params, opts) -> bool:
    _gr, _q, pp = sample.integrals(params.p)
    return bool(np.all(pp > 1e3 * opts.tol))


# ---------------------------------------------------------------------------
# the descent driver

# what a fiber map raises to reject a trial step or a start
_REJECTS = (DegenerateInput, NoConvergence, NotProjectable)

# Armijo sufficient-decrease constant, and the stagnation stop: the energy
# fell by no more than _STAGNATION_TOL (relative) over _STAGNATION_WINDOW steps
_ARMIJO = 1e-4
_STAGNATION_TOL = 1e-12
_STAGNATION_WINDOW = 20


def _descend(x, energy_val, gradient, direction, retract, opts, stop,
             check=None):
    """Armijo descent from x, shared by every solver.

    `gradient(x)` returns (g, res): the Euler gradient at x and its norm.
    `direction(x, g, memo)` returns (d, slope, memo): a descent direction,
    the energy slope along it, and what the rule keeps for its next call
    (memo is None on the first call of every descent, so each descent
    starts without memory).  `retract(x, d, a)` returns (x_try, energy),
    the trial point at step a mapped back onto the constraint set, and
    raises one of _REJECTS to reject the step.  `check(x, energy)` runs
    on every accepted state.

    The first trial step is a = 1, each later one twice the last accepted
    step (at most 1e3); a is halved up to 50 times.  Stops when
    res <= stop, when no step passes the Armijo test, when the energy
    fell by no more than _STAGNATION_TOL over the last _STAGNATION_WINDOW
    steps, or after max_iter gradients.  Returns (x, energy, res,
    iterations), with res the last residual computed (inf if none was);
    res <= stop exactly when the residual test ended the descent.
    """
    alpha = 1.0
    history = [energy_val]
    res = math.inf
    it = 0
    memo = None
    for it in range(1, opts.max_iter + 1):
        g, res = gradient(x)
        if res <= stop:
            break
        d, slope, memo = direction(x, g, memo)
        a = alpha
        for _ in range(50):
            try:
                x_try, e_try = retract(x, d, a)
            except _REJECTS:
                a *= 0.5
                continue
            if e_try <= energy_val + _ARMIJO * a * slope:
                break
            a *= 0.5
        else:
            break
        x, energy_val = x_try, e_try
        if check is not None:
            check(x, energy_val)
        alpha = min(a * 2.0, 1e3)
        history.append(energy_val)
        if len(history) > _STAGNATION_WINDOW and (
            history[-_STAGNATION_WINDOW - 1] - energy_val
            <= _STAGNATION_TOL * (1.0 + abs(energy_val))
        ):
            break
    return x, energy_val, res, it


# Newton takes over from the descent at this Euler residual: from there the
# polish converges in one or two steps, where the descent needs hundreds
_HANDOFF_RES = 1e-2


def _rejection(sample, res, params, opts):
    """Why a polished state (its sample and Euler residual) is not a
    candidate, or None: the one acceptance rule of every solver, at the
    Newton handoff and at the final pick.  A candidate has res <= tol and
    no trivial component."""
    if res > opts.tol:
        return f"polish stopped at res {res:.2e}"
    if not _fully_nontrivial(sample, params, opts):
        return "trivial state" if len(sample.x) == 1 else "semi-trivial state"
    return None


def _conjugate_lift(g, sample, t, grid, memo):
    """Conjugate direction from the sphere-tangent Riesz lift.

    g is the Euler gradient at the state w sampled by `sample`, and t_i
    scales component i of the sphere point v onto w = t v.  pg is the
    Riesz lift r of g projected onto the H1 tangent space of the spheres
    at v (the projection along v is the one along w), and <g, pg> =
    sum_i t_i <g_i, pg_i>.  The direction is -pg + beta T(d_prev), with T
    the tangent projection and beta the Polak-Ribiere value clamped to
    [0, Fletcher-Reeves]; `memo` carries (pg, <g, pg>, d) from the last
    step of the same descent, or is None.  Where a direction is not one
    of descent the rule restarts from -pg, and from the plain lift -r
    where -pg is not one either.  Returns (d, slope sum_i t_i <g_i, d_i>,
    memo), all arrays stacked like g.
    """
    t = np.asarray(t)

    def per_component(f):
        return np.sum(f, axis=(-2, -1)) * grid.cell_area

    w_sq = per_component(sample.gsq)

    def tangent(d):
        dgx, dgy = cell_gradients(d, grid)
        along = per_component(dgx * sample.gx + dgy * sample.gy) / w_sq
        return d - along[:, None, None] * sample.x

    def dot(a, b):
        return float(np.sum(t * per_component(a * b)))

    r = grid.poisson_solver(g)
    pg = tangent(r)
    gpg = dot(g, pg)
    d, slope = -pg, -gpg
    if memo is not None and memo[1] > 0.0:
        pg0, gpg0, d0 = memo
        beta = max(0.0, min(gpg - dot(g, pg0), gpg) / gpg0)
        if beta > 0.0:
            cg = d + beta * tangent(d0)
            s_cg = dot(g, cg)
            if s_cg < 0.0:
                d, slope = cg, s_cg
    if slope >= 0.0:
        d = -r
        slope = dot(g, d)
    return d, slope, (pg, gpg, d)


def _best_polished(starts, fiber, polish, energy, grid, opts, warnings,
                   check=None, sphere=True):
    """Descend from every start on the constraint set, polish, and keep the
    lowest-energy candidate.

    `fiber(y, t_init)` maps a stack y onto the constraint set and returns
    (x, energy) for the point x = (y, t, sample, residual): the fiber
    scalings t, the cell sample of the rescaled state w = t y and its
    constraint residuals (or None); it raises one of _REJECTS to reject y.
    The descent (`_descend`) runs on the Euler gradient of `energy` at w,
    and `check(x, energy)`, when given, runs on each start's point and on
    every accepted one.  On the sphere product (`sphere`), a start is
    normalized onto the unit gradient spheres and moves by the conjugate
    lift, and each trial is renormalized and rescaled from the current t.
    Otherwise a trial steps from w along the plain Riesz lift -r and is
    rescaled from t = (1, 1).

    Each start descends to max(_HANDOFF_RES, 1e2 * tol), and `polish(x)`
    returns (sample, res) for the polished state.  When `_rejection`
    refuses it and the residual test ended the descent above 1e2 * tol,
    the descent resumes once from there, with a fresh step and stagnation
    window and what is left of max_iter, down to 1e2 * tol, and the state
    it reaches is polished instead (a warning notes the fallback).  A
    start that raises one of _REJECTS is dropped with a warning.  Returns
    (best, descent iterations): best is the lowest-energy (state, energy,
    res) among the polished states `_rejection` accepts, or None.
    """
    def gradient(x):
        g = energy.gradient(x[2])
        return g, _vol_norm(g, grid)

    if sphere:
        def direction(x, g, memo):
            return _conjugate_lift(g, x[2], x[1], grid, memo)

        def retract(x, d, a):
            return fiber(h1_normalize(x[0] + a * d, grid), x[1])
    else:
        def direction(x, g, memo):
            d = -grid.poisson_solver(g)
            return d, float(np.sum(g * d)) * grid.cell_area, None

        def retract(x, d, a):
            return fiber(x[2].x + a * d, (1.0, 1.0))

    final = 1e2 * opts.tol
    stop = max(_HANDOFF_RES, final)
    best = None
    energies = []
    total_iters = 0
    for k, y in enumerate(starts):
        try:
            x, energy_val = fiber(h1_normalize(y, grid) if sphere else y, None)
            if check is not None:
                check(x, energy_val)
            x, energy_val, res, its = _descend(
                x, energy_val, gradient, direction, retract, opts, stop, check
            )
            sample, res_p = polish(x)
            reason = _rejection(sample, res_p, energy.params, opts)
            if reason is not None and final < res <= stop and its < opts.max_iter:
                x, _e, _res, more = _descend(
                    x, energy_val, gradient, direction, retract,
                    replace(opts, max_iter=opts.max_iter - its), final, check,
                )
                its += more
                sample, res_p = polish(x)
                warnings.append(
                    f"start {k}: Newton handoff at res {res:.2e} failed "
                    f"({reason}); descent resumed"
                )
                reason = _rejection(sample, res_p, energy.params, opts)
        except _REJECTS as exc:
            warnings.append(f"start rejected: {exc}")
            continue
        total_iters += its
        if reason is None:
            e = energy.value(sample)
            energies.append(e)
            if best is None or e < best[1]:
                best = (sample.x, e, res_p)
    # distinct converged minimizers are reported, not resolved
    if len(energies) > 1:
        lo, hi = min(energies), max(energies)
        if hi - lo > 1e-8 * (1.0 + abs(lo)):
            warnings.append(
                f"{len(energies)} converged candidates span energies "
                f"[{lo:.10g}, {hi:.10g}]; reporting the lowest"
            )
    return best, total_iters


# ---------------------------------------------------------------------------
# Newton-Krylov polish on the exact gradient

# at most this many Newton steps, each with at most this many MINRES iterations
_POLISH_MAX_ITER = 60
_POLISH_INNER_ITER = 400


def _newton_krylov_polish(
    x0: np.ndarray,
    energy: Energy,
    grid: Grid,
    opts: SolverOptions,
    gradient=None,
):
    """Damped Newton on the Euler gradient of `energy`, with its exact
    Hessian, from the state stack x0.

    Every iterate and every line-search trial is sampled once, and the
    gradient (`gradient(sample)`, by default `energy.gradient`), the
    energy and, at the start of each Newton step, the Hessian are read
    from that sample.  The Hessian is a sparse matrix on the raveled
    stack, inverted approximately by MINRES (it is symmetric but may be
    indefinite at the saddle-type critical points sought here),
    preconditioned by the exact -Laplace solve of each component.  Steps
    are halved until the residual norm decreases; accepted steps may not
    raise the energy beyond rounding level.  Converged means res <= tol.
    Past tol, Newton steps continue while they lower the residual, up to
    the finishing target res <= 1e-2 * tol; a failed line search or the
    step cap between the two thresholds still counts as converged.
    Returns (sample, residual_norm, converged, iterations), `sample` the
    cell sample of the final state.
    """
    gradient = gradient or energy.gradient
    tol = opts.tol
    shape, n = x0.shape, x0.size
    solve = grid.poisson_solver
    M = LinearOperator(
        (n, n), matvec=lambda r: solve(r.reshape(-1, *grid.shape)).ravel(),
        dtype=float,
    )
    sample = CellSample(x0.copy(), grid)
    g = gradient(sample)
    res = _vol_norm(g, grid)
    energy_val = energy.value(sample)
    its = 0
    for its in range(1, _POLISH_MAX_ITER + 1):
        if res <= 1e-2 * tol:
            return sample, res, True, its - 1
        step, _info = minres(
            energy.hessian(sample), -g.ravel(), rtol=1e-6,
            maxiter=_POLISH_INNER_ITER, M=M,
        )
        step = step.reshape(shape)
        if not np.all(np.isfinite(step)) or float(np.linalg.norm(step)) == 0.0:
            step = -g

        accepted = False
        s = 1.0
        for _ in range(40):
            trial = CellSample(sample.x + s * step, grid)
            g_try = gradient(trial)
            res_try = _vol_norm(g_try, grid)
            if res_try < res:
                e_try = energy.value(trial)
                if e_try <= energy_val + 1e-11 * (1.0 + abs(energy_val)):
                    sample, g, res, energy_val = trial, g_try, res_try, e_try
                    accepted = True
                    break
            s *= 0.5
        if not accepted:
            return sample, res, res <= tol, its
    return sample, res, res <= tol, its


def refine_solution(
    u: StatePair,
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
    opts: SolverOptions = SolverOptions(),
) -> tuple[StatePair, float, bool]:
    """Polish a candidate to a sharper gradient zero.

    Returns (state, residual_norm, converged); the residual never
    increases and the energy of accepted steps never rises beyond
    rounding level.
    """
    def gradient(sample):
        pair = StatePair.from_stack(sample.x, grid.spec)
        return euler_gradient(pair, params, fam1, fam2, grid).stacked()

    sample, res, converged, _its = _newton_krylov_polish(
        u.stacked(), Energy.pair(params, fam1, fam2), grid, opts, gradient
    )
    return StatePair.from_stack(sample.x, grid.spec), res, converged


# ---------------------------------------------------------------------------
# scalar ground state


def scalar_ground_state(
    i: int,
    params: ProblemParams,
    fam: CoefficientFamily,
    grid: Grid,
    opts: SolverOptions = SolverOptions(),
    nonlin_coeff: float = 1.0,
) -> tuple[ScalarField, float, ScalarReport]:
    """Least energy state of the one-component problem, and its level.

    Multistart sphere descent plus Newton polish: a point is a field v on
    the unit gradient sphere, its fiber root tau and w = tau v on the
    constraint set, and a candidate is a polished state that `_rejection`
    accepts, at the handoff and at the final pick.
    The output is sign-normalized to the nonnegative representative (the
    energy is even in the field).  `nonlin_coeff` weights the |z|^(p-2) z
    term; the default 1 is the plain scalar problem.

    Raises InadmissibleLambda when lambda_i reaches nu * mu1.
    """
    lam = params.lam(i)
    mu1 = conservative_mu1(grid)
    verdict, thresholds = admissibility(
        (lam,), params.p, params.gamma, fam.nu, mu1
    )
    warnings = []
    if verdict == INADMISSIBLE:
        raise InadmissibleLambda(
            f"lambda_{i} = {lam:.6g} is not admissible ({thresholds})"
        )
    if verdict == ADMISSIBLE_WEAK:
        warnings.append(f"lambda_{i} admissible only in the weak sense ({thresholds})")
    energy = Energy.scalar(params, lam, fam, nonlin_coeff)
    polish_its = 0

    def fiber(y, t_init):
        tau = scalar_fiber_root(
            ScalarField(y[0], grid.spec), lam, params, fam, grid, nonlin_coeff,
            tau_init=None if t_init is None else t_init[0],
        )
        sample = CellSample(tau * y, grid)
        return (y, (tau,), sample, None), energy.value(sample)

    def polish(x):
        nonlocal polish_its
        sample, res, _converged, its = _newton_krylov_polish(
            x[2].x, energy, grid, opts
        )
        polish_its += its
        return sample, res

    starts = [_bump(grid, grid.spec.lx / 2.0, grid.spec.ly / 2.0, grid.spec.lx / 6.0)]
    for k in range(opts.n_restarts):
        starts.append(_random_positive(grid, _rng(opts.seed, 11, i, k)))

    best, total_iters = _best_polished(
        [z[None] for z in starts], fiber, polish, energy, grid, opts, warnings
    )
    total_iters += polish_its
    if best is None:
        raise NoConvergence(
            f"scalar solve (component {i}) reached no nontrivial state at tol "
            "from any start",
            iterations=total_iters,
        )
    w, energy_val, res = best
    w = _sign_fix(w)[0]
    if not _is_nonnegative(w):
        warnings.append("scalar output is sign-changing; not a ground state?")
    report = ScalarReport(
        energy=energy_val,
        euler_residual_norm=res,
        iterations=total_iters,
        converged=True,
        admissibility=verdict,
        warnings=tuple(warnings),
    )
    return ScalarField(w, grid.spec), energy_val, report


def scalar_levels(
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
    opts: SolverOptions = SolverOptions(),
    warnings: list[str] | None = None,
):
    """Ground fields and levels (z1, z2, L1, L2) of the two scalar problems.

    For symmetric data the two problems are one, solved once.  The
    warnings of the scalar solves are appended to `warnings`, when given,
    prefixed by their problem.
    """
    def solve(i, fam):
        z, level, rep = scalar_ground_state(i, params, fam, grid, opts)
        if warnings is not None:
            warnings.extend(f"scalar problem {i}: {w}" for w in rep.warnings)
        return z, level

    z1, L1 = solve(1, fam1)
    if symmetric_problem(params, fam1, fam2):
        return z1, z1, L1, L1
    z2, L2 = solve(2, fam2)
    return z1, z2, L1, L2


# ---------------------------------------------------------------------------
# systems: one solve for both coupling regimes


def _pair_starts(starts, params, fam1, fam2, grid, opts, sphere, warnings):
    """`_best_polished` on the system energy from the pair stacks `starts`.

    The fiber is `project_to_nehari` (an unprojectable pair is rejected),
    the coercivity bound is checked on each start and on every accepted
    projection, and the polish is `refine_solution`.
    """
    nu = min(fam1.nu, fam2.nu)

    def project(y, t_init):
        proj = project_to_nehari(
            StatePair.from_stack(y, grid.spec), params, fam1, fam2, grid,
            t_init=t_init,
        )
        if not proj.projectable:
            raise NotProjectable(proj.reason)
        return (y, (proj.t.t1, proj.t.t2), proj.sample, proj.residual), proj.energy

    def check(x, energy_val):
        check_coercivity_bound(energy_val, x[2], params, nu, x[3])

    def polish(x):
        u, res, _converged = refine_solution(
            StatePair.from_stack(x[2].x, grid.spec), params, fam1, fam2, grid, opts
        )
        return CellSample(u.stacked(), grid), res

    return _best_polished(
        starts, project, polish, Energy.pair(params, fam1, fam2), grid, opts,
        warnings, check, sphere,
    )


def diagonal_candidate(
    params: ProblemParams,
    fam: CoefficientFamily,
    grid: Grid,
    opts: SolverOptions = SolverOptions(),
    warnings: list[str] | None = None,
) -> tuple[StatePair, float]:
    """Synchronized state (w, w) from the scalar problem with the coupled
    nonlinearity weight 1 + beta; an exact critical point of the system
    when the problem is symmetric.  The warnings of the scalar solve are
    appended to `warnings`, when given."""
    if params.beta <= -1.0:
        raise InvalidParams("diagonal reduction needs 1 + beta > 0")
    w, _e, rep = scalar_ground_state(
        1, params, fam, grid, opts, nonlin_coeff=1.0 + params.beta
    )
    if warnings is not None:
        warnings.extend(f"diagonal scalar problem: {note}" for note in rep.warnings)
    _gr, _q, pp = CellSample(w.values[None], grid).integrals(params.p)
    return StatePair(w, w), float(pp[0])


def _system_starts(params, fam1, fam2, grid, opts, z1, z2, warm_start, warnings):
    """The start stacks of a coupled solve (beta != 0), warm start first.

    Repulsive coupling: the segregated bumps, then random positives
    shaped by them.  Attractive coupling: the diagonal state (symmetric
    data only: otherwise it is no critical point), the near-semitrivial
    pair (z1, eps z2), then random positives.  Each start is followed by
    its mirror, the start that the swapped problem builds with its
    components swapped back, so that the explored set is swap-symmetric:
    y[::-1], and (eps z1, z2) for the near-semitrivial pair.  For
    symmetric data a mirror run is arithmetically identical to its start
    and is skipped.  Ties go to the earlier start.
    """
    symmetric = symmetric_problem(params, fam1, fam2)
    pairs = []  # (start, mirror)
    if params.beta < 0.0:
        envelope, tag = segregated_pair(grid), 21
        y = np.stack(envelope)
        pairs.append((y, y[::-1]))
    else:
        envelope, tag = (1.0, 1.0), 31
        if symmetric:
            diag = diagonal_candidate(params, fam1, grid, opts, warnings)[0].stacked()
            pairs.append((diag, diag))
        eps = 1e-2
        pairs.append((
            np.stack((z1.values, eps * z2.values)),
            np.stack((eps * z1.values, z2.values)),
        ))
    for k in range(opts.n_restarts):
        rng = _rng(opts.seed, tag, k)
        y = np.stack([_random_positive(grid, rng) * e for e in envelope])
        pairs.append((y, y[::-1]))
    starts = [] if warm_start is None else [warm_start.stacked()]
    for y, mirror in pairs:
        starts += [y] if symmetric else [y, mirror]
    return starts


def solve_system(
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
    opts: SolverOptions = SolverOptions(),
    scalar_data=None,
    warm_start: StatePair | None = None,
) -> tuple[StatePair, SolveReport]:
    """Least energy fully nontrivial state of the system, and its report.

    The sign of beta picks the method.  Competitive (beta < 0): the
    reduced energy J(m(v)) is minimized over projectable pairs on the
    sphere product.  Cooperative (beta > 0): each start descends with
    rescaling onto the constraint set.  Both run `_pair_starts` from
    `_system_starts` and report the lowest-energy candidate.  Decoupled
    (beta = 0): the pair of scalar ground states is the solution, and
    `warm_start` has no use.  `scalar_data` may carry precomputed
    (z1, z2, L1, L2) to skip the scalar solves.

    Raises InadmissibleLambda when beta != 0 and (lambda1, lambda2) is not
    below the strong threshold, and NoConvergence when no start reaches a
    candidate.
    """
    beta = params.beta
    if beta < 0.0:
        regime = REGIME_COMPETITIVE
    elif beta > 0.0:
        regime = REGIME_COOPERATIVE
    else:
        regime = REGIME_DECOUPLED
    warnings = []
    if -1.0 <= beta < 0.0:
        warnings.append(
            f"beta = {beta:g} is in [-1, 0): projectability is only "
            "guaranteed below -1"
        )
    mu1 = conservative_mu1(grid)
    nu = min(fam1.nu, fam2.nu)
    lams = (params.lambda1, params.lambda2)
    verdict, thresholds = admissibility(lams, params.p, params.gamma, nu, mu1)
    if beta != 0.0 and verdict != ADMISSIBLE:
        raise InadmissibleLambda(
            f"(lambda1, lambda2) = ({lams[0]:.6g}, {lams[1]:.6g}) is not "
            f"strongly admissible ({thresholds})"
        )
    if scalar_data is None:
        scalar_data = scalar_levels(params, fam1, fam2, grid, opts, warnings)
    z1, z2, L1, L2 = scalar_data

    if beta == 0.0:
        x, iterations = np.stack((z1.values, z2.values)), 0
    else:
        starts = _system_starts(
            params, fam1, fam2, grid, opts, z1, z2, warm_start, warnings
        )
        best, iterations = _pair_starts(
            starts, params, fam1, fam2, grid, opts, beta < 0.0, warnings
        )
        if best is None:
            raise NoConvergence(
                f"no {regime} start reached a fully nontrivial state at tol",
                iterations=iterations,
            )
        x = best[0]

    x = _sign_fix(x)
    sample = CellSample(x, grid)
    energy = Energy.pair(params, fam1, fam2)
    energy_val = energy.value(sample)
    r1, r2 = energy.residuals(sample)
    nontrivial = _fully_nontrivial(sample, params, opts)
    if beta <= 0.0 and nontrivial and not nehari_floors_hold(sample, params, nu, mu1):
        nontrivial = False
        warnings.append("component floors violated; state treated as semi-trivial")
    if beta > 0.0 and energy_val >= min(L1, L2):
        warnings.append(
            f"energy {energy_val:.6g} not below min(L1, L2) = {min(L1, L2):.6g}"
        )
    report = SolveReport(
        energy=energy_val,
        L1=L1,
        L2=L2,
        e_beta_estimate=energy_val,
        euler_residual_norm=_vol_norm(energy.gradient(sample), grid),
        nehari_residual=NehariResidual(float(r1), float(r2)),
        fully_nontrivial=nontrivial,
        nonnegative=_is_nonnegative(x[0]) and _is_nonnegative(x[1]),
        iterations=iterations,
        regime=regime,
        warnings=tuple(warnings),
    )
    return StatePair.from_stack(x, grid.spec), report


# ---------------------------------------------------------------------------
# sweeps

# solver failures a sweep records as an error row; anything else is a bug
_ROW_ERRORS = (
    CoercivityViolation,
    DegenerateInput,
    InadmissibleLambda,
    InvalidParams,
    NoConvergence,
    NotProjectable,
)


@dataclass(frozen=True)
class SweepRow:
    beta: float
    status: str
    report: SolveReport | None = None
    error: str = ""


def beta_sweep(
    beta_list,
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
    opts: SolverOptions = SolverOptions(),
) -> list[SweepRow]:
    """One solve per beta, warm-starting from the previous solution.

    Solver failures never abort the sweep; they are recorded as row-level
    status markers.  Any other exception propagates.  The scalar levels
    are solved once, and their warnings head those of every row report.
    """
    rows: list[SweepRow] = []
    scalar_warnings = []
    scalars = scalar_levels(params, fam1, fam2, grid, opts, scalar_warnings)
    warm = None
    for beta in beta_list:
        if not math.isfinite(beta):
            rows.append(SweepRow(beta=beta, status="error", error="non-finite beta"))
            continue
        p = replace(params, beta=float(beta))
        try:
            u, rep = solve_system(p, fam1, fam2, grid, opts, scalars, warm)
            warm = u
            rep = replace(rep, warnings=(*scalar_warnings, *rep.warnings))
            rows.append(SweepRow(beta=float(beta), status="ok", report=rep))
        except _ROW_ERRORS as exc:  # row-level failure, sweep continues
            rows.append(SweepRow(beta=float(beta), status="error", error=str(exc)))
    return rows
