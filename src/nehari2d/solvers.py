"""Ground-state solvers: scalar, competitive, cooperative, and sweeps.

Scalar ground states minimize the one-component energy over the unit
gradient sphere: each trial direction is rescaled onto the scalar
constraint set by its unique fiber root, and the descent direction is the
Riesz lift of the exact energy gradient projected onto the sphere
tangent.  The repulsive system solver runs the same scheme on the
product of two spheres, with the two-parameter fiber projection supplying
the constrained energy.  The attractive solver has no sphere reduction;
it refines a candidate list (diagonal state, near-semitrivial pair,
random positives) by descent with per-iteration rescaling onto the
constraint set.  The descent only brings a candidate near a critical
point: at Euler residual 1e-2 it hands over to a damped Newton-Krylov
root finder on the exact gradient and Hessian, and resumes only when
that polish fails its guard.

Inside the solvers a state is a bare (k, nx, ny) array, k = 1 for a
scalar problem and k = 2 for a pair, measured by one `energy.Energy`.
The energy, gradient, checks and direction rule of an accepted descent
state read one cell sample of it: for a pair the projection's, for a
field the sample of its rescaled state.

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
    NoFullyNontrivialCandidate,
    NotProjectable,
)
from .fiber import h1_normalize, project_to_nehari, scalar_fiber_root
from .grid import (
    Grid,
    ScalarField,
    StatePair,
    cell_gradients,
    cell_values,
    integrate,
)
from .spectrum import (
    ADMISSIBLE,
    ADMISSIBLE_WEAK,
    INADMISSIBLE,
    admissible,
    strong_threshold,
)

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
    raises DegenerateInput, NoConvergence or NotProjectable to reject the
    step.  `check(x, energy)` runs on every accepted state.

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
            except (DegenerateInput, NoConvergence, NotProjectable):
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


def _descend_and_polish(x, energy_val, gradient, direction, retract, opts,
                        polish, reject, check=None):
    """One start: descend to the Newton handoff residual, then polish.

    The descent (`_descend`'s first five arguments and `check`) stops at
    max(_HANDOFF_RES, 1e2 * tol), and `polish(x)` polishes the state it
    reached.  `reject(result)` says why a polished result fails the
    guard, or returns None.  When it fails and the residual test ended
    the descent above 1e2 * tol, the descent resumes from there, with a
    fresh step and stagnation window and what is left of max_iter, down
    to 1e2 * tol, and the state it reaches is polished instead.  A
    descent ended by anything else is not resumed.

    Returns (result, descent iterations, note); note says why the
    handoff fell back, or is None.
    """
    final = 1e2 * opts.tol
    stop = max(_HANDOFF_RES, final)
    x, energy_val, res, its = _descend(
        x, energy_val, gradient, direction, retract, opts, stop, check
    )
    out = polish(x)
    if not (final < res <= stop and its < opts.max_iter):
        return out, its, None
    reason = reject(out)
    if reason is None:
        return out, its, None
    x, _e, _res, more = _descend(
        x, energy_val, gradient, direction, retract,
        replace(opts, max_iter=opts.max_iter - its), final, check,
    )
    note = f"Newton handoff at res {res:.2e} failed ({reason}); descent resumed"
    return polish(x), its + more, note


def _polish_rejection(res, opts):
    return f"polish stopped at res {res:.2e}" if res > opts.tol else None


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


def _constrained_descent(y0, fiber, energy, grid, opts, polish, reject,
                         check=None, sphere=True):
    """Descent on the constraint set from the stack y0, plus Newton polish.

    `fiber(y, t_init)` maps a stack y onto the constraint set and returns
    (x, energy) for the point x = (y, t, sample, residual): the fiber
    scalings t, the cell sample of the rescaled state w = t y and its
    constraint residuals (or None); it raises to reject y.  The descent
    runs on the Euler gradient of `energy` at w.  On the sphere product
    (`sphere`), y lies on the unit gradient spheres and moves by the
    conjugate lift, and each trial is renormalized and rescaled from the
    current t.  Otherwise a trial steps from w along the plain Riesz lift
    -r and is rescaled from t = (1, 1).  `polish`, `reject` and `check`
    are those of `_descend_and_polish`, and so is the return value.
    """
    def gradient(x):
        g = energy.gradient(x[2])
        return g, _vol_norm(g, grid)

    if sphere:
        y0 = h1_normalize(y0, grid)

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

    x, energy_val = fiber(y0, None)
    if check is not None:
        check(x, energy_val)
    return _descend_and_polish(
        x, energy_val, gradient, direction, retract, opts, polish, reject, check
    )


def _best_polished(starts, descend, keep, energy, opts, warnings):
    """Descend from every start and polish; the lowest-energy result.

    `descend(start)` returns what `_constrained_descent` does, with the
    polished result (sample, res).  Returns (best, descent iterations,
    rejected starts): best is the lowest-energy (state, energy, res)
    among polished states that reach tol and whose sample `keep`
    accepts, or None.  A start whose descent raises is rejected with a
    warning; a Newton handoff that fell back is noted in the warnings too.
    """
    best = None
    energies = []
    total_iters = n_failed = 0
    for k, start in enumerate(starts):
        try:
            (sample, res), its, note = descend(start)
        except (NotProjectable, DegenerateInput, NoConvergence) as exc:
            n_failed += 1
            warnings.append(f"start rejected: {exc}")
            continue
        total_iters += its
        if note is not None:
            warnings.append(f"start {k}: {note}")
        if res <= opts.tol and keep(sample):
            e = energy.value(sample)
            energies.append(e)
            if best is None or e < best[1]:
                best = (sample.x, e, res)
    # distinct converged minimizers are reported, not resolved
    if len(energies) > 1:
        lo, hi = min(energies), max(energies)
        if hi - lo > 1e-8 * (1.0 + abs(lo)):
            warnings.append(
                f"{len(energies)} converged candidates span energies "
                f"[{lo:.10g}, {hi:.10g}]; reporting the lowest"
            )
    return best, total_iters, n_failed


# ---------------------------------------------------------------------------
# Newton-Krylov polish on the exact gradient

# at most this many Newton steps, each with at most this many MINRES iterations
_POLISH_MAX_ITER = 60
_POLISH_INNER_ITER = 400


def _newton_krylov_polish(
    x0: np.ndarray,
    grad_fn,
    energy_fn,
    hess_fn,
    grid: Grid,
    opts: SolverOptions,
):
    """Damped Newton on grad_fn(x) = 0 with the exact Hessian.

    x stacks one nodal array per component.  `hess_fn(x)` returns the
    Jacobian of grad_fn at x as a sparse matrix on the raveled stack; it
    is assembled once per Newton step and inverted approximately by
    MINRES (the matrix is symmetric but may be indefinite at the
    saddle-type critical points sought here), preconditioned by the exact
    -Laplace solve of each component.  Steps are halved until the
    residual norm decreases; accepted steps may not raise the energy
    beyond rounding level.  Converged means res <= tol.  Past tol, Newton
    steps continue while they lower the residual, up to the finishing
    target res <= 1e-2 * tol; a failed line search or the step cap
    between the two thresholds still counts as converged.  Returns (x,
    residual_norm, converged, iterations).
    """
    tol = opts.tol
    shape, n = x0.shape, x0.size
    solve = grid.poisson_solver
    M = LinearOperator(
        (n, n), matvec=lambda r: solve(r.reshape(-1, *grid.shape)).ravel(),
        dtype=float,
    )
    scale = math.sqrt(grid.cell_area)
    x = x0.copy()
    g = grad_fn(x)
    res = float(np.linalg.norm(g)) * scale
    energy_val = energy_fn(x)
    its = 0
    for its in range(1, _POLISH_MAX_ITER + 1):
        if res <= 1e-2 * tol:
            return x, res, True, its - 1
        step, _info = minres(
            hess_fn(x), -g.ravel(), rtol=1e-6, maxiter=_POLISH_INNER_ITER, M=M
        )
        step = step.reshape(shape)
        if not np.all(np.isfinite(step)) or float(np.linalg.norm(step)) == 0.0:
            step = -g

        accepted = False
        s = 1.0
        for _ in range(40):
            x_try = x + s * step
            g_try = grad_fn(x_try)
            res_try = float(np.linalg.norm(g_try)) * scale
            if res_try < res:
                e_try = energy_fn(x_try)
                if e_try <= energy_val + 1e-11 * (1.0 + abs(energy_val)):
                    x, g, res, energy_val = x_try, g_try, res_try, e_try
                    accepted = True
                    break
            s *= 0.5
        if not accepted:
            return x, res, res <= tol, its
    return x, res, res <= tol, its


def _polish(x0, energy, grid, opts, gradient=None):
    """Newton-Krylov polish of the state stack x0 on `energy`; `gradient`
    replaces its Euler gradient when given."""
    def sampled(method):
        return lambda x: method(CellSample(x, grid))

    return _newton_krylov_polish(
        x0, gradient or sampled(energy.gradient), sampled(energy.value),
        sampled(energy.hessian), grid, opts,
    )


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
    def gradient(x):
        pair = StatePair.from_stack(x, grid.spec)
        return euler_gradient(pair, params, fam1, fam2, grid).stacked()

    x, res, converged, _its = _polish(
        u.stacked(), Energy.pair(params, fam1, fam2), grid, opts, gradient
    )
    return StatePair.from_stack(x, grid.spec), res, converged


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
    constraint set, and the handoff guard is that the polish converged.
    The output is sign-normalized to the nonnegative representative (the
    energy is even in the field).  `nonlin_coeff` weights the |z|^(p-2) z
    term; the default 1 is the plain scalar problem.

    Raises InadmissibleLambda when lambda_i reaches nu * mu1.
    """
    lam = params.lam(i)
    mu1 = conservative_mu1(grid)
    verdict = _scalar_admissibility(lam, params, fam, mu1)
    warnings = []
    if verdict == INADMISSIBLE:
        raise InadmissibleLambda(
            f"lambda_{i} = {lam:.6g} is not below nu*mu1 = {fam.nu * mu1:.6g}"
        )
    if verdict == ADMISSIBLE_WEAK:
        warnings.append(
            f"lambda_{i} admissible only in the weak sense "
            f"(threshold {strong_threshold(params.p, params.gamma, fam.nu, mu1):.6g})"
        )
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
        w, res, _converged, its = _polish(x[2].x, energy, grid, opts)
        polish_its += its
        return CellSample(w, grid), res

    starts = [_bump(grid, grid.spec.lx / 2.0, grid.spec.ly / 2.0, grid.spec.lx / 6.0)]
    for k in range(opts.n_restarts):
        starts.append(_random_positive(grid, _rng(opts.seed, 11, i, k)))

    best, total_iters, _n_failed = _best_polished(
        starts,
        lambda z0: _constrained_descent(
            z0[None], fiber, energy, grid, opts, polish,
            lambda out: _polish_rejection(out[1], opts),
        ),
        lambda sample: True, energy, opts, warnings,
    )
    total_iters += polish_its
    if best is None:
        raise NoConvergence(
            f"scalar solve (component {i}) did not reach tol from any start",
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


def _scalar_admissibility(lam, params, fam, mu1):
    probe = ProblemParams(lam, lam, params.beta, params.p, params.gamma)
    return admissible(probe, fam.nu, params.gamma, mu1)


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
# systems: admissibility, descent and report


def _require_admissible(params, fam1, fam2, grid) -> float:
    mu1 = conservative_mu1(grid)
    nu = min(fam1.nu, fam2.nu)
    verdict = admissible(params, nu, params.gamma, mu1)
    if verdict != ADMISSIBLE:
        raise InadmissibleLambda(
            f"(lambda1, lambda2) = ({params.lambda1:.6g}, {params.lambda2:.6g}) "
            f"not below the threshold "
            f"{strong_threshold(params.p, params.gamma, nu, mu1):.6g}"
        )
    return mu1


def _system_descent(y0, params, fam1, fam2, grid, opts, nu, sphere):
    """Descent of the system energy on the constraint set from the pair
    stack y0, plus Newton polish (`_constrained_descent`).

    The fiber is the projection onto the constraint set.  The coercivity
    bound is checked on the start and on every accepted projection.  The
    polish is `refine_solution`, and its guard is that the polish
    converged to a fully nontrivial state.  Returns ((sample of the
    polished state, res), descent iterations, note); raises
    NotProjectable when y0 is not projectable.
    """
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

    def reject(out):
        sample, res = out
        if res <= opts.tol and not _fully_nontrivial(sample, params, opts):
            return "semi-trivial state"
        return _polish_rejection(res, opts)

    return _constrained_descent(
        y0, project, Energy.pair(params, fam1, fam2), grid, opts, polish, reject,
        check, sphere,
    )


def _finalize_system(
    x: np.ndarray,
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
    opts: SolverOptions,
    regime: str,
    iterations: int,
    L1: float,
    L2: float,
    warnings: list[str],
) -> tuple[StatePair, SolveReport]:
    """The sign-normalized pair of the stack x and its report."""
    x = _sign_fix(x)
    sample = CellSample(x, grid)
    energy = Energy.pair(params, fam1, fam2)
    energy_val = energy.value(sample)
    r1, r2 = energy.residuals(sample)

    nontrivial = _fully_nontrivial(sample, params, opts)
    if params.beta <= 0.0 and nontrivial:
        nu = min(fam1.nu, fam2.nu)
        if not nehari_floors_hold(sample, params, nu, conservative_mu1(grid)):
            nontrivial = False
            warnings.append("component floors violated; state treated as semi-trivial")

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
# competitive regime (repulsive coupling)


def competitive_least_energy(
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
    opts: SolverOptions = SolverOptions(),
    scalar_data=None,
    warm_start: StatePair | None = None,
) -> tuple[StatePair, SolveReport]:
    """Least energy fully nontrivial state for repulsive coupling (beta < 0).

    Minimizes the reduced energy J(m(v)) over projectable pairs on the
    sphere product, from segregated and random starts, then polishes the
    winner in the full space.  `scalar_data` may carry precomputed
    (z1, z2, L1, L2) to skip the scalar solves.
    """
    if params.beta >= 0.0:
        raise InvalidParams(f"competitive solver needs beta < 0, got {params.beta}")
    warnings = []
    if params.beta >= -1.0:
        warnings.append(
            f"beta = {params.beta:g} is in [-1, 0): projectability is only "
            "guaranteed below -1"
        )
    _require_admissible(params, fam1, fam2, grid)
    nu = min(fam1.nu, fam2.nu)

    if scalar_data is None:
        z1, z2, L1, L2 = scalar_levels(params, fam1, fam2, grid, opts, warnings)
    else:
        z1, z2, L1, L2 = scalar_data

    # mirrored copies keep the explored candidate set swap-symmetric; for
    # symmetric data the mirror run is arithmetically identical, so skip it
    mirror = not symmetric_problem(params, fam1, fam2)
    left, right = segregated_pair(grid)
    starts = [] if warm_start is None else [warm_start.stacked()]
    pairs = [np.stack((left, right))]
    for k in range(opts.n_restarts):
        rng = _rng(opts.seed, 21, k)
        pairs.append(np.stack((
            _random_positive(grid, rng) * left, _random_positive(grid, rng) * right
        )))
    for y in pairs:
        starts += [y, y[::-1]] if mirror else [y]

    best, total_iters, n_failed = _best_polished(
        starts,
        lambda y: _system_descent(y, params, fam1, fam2, grid, opts, nu, True),
        lambda sample: True, Energy.pair(params, fam1, fam2), opts, warnings,
    )
    if best is None:
        raise NoConvergence(
            f"no competitive start converged ({n_failed} rejected)",
            iterations=total_iters,
        )
    return _finalize_system(
        best[0], params, fam1, fam2, grid, opts, REGIME_COMPETITIVE,
        total_iters, L1, L2, warnings,
    )


# ---------------------------------------------------------------------------
# cooperative regime (attractive coupling)


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
    pp = integrate(np.abs(cell_values(w.values, grid)) ** params.p, grid)
    return StatePair(w, w), pp


def cooperative_least_energy(
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
    opts: SolverOptions = SolverOptions(),
    scalar_data=None,
    warm_start: StatePair | None = None,
) -> tuple[StatePair, SolveReport]:
    """Least energy fully nontrivial candidate for attractive coupling.

    Builds candidates (synchronized diagonal state when the problem is
    symmetric, near-semitrivial pairs, random positives), refines each by
    rescaled descent plus Newton polish, and returns the lowest-energy
    fully nontrivial critical point.
    """
    if params.beta <= 0.0:
        raise InvalidParams(f"cooperative solver needs beta > 0, got {params.beta}")
    warnings = []
    _require_admissible(params, fam1, fam2, grid)
    nu = min(fam1.nu, fam2.nu)

    if scalar_data is None:
        z1, z2, L1, L2 = scalar_levels(params, fam1, fam2, grid, opts, warnings)
    else:
        z1, z2, L1, L2 = scalar_data

    symmetric = symmetric_problem(params, fam1, fam2)
    mirror = not symmetric
    starts = [] if warm_start is None else [warm_start.stacked()]
    if symmetric:
        diag, _pp = diagonal_candidate(params, fam1, grid, opts, warnings)
        starts.append(diag.stacked())
    eps = 1e-2
    starts.append(np.stack((z1.values, eps * z2.values)))
    if mirror:
        starts.append(np.stack((eps * z1.values, z2.values)))
    for k in range(opts.n_restarts):
        rng = _rng(opts.seed, 31, k)
        y = np.stack((_random_positive(grid, rng), _random_positive(grid, rng)))
        starts += [y, y[::-1]] if mirror else [y]

    # a state that collapsed to a semi-trivial one is not a candidate
    best, total_iters, _n_failed = _best_polished(
        starts,
        lambda y: _system_descent(y, params, fam1, fam2, grid, opts, nu, False),
        lambda sample: _fully_nontrivial(sample, params, opts),
        Energy.pair(params, fam1, fam2), opts, warnings,
    )
    if best is None:
        raise NoFullyNontrivialCandidate(
            "every cooperative candidate collapsed or failed to converge"
        )
    u, report = _finalize_system(
        best[0], params, fam1, fam2, grid, opts, REGIME_COOPERATIVE,
        total_iters, L1, L2, warnings,
    )
    if report.energy >= min(L1, L2):
        report = replace(
            report,
            warnings=report.warnings
            + (f"energy {report.energy:.6g} not below min(L1, L2) = {min(L1, L2):.6g}",),
        )
    return u, report


# ---------------------------------------------------------------------------
# beta = 0 and sweeps


def decoupled_solution(
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
    opts: SolverOptions = SolverOptions(),
    scalar_data=None,
) -> tuple[StatePair, SolveReport]:
    """beta = 0: the pair of scalar ground states solves the system."""
    warnings = []
    if scalar_data is None:
        z1, z2, L1, L2 = scalar_levels(params, fam1, fam2, grid, opts, warnings)
    else:
        z1, z2, L1, L2 = scalar_data
    return _finalize_system(
        np.stack((z1.values, z2.values)), params, fam1, fam2, grid, opts,
        REGIME_DECOUPLED, 0, L1, L2, warnings,
    )


def solve_system(
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
    opts: SolverOptions = SolverOptions(),
    scalar_data=None,
    warm_start: StatePair | None = None,
) -> tuple[StatePair, SolveReport]:
    """The least energy state by the solver for the sign of beta:
    competitive below 0, cooperative above, decoupled at 0 (which has no
    use for `warm_start`)."""
    args = (params, fam1, fam2, grid, opts, scalar_data)
    if params.beta < 0.0:
        return competitive_least_energy(*args, warm_start)
    if params.beta > 0.0:
        return cooperative_least_energy(*args, warm_start)
    return decoupled_solution(*args)


# solver failures a sweep records as an error row; anything else is a bug
_ROW_ERRORS = (
    CoercivityViolation,
    DegenerateInput,
    InadmissibleLambda,
    InvalidParams,
    NoConvergence,
    NoFullyNontrivialCandidate,
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
