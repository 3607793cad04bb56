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
    NehariResidual,
    ProblemParams,
    euler_gradient,
    nehari_residual,
    pair_hessian,
    scalar_energy_c,
    scalar_euler_gradient_c,
    scalar_hessian_c,
    total_energy,
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
from .fiber import (
    ProjectionOptions,
    project_to_nehari,
    scalar_fiber_root,
    sphere_normalize,
)
from .grid import (
    Grid,
    ScalarField,
    StatePair,
    cell_gradients_of,
    cell_values,
    grad_sq,
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
    nehari_tol: float = 1e-10      # fiber rescale tolerance (relative)
    max_iter: int = 2000
    n_restarts: int = 2            # random starts; each explored in both orders
    seed: int = 0
    armijo: float = 1e-4
    stagnation_tol: float = 1e-12
    stagnation_window: int = 20
    scan_t_min: float = 1e-3
    scan_t_max: float = 1e3
    scan_n: int = 64
    polish_max_iter: int = 60
    polish_inner_iter: int = 400
    check_coercivity: bool = True

    def projection(self) -> ProjectionOptions:
        return ProjectionOptions(
            t_min=self.scan_t_min,
            t_max=self.scan_t_max,
            n_scan=self.scan_n,
            tol=self.nehari_tol,
        )


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


def _riesz(values: np.ndarray, grid: Grid) -> np.ndarray:
    """H1 lift of a function-space gradient: exact 5-point -Laplace solve."""
    return grid.poisson_solver(values)


def _grad_inner(a, b, grid: Grid) -> float:
    """Quadrature <grad a, grad b> from the cell gradients a = (ax, ay), b."""
    return float(np.sum(a[0] * b[0] + a[1] * b[1])) * grid.cell_area


def _h1_normalize(values: np.ndarray, grid: Grid) -> np.ndarray:
    g = cell_gradients_of(values, grid)
    nrm = math.sqrt(_grad_inner(g, g, grid))
    if nrm == 0.0:
        raise DegenerateInput("cannot normalize a gradient-free field")
    return values / nrm


def _sign_fix(values: np.ndarray) -> np.ndarray:
    return -values if float(np.sum(values)) < 0.0 else values


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


def _component_integrals(u: StatePair, params, grid: Grid):
    """(int |grad u_i|^2, int u_i^2, int |u_i|^p) per component."""
    out = []
    for comp in (u.u1, u.u2):
        v = cell_values(comp, grid)
        gsq = grad_sq(comp, grid)
        out.append(
            (
                float(np.sum(gsq)) * grid.cell_area,
                float(np.sum(v * v)) * grid.cell_area,
                float(np.sum(np.abs(v) ** params.p)) * grid.cell_area,
            )
        )
    return out


def check_coercivity_bound(
    energy_val: float,
    u: StatePair,
    params: ProblemParams,
    nu: float,
    mu1: float,
    grid: Grid,
    residual: NehariResidual,
) -> None:
    """Abort when a constrained iterate undercuts the coercivity bound.

    On the constraint set the energy dominates
    (p-2-gamma)/(2p) * nu * sum_i int |grad u_i|^2
        - (p-2)/(2p) * sum_i lambda_i int u_i^2,
    an exact consequence of the growth hypothesis on the profiles.  The
    slack absorbs quadrature roundoff and the distance of the iterate
    from the constraint set (measured by the residuals).
    """
    p, g = params.p, params.gamma
    ints = _component_integrals(u, params, grid)
    bound = sum(
        (p - 2.0 - g) / (2.0 * p) * nu * gr - (p - 2.0) / (2.0 * p) * lam * q
        for (gr, q, _), lam in zip(ints, (params.lambda1, params.lambda2))
    )
    slack = 1e-8 * (1.0 + abs(energy_val)) + abs(residual.r1) + abs(residual.r2)
    if energy_val < bound - slack:
        raise CoercivityViolation(
            f"constrained energy {energy_val:.12g} fell below the bound "
            f"{bound:.12g} (residuals {residual.r1:.3e}, {residual.r2:.3e})"
        )


def nehari_floors_hold(
    u: StatePair, params: ProblemParams, nu: float, mu1: float, grid: Grid
) -> bool:
    """Component floors nu*(1 - max(lam,0)/(nu*mu1)) int|grad u_i|^2 <= int|u_i|^p.

    Valid for constraint-set members with non-attractive coupling
    (beta <= 0); negative lambdas enter through their positive part since
    the spectral bound only helps against positive ones.
    """
    ints = _component_integrals(u, params, grid)
    for (gr, _q, pp), lam in zip(ints, (params.lambda1, params.lambda2)):
        lhs = nu * (1.0 - max(lam, 0.0) / (nu * mu1)) * gr
        if lhs > pp + 1e-10 * (1.0 + abs(pp)):
            return False
    return True


# ---------------------------------------------------------------------------
# the descent driver


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
    fell by no more than stagnation_tol over the last stagnation_window
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
            if e_try <= energy_val + opts.armijo * a * slope:
                break
            a *= 0.5
        else:
            break
        x, energy_val = x_try, e_try
        if check is not None:
            check(x, energy_val)
        alpha = min(a * 2.0, 1e3)
        history.append(energy_val)
        if len(history) > opts.stagnation_window and (
            history[-opts.stagnation_window - 1] - energy_val
            <= opts.stagnation_tol * (1.0 + abs(energy_val))
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


def _conjugate_lift(gs, vs, ts, grid, memo):
    """Conjugate direction from the sphere-tangent Riesz lift.

    pg_i is the Riesz lift r_i of g_i projected onto the H1 tangent space
    of the sphere at v_i, and <g, pg> = sum_i t_i <g_i, pg_i> (t_i scales
    v_i onto the constraint set).  The direction is -pg + beta T(d_prev),
    with T the tangent projection at the vs and beta the Polak-Ribiere
    value clamped to [0, Fletcher-Reeves]; `memo` carries (pg, <g, pg>, d)
    from the last step of the same descent, or is None.  Where a direction
    is not one of descent the rule restarts from -pg, and from the plain
    lift -r where -pg is not one either.  Returns (directions, slope
    sum_i t_i <g_i, d_i>, memo).
    """
    vgs = [cell_gradients_of(v, grid) for v in vs]

    def tangent(ds):
        return [
            d - _grad_inner(cell_gradients_of(d, grid), vg, grid)
            / _grad_inner(vg, vg, grid) * v
            for d, v, vg in zip(ds, vs, vgs)
        ]

    def dot(a, b):
        return sum(
            t * grid.cell_area * float(np.sum(x * y)) for x, y, t in zip(a, b, ts)
        )

    rs = [_riesz(g, grid) for g in gs]
    pgs = tangent(rs)
    gpg = dot(gs, pgs)
    ds, slope = [-pg for pg in pgs], -gpg
    if memo is not None and memo[1] > 0.0:
        pgs0, gpg0, ds0 = memo
        beta = max(0.0, min(gpg - dot(gs, pgs0), gpg) / gpg0)
        if beta > 0.0:
            cg = [d + beta * td for d, td in zip(ds, tangent(ds0))]
            s_cg = dot(gs, cg)
            if s_cg < 0.0:
                ds, slope = cg, s_cg
    if slope >= 0.0:
        ds = [-r for r in rs]
        slope = dot(gs, ds)
    return ds, slope, (pgs, gpg, ds)


# ---------------------------------------------------------------------------
# Newton-Krylov polish on the exact gradient


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
    product with the Jacobian of grad_fn at x; it is built once per
    Newton step and inverted approximately by MINRES (the operator is
    symmetric but may be indefinite at the saddle-type critical points
    sought here), preconditioned by the exact -Laplace solve of each
    component.  Steps are halved until the residual norm decreases;
    accepted steps may not raise the energy beyond rounding level.
    Converged means res <= tol.  Past tol, Newton steps continue while
    they lower the residual, up to the finishing target res <= 1e-2 * tol;
    a failed line search or the step cap between the two thresholds still
    counts as converged.  Returns (x, residual_norm, converged,
    iterations).
    """
    tol = opts.tol
    solve = grid.poisson_solver

    def precond(r):
        blocks = np.split(r, r.size // grid.spec.n_nodes)
        return np.concatenate([solve(b.reshape(grid.shape)).ravel() for b in blocks])

    scale = math.sqrt(grid.cell_area)
    x = x0.copy()
    M = LinearOperator((x.size, x.size), matvec=precond, dtype=float)
    g = grad_fn(x)
    res = float(np.linalg.norm(g)) * scale
    energy_val = energy_fn(x)
    its = 0
    for its in range(1, opts.polish_max_iter + 1):
        if res <= 1e-2 * tol:
            return x, res, True, its - 1
        op = LinearOperator((x.size, x.size), matvec=hess_fn(x), dtype=float)
        step, _info = minres(
            op, -g, rtol=1e-6, maxiter=opts.polish_inner_iter, M=M
        )
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
    n = grid.spec.n_nodes

    def unpack(x):
        return StatePair(
            ScalarField(x[:n].reshape(grid.shape), grid.spec),
            ScalarField(x[n:].reshape(grid.shape), grid.spec),
        )

    def grad_fn(x):
        g = euler_gradient(unpack(x), params, fam1, fam2, grid)
        return np.concatenate([g.u1.values.ravel(), g.u2.values.ravel()])

    def energy_fn(x):
        return total_energy(unpack(x), params, fam1, fam2, grid)

    def hess_fn(x):
        hess = pair_hessian(unpack(x), params, fam1, fam2, grid)

        def matvec(d):
            h1, h2 = hess(d[:n].reshape(grid.shape), d[n:].reshape(grid.shape))
            return np.concatenate([h1.ravel(), h2.ravel()])

        return matvec

    x0 = np.concatenate([u.u1.values.ravel(), u.u2.values.ravel()])
    x, res, converged, _its = _newton_krylov_polish(
        x0, grad_fn, energy_fn, hess_fn, grid, opts
    )
    return unpack(x), res, converged


def _refine_scalar(z, lam, params, fam, grid, opts, nonlin_coeff=1.0):
    def grad_fn(x):
        fld = ScalarField(x.reshape(grid.shape), grid.spec)
        return scalar_euler_gradient_c(
            fld, lam, params.p, fam, grid, nonlin_coeff
        ).values.ravel()

    def energy_fn(x):
        fld = ScalarField(x.reshape(grid.shape), grid.spec)
        return scalar_energy_c(fld, lam, params.p, fam, grid, nonlin_coeff)

    def hess_fn(x):
        fld = ScalarField(x.reshape(grid.shape), grid.spec)
        hess = scalar_hessian_c(fld, lam, params.p, fam, grid, nonlin_coeff)
        return lambda d: hess(d.reshape(grid.shape)).ravel()

    x, res, converged, its = _newton_krylov_polish(
        z.values.ravel(), grad_fn, energy_fn, hess_fn, grid, opts
    )
    return ScalarField(x.reshape(grid.shape), grid.spec), res, converged, its


# ---------------------------------------------------------------------------
# scalar ground state


def _scalar_descent(z0, lam, params, fam, grid, opts, nonlin_coeff=1.0):
    """Sphere-constrained descent plus Newton polish from one start.

    A point is (v, tau, w): v on the unit gradient sphere, tau its fiber
    root and w = tau v on the constraint set.  The handoff guard is that
    the polish converged.  Returns (w, energy, res, iterations, note),
    counting descent and polish iterations, with note as in
    `_descend_and_polish`.
    """
    p = params.p
    polish_its = 0

    def on_fiber(v, tau_guess=None):
        tau = scalar_fiber_root(
            ScalarField(v, grid.spec), lam, params, fam, grid, nonlin_coeff,
            tau_init=tau_guess,
        )
        w = ScalarField(tau * v, grid.spec)
        return (v, tau, w), scalar_energy_c(w, lam, p, fam, grid, nonlin_coeff)

    def gradient(x):
        g = scalar_euler_gradient_c(x[2], lam, p, fam, grid, nonlin_coeff).values
        return [g], _vol_norm(g, grid)

    def direction(x, gs, memo):
        return _conjugate_lift(gs, [x[0]], [x[1]], grid, memo)

    def retract(x, ds, a):
        return on_fiber(_h1_normalize(x[0] + a * ds[0], grid), tau_guess=x[1])

    def polish(x):
        nonlocal polish_its
        w, res, _converged, its = _refine_scalar(
            x[2], lam, params, fam, grid, opts, nonlin_coeff
        )
        polish_its += its
        return w, scalar_energy_c(w, lam, p, fam, grid, nonlin_coeff), res

    x, energy_val = on_fiber(_h1_normalize(np.asarray(z0, dtype=float), grid))
    (w, energy_val, res), its, note = _descend_and_polish(
        x, energy_val, gradient, direction, retract, opts, polish,
        lambda out: _polish_rejection(out[2], opts),
    )
    return w, energy_val, res, its + polish_its, note


def scalar_ground_state(
    i: int,
    params: ProblemParams,
    fam: CoefficientFamily,
    grid: Grid,
    opts: SolverOptions = SolverOptions(),
    nonlin_coeff: float = 1.0,
) -> tuple[ScalarField, float, ScalarReport]:
    """Least energy state of the one-component problem, and its level.

    Multistart sphere descent plus Newton polish.  The output is
    sign-normalized to the nonnegative representative (the energy is even
    in the field).  `nonlin_coeff` weights the |z|^(p-2) z term; the
    default 1 is the plain scalar problem.

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

    starts = [_bump(grid, grid.spec.lx / 2.0, grid.spec.ly / 2.0, grid.spec.lx / 6.0)]
    for k in range(opts.n_restarts):
        starts.append(_random_positive(grid, _rng(opts.seed, 11, i, k)))

    best = None
    total_iters = 0
    for k, z0 in enumerate(starts):
        w, energy_val, res, its, note = _scalar_descent(
            z0, lam, params, fam, grid, opts, nonlin_coeff
        )
        total_iters += its
        if note is not None:
            warnings.append(f"start {k}: {note}")
        if res <= opts.tol and (best is None or energy_val < best[1]):
            best = (w, energy_val, res)
    if best is None:
        raise NoConvergence(
            f"scalar solve (component {i}) did not reach tol from any start",
            iterations=total_iters,
        )
    w, energy_val, res = best
    w = ScalarField(_sign_fix(w.values), grid.spec)
    if not _is_nonnegative(w.values):
        warnings.append("scalar output is sign-changing; not a ground state?")
    report = ScalarReport(
        energy=energy_val,
        euler_residual_norm=res,
        iterations=total_iters,
        converged=True,
        admissibility=verdict,
        warnings=tuple(warnings),
    )
    return w, energy_val, report


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
# competitive regime (repulsive coupling)


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


def _pair_res_norm(g: StatePair, grid: Grid) -> float:
    return math.sqrt(
        grid.cell_area
        * (float(np.sum(g.u1.values**2)) + float(np.sum(g.u2.values**2)))
    )


def _system_descent(u0, params, fam1, fam2, grid, opts, mu1, nu, direction,
                    trial):
    """Descent of the system energy on the constraint set from the pair u0,
    plus Newton polish.

    A point is (pair, proj): a pair and its projection onto the
    constraint set, which is the retraction.  `direction(x, g, grid)` is
    the direction rule; `trial(x, d, a, grid)` gives the pair at step a
    and the projection's warm start.  The coercivity bound is checked on the
    start and on every accepted projection.  The handoff guard is that the
    polish converged to a fully nontrivial state.  Returns ((state, res,
    converged), descent iterations, note), with note as in
    `_descend_and_polish`; raises NotProjectable when u0 is not
    projectable.
    """
    proj_opts = opts.projection()

    def project(pair, t_init=None):
        proj = project_to_nehari(
            pair, params, fam1, fam2, grid, proj_opts, t_init=t_init
        )
        if not proj.projectable:
            raise NotProjectable(proj.reason)
        return (pair, proj), total_energy(proj.projected, params, fam1, fam2, grid)

    def gradient(x):
        g = euler_gradient(x[1].projected, params, fam1, fam2, grid)
        return (g.u1.values, g.u2.values), _pair_res_norm(g, grid)

    def check(x, energy_val):
        if opts.check_coercivity:
            proj = x[1]
            check_coercivity_bound(
                energy_val, proj.projected, params, nu, mu1, grid, proj.residual
            )

    def polish(x):
        return refine_solution(x[1].projected, params, fam1, fam2, grid, opts)

    def reject(out):
        u, res, _converged = out
        if res <= opts.tol and not _fully_nontrivial(u, params, grid, opts):
            return "semi-trivial state"
        return _polish_rejection(res, opts)

    x, energy_val = project(u0)
    check(x, energy_val)
    return _descend_and_polish(
        x, energy_val, gradient, lambda x, gs, memo: direction(x, gs, memo, grid),
        lambda x, ds, a: project(*trial(x, ds, a, grid)), opts, polish,
        reject, check,
    )


def _sphere_direction(x, gs, memo, grid):
    """Conjugate lift at the pair x[0], slopes weighted by the fiber t."""
    v, proj = x
    return _conjugate_lift(
        gs, (v.u1.values, v.u2.values), (proj.t.t1, proj.t.t2), grid, memo
    )


def _sphere_trial(x, ds, a, grid):
    """Step on the sphere product, warm-started at the current fiber t."""
    v, proj = x
    pair = StatePair(
        ScalarField(_h1_normalize(v.u1.values + a * ds[0], grid), grid.spec),
        ScalarField(_h1_normalize(v.u2.values + a * ds[1], grid), grid.spec),
    )
    return pair, (proj.t.t1, proj.t.t2)


def _fully_nontrivial(u: StatePair, params, grid: Grid, opts) -> bool:
    ints = _component_integrals(u, params, grid)
    return all(pp > 1e3 * opts.tol for (_g, _q, pp) in ints)


def _best_polished(starts, descend, keep, params, fam1, fam2, grid, opts,
                   warnings):
    """Descend from every start and polish; the lowest-energy result.

    `descend(start)` returns what `_system_descent` does.  Returns (best,
    descent iterations, rejected starts): best is the lowest-energy
    (state, energy) among polished states that reach tol and that
    `keep(state)` accepts, or None.  A start whose descent raises is
    rejected with a warning; a Newton handoff that fell back is noted in
    the warnings too.
    """
    best = None
    energies = []
    total_iters = n_failed = 0
    for k, start in enumerate(starts):
        try:
            (u, res, _conv), its, note = descend(start)
        except (NotProjectable, DegenerateInput, NoConvergence) as exc:
            n_failed += 1
            warnings.append(f"start rejected: {exc}")
            continue
        total_iters += its
        if note is not None:
            warnings.append(f"start {k}: {note}")
        if res <= opts.tol and keep(u):
            e = total_energy(u, params, fam1, fam2, grid)
            energies.append(e)
            if best is None or e < best[1]:
                best = (u, e)
    # distinct converged minimizers are reported, not resolved
    if len(energies) > 1:
        lo, hi = min(energies), max(energies)
        if hi - lo > 1e-8 * (1.0 + abs(lo)):
            warnings.append(
                f"{len(energies)} converged candidates span energies "
                f"[{lo:.10g}, {hi:.10g}]; reporting the lowest"
            )
    return best, total_iters, n_failed


def _finalize_system(
    u: StatePair,
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
    u = StatePair(
        ScalarField(_sign_fix(u.u1.values), grid.spec),
        ScalarField(_sign_fix(u.u2.values), grid.spec),
    )
    energy_val = total_energy(u, params, fam1, fam2, grid)
    g = euler_gradient(u, params, fam1, fam2, grid)
    res_norm = _pair_res_norm(g, grid)
    resid = nehari_residual(u, params, fam1, fam2, grid)
    nu = min(fam1.nu, fam2.nu)
    mu1 = conservative_mu1(grid)

    nontrivial = _fully_nontrivial(u, params, grid, opts)
    if params.beta <= 0.0 and nontrivial:
        if not nehari_floors_hold(u, params, nu, mu1, grid):
            nontrivial = False
            warnings.append("component floors violated; state treated as semi-trivial")
    nonneg = _is_nonnegative(u.u1.values) and _is_nonnegative(u.u2.values)

    report = SolveReport(
        energy=energy_val,
        L1=L1,
        L2=L2,
        e_beta_estimate=energy_val,
        euler_residual_norm=res_norm,
        nehari_residual=resid,
        fully_nontrivial=nontrivial,
        nonnegative=nonneg,
        iterations=iterations,
        regime=regime,
        warnings=tuple(warnings),
    )
    return u, report


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
    mu1 = _require_admissible(params, fam1, fam2, grid)
    nu = min(fam1.nu, fam2.nu)

    if scalar_data is None:
        z1, z2, L1, L2 = scalar_levels(params, fam1, fam2, grid, opts, warnings)
    else:
        z1, z2, L1, L2 = scalar_data

    # mirrored copies keep the explored candidate set swap-symmetric; for
    # symmetric data the mirror run is arithmetically identical, so skip it
    mirror = not symmetric_problem(params, fam1, fam2)
    left, right = segregated_pair(grid)
    starts: list[StatePair] = []
    if warm_start is not None:
        starts.append(warm_start)
    starts.append(StatePair(ScalarField(left, grid.spec), ScalarField(right, grid.spec)))
    if mirror:
        starts.append(
            StatePair(ScalarField(right, grid.spec), ScalarField(left, grid.spec))
        )
    for k in range(opts.n_restarts):
        rng = _rng(opts.seed, 21, k)
        f = _random_positive(grid, rng) * left
        g_ = _random_positive(grid, rng) * right
        starts.append(StatePair(ScalarField(f, grid.spec), ScalarField(g_, grid.spec)))
        if mirror:
            starts.append(
                StatePair(ScalarField(g_, grid.spec), ScalarField(f, grid.spec))
            )

    def descend(start):
        return _system_descent(
            sphere_normalize(start, grid), params, fam1, fam2, grid, opts, mu1,
            nu, _sphere_direction, _sphere_trial,
        )

    best, total_iters, n_failed = _best_polished(
        starts, descend, lambda u: True, params, fam1, fam2, grid, opts, warnings
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


def _riesz_direction(x, gs, memo, grid):
    """Plain Riesz lift -r of both gradient components; keeps no memo."""
    ds = [-_riesz(g, grid) for g in gs]
    return ds, grid.cell_area * (
        float(np.sum(gs[0] * ds[0])) + float(np.sum(gs[1] * ds[1]))
    ), None


def _rescale_trial(x, ds, a, grid):
    """Step from the projected state, rescaled from t = (1, 1)."""
    u = x[1].projected
    pair = StatePair(
        ScalarField(u.u1.values + a * ds[0], grid.spec),
        ScalarField(u.u2.values + a * ds[1], grid.spec),
    )
    return pair, (1.0, 1.0)


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
    pair = StatePair(w, w)
    pp = integrate(np.abs(cell_values(w, grid)) ** params.p, grid)
    return pair, pp


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
    mu1 = _require_admissible(params, fam1, fam2, grid)
    nu = min(fam1.nu, fam2.nu)

    if scalar_data is None:
        z1, z2, L1, L2 = scalar_levels(params, fam1, fam2, grid, opts, warnings)
    else:
        z1, z2, L1, L2 = scalar_data

    symmetric = symmetric_problem(params, fam1, fam2)
    mirror = not symmetric
    starts: list[StatePair] = []
    if warm_start is not None:
        starts.append(warm_start)
    if symmetric:
        diag, _pp = diagonal_candidate(params, fam1, grid, opts, warnings)
        starts.append(diag)
    eps = 1e-2
    starts.append(StatePair(z1, ScalarField(eps * z2.values, grid.spec)))
    if mirror:
        starts.append(StatePair(ScalarField(eps * z1.values, grid.spec), z2))
    for k in range(opts.n_restarts):
        rng = _rng(opts.seed, 31, k)
        f = _random_positive(grid, rng)
        g_ = _random_positive(grid, rng)
        starts.append(StatePair(ScalarField(f, grid.spec), ScalarField(g_, grid.spec)))
        if mirror:
            starts.append(
                StatePair(ScalarField(g_, grid.spec), ScalarField(f, grid.spec))
            )

    def descend(start):
        return _system_descent(
            start, params, fam1, fam2, grid, opts, mu1, nu, _riesz_direction,
            _rescale_trial,
        )

    # a state that collapsed to a semi-trivial one is not a candidate
    best, total_iters, _n_failed = _best_polished(
        starts, descend, lambda u: _fully_nontrivial(u, params, grid, opts),
        params, fam1, fam2, grid, opts, warnings,
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
    u = StatePair(z1, z2)
    return _finalize_system(
        u, params, fam1, fam2, grid, opts, REGIME_DECOUPLED, 0, L1, L2, warnings,
    )


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
            if beta < 0.0:
                u, rep = competitive_least_energy(
                    p, fam1, fam2, grid, opts, scalar_data=scalars, warm_start=warm
                )
            elif beta > 0.0:
                u, rep = cooperative_least_energy(
                    p, fam1, fam2, grid, opts, scalar_data=scalars, warm_start=warm
                )
            else:
                u, rep = decoupled_solution(
                    p, fam1, fam2, grid, opts, scalar_data=scalars
                )
            warm = u
            rep = replace(rep, warnings=(*scalar_warnings, *rep.warnings))
            rows.append(SweepRow(beta=float(beta), status="ok", report=rep))
        except _ROW_ERRORS as exc:  # row-level failure, sweep continues
            rows.append(SweepRow(beta=float(beta), status="error", error=str(exc)))
    return rows
