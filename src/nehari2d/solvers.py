"""Ground-state solvers: the scalar solve, the one system solve, and sweeps.

Every solve descends on the product of the unit gradient spheres, one
per component (Li & Zhou, SIAM J. Sci. Comput. 2001): each trial is
rescaled onto the constraint set by its fiber root, and the direction is
the H1 Riesz lift of the exact energy gradient projected onto the sphere
tangent.  `scalar_ground_state` uses one sphere and the scalar fiber
root.  `solve_system` uses two and the pair projection for every sign of
beta, which picks only the starts; at beta = 0 the pair of scalar ground
states is the solution.  A coupled solve fails one way, with
NoConvergence, when no start gives a candidate.  The descent only brings
a start near a critical point: at Euler residual 1e-1 it hands over to a
damped Newton-Krylov root finder on the exact gradient and Hessian, and
resumes only when that polish fails its guard.  Every solve runs one
start loop, `_best_polished`, and passes it only its rescale and its
polish.  A stack the rescale cannot take or project has energy +inf,
which halves a trial step and drops a start, and every projected state
is checked against the coercivity floor.  The loop has one acceptance
rule: a polished state is a candidate when its Euler residual is at most
tol and none of its components is trivial.  The rule is both the handoff
guard and the final pick, and the lowest-energy candidate wins.

Inside the solvers a state is a bare (k, nx, ny) array, k = 1 for a
scalar problem and k = 2 for a pair, measured by one `energy.Energy`.
A descent trial's energy and coercivity check read the floats of its
rescale, one `fiber.ProjectionResult` for a field (`scalar_fiber_root`)
and for a pair (`project_to_nehari`); the gradient and direction rule of
an accepted state read the result's one cell sample of it, built at its
first read.  The Newton polish likewise reads each of its iterates from
one sample.

Determinism: every random draw flows from the seed in SolverOptions.
Swap equivariance holds by construction: `solve_system` and `beta_sweep`
run asymmetric data in one canonical component order, given by a key of
each component's data, and swap the result back, so swapping the problem
data swaps the solution bit for bit.  Only where the keys tie on
asymmetric data (tabulated families with equal constants) is each coupled
start followed by its mirror, the start that the swapped problem builds.
"""

from __future__ import annotations

import math
import operator
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

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
    InvalidState,
    Nehari2dError,
    NoConvergence,
    ValidationError,
)
from .fiber import ProjectionResult, project_to_nehari, scalar_fiber_root, unit_sample
from .grid import Grid, ScalarField, StatePair, cell_gradients
from .spectrum import (
    ADMISSIBLE,
    ADMISSIBLE_WEAK,
    INADMISSIBLE,
    admissibility,
    stencil_eigenvalue_exact,
)

REGIME_COOPERATIVE = "cooperative"
REGIME_COMPETITIVE = "competitive"
REGIME_DECOUPLED = "decoupled"


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8              # Euler residual target, function-space l2 norm
    max_iter: int = 2000
    n_restarts: int = 2            # random starts; mirrored only on key ties
    seed: int = 0

    def __post_init__(self):
        for name in ("seed", "max_iter", "n_restarts"):
            try:
                if operator.index(getattr(self, name)) < 0:
                    raise ValidationError(name, "must be nonnegative")
            except TypeError:
                raise ValidationError(name, "must be an integer") from None
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValidationError("tol", "must be a finite positive number")


@dataclass(frozen=True)
class ScalarReport:
    energy: float
    euler_residual_norm: float
    iterations: int
    admissibility: str
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class SolveReport:
    energy: float
    L1: float
    L2: float
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
    """The smaller of the stencil and quadrature first eigenvalues, which
    is always the stencil one: with t = pi h / (2 l) in (0, pi/6] on every
    axis, the quadrature value's tan^2 t exceeds the stencil's sin^2 t."""
    return stencil_eigenvalue_exact(grid)


def _vol_norm(values: np.ndarray, grid: Grid, copies: int = 1) -> float:
    """The volume-weighted l2 norm of the (k, nx, ny) stack `values`, each
    component standing for `copies` equal ones (2 for a synchronized
    field, whose norm is then that of the pair (u, u) bit for bit).  Each
    component is reduced alone and the k sums are added, so that the norm
    does not depend on the order of the components."""
    sq = sum(float(np.sum(c * c)) for c in values)
    return math.sqrt(copies * sq * grid.cell_area)


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


# how `_component_order` places the two components
_ORDERED, _SWAPPED, _SAME, _TIED = "ordered", "swapped", "same", "tied"


def _component_order(params, fam1, fam2) -> str:
    """The order of the two components by their keys (lambda_i, kind,
    gamma, nu, c0): _SWAPPED when component 2's key is the smaller, so
    that a coupled solve runs the swapped problem, else _ORDERED; for
    equal keys, _SAME when both components pose the same problem and
    _TIED when they do not, which only tabulated families with equal
    constants and different callables can do (a tabulated family's
    constants do not determine its profile)."""
    key1, key2 = (
        (params.lam(i), fam.kind, fam.gamma, fam.nu, fam.c0)
        for i, fam in ((1, fam1), (2, fam2))
    )
    if key1 != key2:
        return _SWAPPED if key2 < key1 else _ORDERED
    same_profile = fam1.kind != KIND_TABULATED or (
        fam1.a is fam2.a and fam1.da is fam2.da
    )
    return _SAME if same_profile else _TIED


def symmetric_problem(params, fam1, fam2) -> bool:
    """True when both components pose the same problem."""
    return _component_order(params, fam1, fam2) == _SAME


def check_coercivity_bound(
    energy_val: float,
    integrals: tuple,
    energy: Energy,
    residual: tuple[float, ...],
) -> None:
    """Abort when a constrained iterate undercuts the coercivity bound.

    On the constraint set of `energy` (a field or a pair) the energy of
    a state u dominates
        (p-2-gamma)/(2p) * nu * sum_i int |grad u_i|^2
            - (p-2)/(2p) * sum_i lambda_i int u_i^2,
    nu the smallest of the profiles' floors, an exact consequence of the
    growth hypothesis on the profiles.  `integrals` holds the floats
    (int |grad u_i|^2, int u_i^2), one per component each, as a rescale
    reports them (`ProjectionResult.integrals`).  The slack absorbs
    quadrature roundoff and the distance of the iterate from the
    constraint set (measured by the residuals, one per component).
    """
    p, g = energy.params.p, energy.params.gamma
    nu = min(fam.nu for fam in energy.fams)
    bound = sum([
        (p - 2.0 - g) / (2.0 * p) * nu * gr - (p - 2.0) / (2.0 * p) * lam * q
        for gr, q, lam in zip(*integrals, energy.lams)
    ])
    slack = 1e-8 * (1.0 + abs(energy_val)) + sum(abs(r) for r in residual)
    if energy_val < bound - slack:
        residuals = ", ".join(f"{r:.3e}" for r in residual)
        raise CoercivityViolation(
            f"constrained energy {energy_val:.12g} fell below the bound "
            f"{bound:.12g} (residuals {residuals})"
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
    gr, pp = sample.integral(sample.gsq), _pp(sample, params)
    for g, lp, lam in zip(gr, pp, (params.lambda1, params.lambda2)):
        lhs = nu * (1.0 - max(lam, 0.0) / (nu * mu1)) * g
        if lhs > lp + 1e-10 * (1.0 + abs(lp)):
            return False
    return True


def _pp(sample: CellSample, params) -> np.ndarray:
    """int |u_i|^p of the sampled state, one per component."""
    return sample.integral(np.abs(sample.v) ** params.p)


def _fully_nontrivial(sample: CellSample, params, opts) -> bool:
    return bool(np.all(_pp(sample, params) > 1e3 * opts.tol))


# ---------------------------------------------------------------------------
# the descent driver

# what a stack the rescale cannot take or sample raises; its descent point
# has energy +inf, like an unprojectable one, while a coercivity violation
# is evidence against the hypotheses and aborts the solve
_REJECTS = (DegenerateInput, InvalidState)

# Armijo sufficient-decrease constant; the bounds, as fractions of the failed
# step, on the next trial step; and the stagnation stop: the energy fell by
# no more than _STAGNATION_TOL (relative) over _STAGNATION_WINDOW steps
_ARMIJO = 1e-4
_SHRINK_MIN = 0.1
_SHRINK_MAX = 0.5
_STAGNATION_TOL = 1e-12
_STAGNATION_WINDOW = 20


def _descend(x, energy_val, gradient, direction, retract, max_iter, stop):
    """Armijo descent from x, shared by every solver.

    `gradient(x)` returns (g, res): the Euler gradient at x and its norm.
    `direction(x, g, memo)` returns (d, slope, memo): a descent direction,
    the energy slope along it, and what the rule keeps for its next call
    (memo is None on the first call of every descent, so each descent
    starts without memory).  `retract(x, d, a)` returns (x_try, energy),
    the trial point at step a mapped back onto the constraint set, with
    energy +inf for a trial it cannot map.

    The first trial step is a = 1, each later one twice the last accepted
    step (at most 1e3).  A trial that fails the Armijo test is followed by
    the minimizer of the quadratic through (0, energy), the slope and
    (a, e_try), kept in [_SHRINK_MIN * a, _SHRINK_MAX * a]; a non-finite
    e_try halves a.  Up to 50 trials.  Stops when res <= stop, when no
    step passes the Armijo test, when the energy fell by no more than
    _STAGNATION_TOL over the last _STAGNATION_WINDOW steps, or after
    max_iter gradients.  Returns (x, energy, res, iterations), with res
    the last residual computed (inf if none was); res <= stop exactly
    when the residual test ended the descent.
    """
    alpha = 1.0
    history = [energy_val]
    res = math.inf
    it = 0
    memo = None
    for it in range(1, max_iter + 1):
        g, res = gradient(x)
        if res <= stop:
            break
        d, slope, memo = direction(x, g, memo)
        a = alpha
        for _ in range(50):
            x_try, e_try = retract(x, d, a)
            if e_try <= energy_val + _ARMIJO * a * slope:
                break
            # the quadratic's curvature, positive after an Armijo failure at
            # a finite e_try with slope <= 0; anything else halves
            q = e_try - energy_val - slope * a
            if 0.0 < q < math.inf:
                a = min(max(-0.5 * slope * a * a / q, _SHRINK_MIN * a),
                        _SHRINK_MAX * a)
            else:
                a *= 0.5
        else:
            break
        x, energy_val = x_try, e_try
        alpha = min(a * 2.0, 1e3)
        history.append(energy_val)
        if len(history) > _STAGNATION_WINDOW and (
            history[-_STAGNATION_WINDOW - 1] - energy_val
            <= _STAGNATION_TOL * (1.0 + abs(energy_val))
        ):
            break
    return x, energy_val, res, it


# polished candidates whose energies agree to this (relative) are one level,
# reached from two starts: which one is lower is rounding, so the earlier wins
_TIE = 1e-12

# Newton takes over from the descent at this Euler residual: from there the
# polish converges in two or three steps, where the descent needs hundreds,
# and it never accepts an energy increase, so it cannot end above its start
_HANDOFF_RES = 1e-1


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
    scales component i of the sphere point v onto w = t v.  pg is the H1
    Riesz lift r = K^-1 g (`grid.quadrature_solver`, K the quadrature
    stiffness) projected K-orthogonally onto the tangent space of the
    spheres at v (the projection along v is the one along w), and
    <g, pg> = sum_i t_i <g_i, pg_i> = cell_area sum_i t_i pg_i^T K pg_i,
    so -pg always descends.  The direction is -pg + beta T(d_prev), with
    T the tangent projection and beta the Polak-Ribiere value clamped to
    [0, Fletcher-Reeves]; `memo` carries (pg, <g, pg>, d) from the last
    step of the same descent, or is None.  Where the conjugate direction
    does not descend the rule restarts from -pg.  Returns (d, slope
    sum_i t_i <g_i, d_i>, memo), all arrays stacked like g.
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

    pg = tangent(grid.quadrature_solver(g))
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
    return d, slope, (pg, gpg, d)


def _best_polished(starts, rescale, polish, energy, grid, opts, warnings,
                   fold=None):
    """Descend from every start on the constraint set, polish, and keep the
    lowest-energy candidate.

    `rescale(v, t_init)` maps the sphere point of the `fiber.UnitSample`
    v onto the constraint set and returns its `fiber.ProjectionResult`:
    the fiber scalings t, the energy, residuals and integrals of the
    rescaled state w = t v, and its cell sample, built on first read.
    `point(y, t_init)` is the one way a stack becomes a descent point x =
    (v, result), v = y normalized onto the unit gradient spheres, and its
    energy: y is sampled once (`fiber.unit_sample`), and the rescale reads
    that sample unscaled, with the norms of y.  The energy is +inf, with
    a not projectable result, when the result is not projectable or
    sampling y raises one of _REJECTS, and otherwise the energy of w,
    which `check_coercivity_bound` guards from the result's floats.  So a
    trial that the descent rejects scales no sample; a kept point's sample
    is built once, when its gradient is read.
    The descent (`_descend`) runs on the Euler gradient of `energy` at w,
    a point moves on the spheres by `_conjugate_lift`, and each trial is
    the point of the moved stack, rescaled from the current t.

    Each start descends to max(_HANDOFF_RES, 1e2 * tol), and `polish(x)`
    returns (sample, res) for the polished state.  When `_rejection`
    refuses it and the residual test ended the descent above 1e2 * tol,
    the descent resumes once from there, with a fresh step and stagnation
    window and what is left of max_iter, down to 1e2 * tol, and the state
    it reaches is polished instead (a warning notes the fallback).  A
    start whose point is not projectable is dropped with a warning.

    `fold`, given for symmetric data, is the (rescale, polish, energy) of
    the synchronized field (`Energy.synchronized`).  A start y with y[0]
    == y[1] (bit for bit) runs on it as the one field y[0]: by symmetric
    criticality its critical points are those of the pair (u, u), at half
    the cost.  Its residuals are those of (u, u) (`_vol_norm` with 2
    copies, which `polish` must use too), so every threshold reads as on
    the pair, and its candidate enters the pick as (u, u), with energy
    2 E_s(u) = E(u, u).  Every other start runs on the pair.
    Returns (best, descent iterations): best is the lowest-energy (state,
    energy, res) among the polished states `_rejection` accepts, or None;
    energies within _TIE (relative) of each other tie, and a tie goes to
    the earlier start.
    """
    final = 1e2 * opts.tol
    stop = max(_HANDOFF_RES, final)

    def direction(x, g, memo):
        return _conjugate_lift(g, x[1].sample, x[1].t, grid, memo)

    def run(k, y, rescale, polish, energy, copies):
        """(candidate, descent iterations) of start k: the candidate is the
        (state, energy, res) of its polished state, lifted to `copies`
        equal components, or None when `_rejection` refuses it or its
        point is not projectable."""
        def point(y, t_init):
            try:
                v = unit_sample(y, grid)
                proj = rescale(v, t_init)
            except _REJECTS as exc:
                return (y, ProjectionResult(False, reason=str(exc))), math.inf
            if not proj.projectable:
                return (v.x, proj), math.inf
            check_coercivity_bound(proj.energy, proj.integrals, energy, proj.residual)
            return (v.x, proj), proj.energy

        def gradient(x):
            g = energy.gradient(x[1].sample)
            return g, _vol_norm(g, grid, copies)

        def retract(x, d, a):
            return point(x[0] + a * d, x[1].t)

        x, energy_val = point(y, None)
        if not x[1].projectable:
            warnings.append(f"start {k} rejected: {x[1].reason}")
            return None, 0
        x, energy_val, res, its = _descend(
            x, energy_val, gradient, direction, retract, opts.max_iter, stop
        )
        sample, res_p = polish(x)
        reason = _rejection(sample, res_p, energy.params, opts)
        if reason is not None and final < res <= stop and its < opts.max_iter:
            x, _e, _res, more = _descend(
                x, energy_val, gradient, direction, retract,
                opts.max_iter - its, final,
            )
            its += more
            sample, res_p = polish(x)
            warnings.append(
                f"start {k}: Newton handoff at res {res:.2e} failed "
                f"({reason}); descent resumed"
            )
            reason = _rejection(sample, res_p, energy.params, opts)
        if reason is not None:
            return None, its
        state = np.repeat(sample.x, copies, axis=0)
        return (state, copies * energy.value(sample), res_p), its

    best = None
    energies = []
    total_iters = 0
    for k, y in enumerate(starts):
        if fold is not None and np.array_equal(y[0], y[1]):
            candidate, its = run(k, y[:1], *fold, copies=2)
        else:
            candidate, its = run(k, y, rescale, polish, energy, copies=1)
        total_iters += its
        if candidate is not None:
            e = candidate[1]
            energies.append(e)
            if best is None or e < best[1] - _TIE * (1.0 + abs(best[1])):
                best = candidate
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

# at most this many Newton steps, each with at most this many MINRES
# iterations, run to this relative residual
_POLISH_MAX_ITER = 60
_POLISH_INNER_ITER = 400
_POLISH_RTOL = 1e-6


def _minres(apply, b, precond, rtol, maxiter):
    """Preconditioned MINRES (Paige & Saunders, SINUM 1975) for the
    symmetric, possibly indefinite apply(x) = b from x = 0, on arrays of
    any shape, with symmetric positive definite `precond`.  A port of the
    recurrence and stopping rule of `scipy.sparse.linalg.minres`: stop
    once ||r|| / (||A|| ||x||) or ||A r|| / (||A|| ||r||) is at most rtol,
    the estimate of cond(A) reaches 0.1/eps, or after maxiter iterations,
    each making one product.

    The recurrence runs in place, in the same order of operations, on
    buffers allocated once per solve: `precond(r, out=z)` writes M^-1 r
    into z, and `apply(v)` must return a new array, which becomes a
    Lanczos vector and is overwritten.  `b` is left unchanged and the
    result is a new array.
    """
    eps = np.finfo(float).eps
    x, w, w2 = (np.zeros_like(b) for _ in range(3))
    w1, v, z, tmp = (np.empty_like(b) for _ in range(4))
    r1 = r2 = b
    precond(b, out=z)
    beta1 = float(np.vdot(b, z))
    if beta1 < 0.0:
        raise ValueError("indefinite preconditioner")
    if beta1 == 0.0:
        return x
    beta1 = beta = phibar = math.sqrt(beta1)
    oldb = dbar = epsln = tnorm2 = gmax = sn = 0.0
    gmin, cs = math.inf, -1.0
    for itn in range(1, maxiter + 1):
        # Lanczos step: v = z / beta, y = A v less its projections on the
        # last two residuals, then z = M^-1 y
        np.multiply(z, 1.0 / beta, out=v)
        y = apply(v)
        if itn >= 2:
            y -= np.multiply(r1, beta / oldb, out=tmp)
        alfa = float(np.vdot(v, y))
        y -= np.multiply(r2, alfa / beta, out=tmp)
        r1, r2 = r2, y
        precond(r2, out=z)
        oldb, beta = beta, float(np.vdot(r2, z))
        if beta < 0.0:
            raise ValueError("non-symmetric matrix")
        beta = math.sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        # apply the previous plane rotation, then form the next one
        oldeps, delta = epsln, cs * dbar + sn * alfa
        gbar, epsln, dbar = sn * dbar - cs * alfa, sn * beta, -cs * beta
        root = math.hypot(gbar, dbar)
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        # w = (v - oldeps w1 - delta w2) / gamma, into the oldest w buffer
        w1, w2, w = w2, w, w1
        np.subtract(v, np.multiply(w1, oldeps, out=w), out=w)
        w -= np.multiply(w2, delta, out=tmp)
        w *= 1.0 / gamma
        x += np.multiply(w, phi, out=tmp)
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        anorm, xnorm = math.sqrt(tnorm2), float(np.linalg.norm(x))
        test1 = phibar / (anorm * xnorm) if xnorm > 0.0 else math.inf
        test2 = root / anorm
        # 1 + t <= 1 exactly when t <= eps / 2, the test for rtol < eps
        if (itn == 1 and beta / beta1 <= 10.0 * eps
                or min(test1, test2) <= max(rtol, eps / 2.0)
                or gmax / gmin >= 0.1 / eps or anorm * xnorm * eps >= beta1):
            break
    return x


def _canonical_order(x: np.ndarray) -> slice:
    """The order of the components of the stack x in which the polish runs
    `_minres`: as they are, unless x is a pair whose components first
    differ at a node where the second is larger, then reversed.  The
    mirror x[::-1] gets the opposite order, so the two run on the same
    arrays: `_minres` sums each inner product over the stack in order, as
    scipy's does, and every other step of the polish is per component."""
    if len(x) == 2:
        differ = np.flatnonzero(x[0] != x[1])
        if differ.size and x[1].flat[differ[0]] > x[0].flat[differ[0]]:
            return slice(None, None, -1)
    return slice(None)


def _newton_krylov_polish(
    x0: np.ndarray,
    energy: Energy,
    grid: Grid,
    opts: SolverOptions,
    gradient=None,
    copies: int = 1,
):
    """Damped Newton on the Euler gradient of `energy`, with its exact
    Hessian, from the state stack x0.  Residual norms are `_vol_norm`s
    with `copies` (2 for a synchronized field, measured as the pair).

    Every iterate and every line-search trial is sampled once, and the
    gradient (`gradient(sample)`, by default `energy.gradient`), the
    energy and, at the start of each Newton step, the Hessian are read
    from that sample.  The Hessian is a product on the stack
    (`energy.hessian`), inverted approximately by `_minres` to relative
    residual `_POLISH_RTOL` (it is symmetric but may be indefinite at the
    saddle-type critical points sought here), preconditioned by the
    exact sine-basis inverse of each component's quadrature stiffness
    (`grid.quadrature_solver`, the Hessian's gradient term at unit
    coefficient), so the MINRES count does not grow with the mesh.
    Steps are halved until the residual norm decreases; accepted steps may
    not raise the energy beyond rounding level.  Converged means res <= tol.
    Past tol, Newton steps continue while they lower the residual, up to
    the finishing target res <= 1e-2 * tol; a failed line search or the
    step cap between the two thresholds still counts as converged.
    Returns (sample, residual_norm, converged, iterations), `sample` the
    cell sample of the final state.
    """
    gradient = gradient or energy.gradient
    tol = opts.tol
    order = _canonical_order(x0)
    sample = CellSample(x0.copy(), grid)
    g = gradient(sample)
    res = _vol_norm(g, grid, copies)
    energy_val = energy.value(sample)
    its = 0
    for its in range(1, _POLISH_MAX_ITER + 1):
        if res <= 1e-2 * tol:
            return sample, res, True, its - 1
        hessian = energy.hessian(sample)
        step = _minres(
            lambda v: np.ascontiguousarray(hessian(v[order])[order]),
            np.ascontiguousarray(-g[order]), grid.quadrature_solver,
            _POLISH_RTOL, _POLISH_INNER_ITER,
        )[order]
        if not np.all(np.isfinite(step)) or float(np.linalg.norm(step)) == 0.0:
            step = -g

        accepted = False
        s = 1.0
        for _ in range(40):
            trial = CellSample(sample.x + s * step, grid)
            g_try = gradient(trial)
            res_try = _vol_norm(g_try, grid, copies)
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


def _field_rescale(lam, params, fam, grid, synchronized=False):
    """The rescale of a single field for `_best_polished`: its fiber root
    (`scalar_fiber_root`), warm from the current tau."""
    def rescale(v, t_init):
        return scalar_fiber_root(v, lam, params, fam, grid,
                                 tau_init=None if t_init is None else t_init[0],
                                 synchronized=synchronized)

    return rescale


def scalar_ground_state(
    i: int,
    params: ProblemParams,
    fam: CoefficientFamily,
    grid: Grid,
    opts: SolverOptions = SolverOptions(),
) -> tuple[ScalarField, float, ScalarReport]:
    """Least energy state of the one-component problem, and its level.

    Multistart sphere descent plus Newton polish: a point is a field v on
    the unit gradient sphere, its fiber root tau and w = tau v on the
    constraint set, and a candidate is a polished state that `_rejection`
    accepts, at the handoff and at the final pick.
    The output is sign-normalized to the nonnegative representative (the
    energy is even in the field).

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
    energy = Energy.scalar(params, lam, fam)
    polish_its = 0

    def polish(x):
        nonlocal polish_its
        sample, res, _converged, its = _newton_krylov_polish(
            x[1].sample.x, energy, grid, opts
        )
        polish_its += its
        return sample, res

    starts = [_bump(grid, grid.spec.lx / 2.0, grid.spec.ly / 2.0, grid.spec.lx / 6.0)]
    for k in range(opts.n_restarts):
        starts.append(_random_positive(grid, _rng(opts.seed, 11, i, k)))

    best, total_iters = _best_polished(
        [z[None] for z in starts], _field_rescale(lam, params, fam, grid),
        polish, energy, grid, opts, warnings,
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


def _system_starts(params, fam1, fam2, grid, opts, z1, z2, warm_start):
    """The start stacks of a coupled solve (beta != 0), warm start first.

    Repulsive coupling: the segregated bumps, then random positives
    shaped by them.  Attractive coupling: the scalar pair (z1, z2), then
    random positives.  Every start is normalized onto the unit gradient
    spheres, so (z1, z2) stands for every (z1, eps z2); for symmetric
    data it is (z1, z1), which a constant profile projects onto the
    synchronized critical point (w, w), w = (1 + beta)^(-1/(p-2)) z1, and
    which `solve_system` runs as the one synchronized field z1.
    Each start runs once: `solve_system` runs asymmetric data in one
    canonical component order, so the problem and its swap run the same
    starts.  Only where the keys of `_component_order` tie on asymmetric
    data is each start but the scalar pair (its own mirror) followed by
    its mirror y[::-1], the start that the swapped problem builds with its
    components swapped back, so that the explored set is swap-symmetric.
    Ties go to the earlier start.
    """
    mirror = _component_order(params, fam1, fam2) == _TIED
    starts = [] if warm_start is None else [warm_start.stacked()]
    if params.beta < 0.0:
        envelope, tag = segregated_pair(grid), 21
        coupled = [np.stack(envelope)]
    else:
        envelope, tag = (1.0, 1.0), 31
        starts.append(np.stack((z1.values, z2.values)))
        coupled = []
    for k in range(opts.n_restarts):
        rng = _rng(opts.seed, tag, k)
        coupled.append(np.stack([_random_positive(grid, rng) * e for e in envelope]))
    for y in coupled:
        starts += [y, y[::-1]] if mirror else [y]
    return starts


# the names of a component in messages, and the values listed one per
# component (projection reasons and the coercivity residuals); compiled on
# first use, not at import
_NAMED = r"(scalar problem |component |lambda_?)([12])\b"
_LISTED = r"((?:fail: |t = )\(|\(residuals )([^,()]+), ([^,()]+)\)"


def _relabel(text: str) -> str:
    """A message of the swapped problem, told in the caller's order: the
    component it names by number is the other one, and its per-component
    value lists are reversed."""
    text = re.sub(_NAMED, lambda m: m[1] + "21"[int(m[2]) - 1], text)
    return re.sub(_LISTED, r"\1\3, \2)", text)


@contextmanager
def _relabeled_errors():
    """Package errors raised inside, told in the caller's order."""
    try:
        yield
    except Nehari2dError as exc:
        exc.args = (_relabel(str(exc)),)
        raise


def _swapped_report(rep: SolveReport) -> SolveReport:
    r = rep.nehari_residual
    return replace(
        rep, L1=rep.L2, L2=rep.L1, nehari_residual=NehariResidual(r.r2, r.r1),
        warnings=tuple(map(_relabel, rep.warnings)),
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
    """Least energy fully nontrivial state of the system, and its report.

    The solve runs in one canonical component order (`_component_order`):
    when component 2 comes first, it solves the swapped problem, with
    `scalar_data` and `warm_start` swapped, and swaps back the state, the
    levels, the Nehari residuals and the component names and value lists
    of its warnings and errors.  The problem and its swap thus run the
    same arithmetic, and their results are mirrors bit for bit.

    Coupled (beta != 0): the reduced energy J(m(v)) is descended over
    projectable pairs v on the sphere product, from the starts of
    `_system_starts`, whose set alone depends on the sign of beta, by
    `_best_polished` with the rescale `project_to_nehari` and the polish
    `refine_solution`, and the lowest-energy candidate is reported.  For
    symmetric data (`symmetric_problem`) a start with u1 = u2 stays on the
    diagonal and runs as one synchronized field u (`Energy.synchronized`):
    its rescale is `scalar_fiber_root` of E(u, u)/2, its polish a
    one-field Newton, and its candidate is (u, u).  Decoupled
    (beta = 0): the pair of scalar ground states is the solution, and
    `warm_start` has no use.  `scalar_data` may carry precomputed
    (z1, z2, L1, L2) to skip the scalar solves.

    Raises InadmissibleLambda when beta != 0 and (lambda1, lambda2) is not
    below the strong threshold, and NoConvergence when no start reaches a
    candidate.
    """
    if _component_order(params, fam1, fam2) == _SWAPPED:
        if scalar_data is not None:
            z1, z2, L1, L2 = scalar_data
            scalar_data = (z2, z1, L2, L1)
        if warm_start is not None:
            warm_start = StatePair(warm_start.u2, warm_start.u1)
        with _relabeled_errors():
            u, rep = solve_system(params.swapped(), fam2, fam1, grid, opts,
                                  scalar_data, warm_start)
        return StatePair(u.u2, u.u1), _swapped_report(rep)
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
    energy = Energy.pair(params, fam1, fam2)

    if beta == 0.0:
        x, iterations = np.stack((z1.values, z2.values)), 0
    else:
        def project(y, t_init):
            return project_to_nehari(y, params, fam1, fam2, grid, t_init=t_init)

        def polish(x):
            u, res, _converged = refine_solution(
                StatePair.from_stack(x[1].sample.x, grid.spec), params, fam1,
                fam2, grid, opts,
            )
            return CellSample(u.stacked(), grid), res

        fold = None
        if symmetric_problem(params, fam1, fam2):
            lam = params.lambda1
            synchronized = Energy.synchronized(params, lam, fam1)

            def polish_synchronized(x):
                sample, res, _converged, _its = _newton_krylov_polish(
                    x[1].sample.x, synchronized, grid, opts, copies=2
                )
                return sample, res

            fold = (_field_rescale(lam, params, fam1, grid, synchronized=True),
                    polish_synchronized, synchronized)
        starts = _system_starts(params, fam1, fam2, grid, opts, z1, z2, warm_start)
        best, iterations = _best_polished(
            starts, project, polish, energy, grid, opts, warnings, fold
        )
        if best is None:
            raise NoConvergence(
                f"no {regime} start reached a fully nontrivial state at tol",
                iterations=iterations,
            )
        x = best[0]

    x = _sign_fix(x)
    sample = CellSample(x, grid)
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

    The scalar levels are solved once, before the first row, and their
    warnings head those of every row report; an error there (say, an
    inadmissible lambda) ends the sweep with no rows.  A package error
    (Nehari2dError) of a row's solve is recorded as that row's status
    marker and the sweep goes on.  Any other exception propagates.
    Like `solve_system`, the sweep runs in canonical component order, and
    the rows of the swapped problem are the swapped rows bit for bit.
    """
    if _component_order(params, fam1, fam2) == _SWAPPED:
        with _relabeled_errors():
            rows = beta_sweep(beta_list, params.swapped(), fam2, fam1, grid, opts)
        return [
            replace(row, error=_relabel(row.error),
                    report=row.report and _swapped_report(row.report))
            for row in rows
        ]
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
        except Nehari2dError as exc:  # row-level failure, sweep continues
            rows.append(SweepRow(beta=float(beta), status="error", error=str(exc)))
    return rows
