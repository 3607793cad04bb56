"""Two-parameter fibering maps and rescaling onto the constraint set.

For a pair u with both components nontrivial, the fibering map

    h_u(t1, t2) = E(t1 u1, t2 u2)

has critical points exactly at the rescalings t of u with (t1 u1, t2 u2)
on the constraint set (both residuals zero).  Under the structural
hypotheses on the diffusion profiles and admissible linear coefficients
the interior critical point is unique: for repulsive or vanishing
coupling (beta <= 0) it is the global maximizer of h, and the projection

    m(u) = (t1* u1, t2* u2)

is well defined; for attractive coupling (beta > 0) it is a saddle of h
(the axis maxima of the semi-trivial rescalings dominate), and it may
genuinely fail to exist when one component is energetically redundant,
which callers treat as candidate collapse.  The one-parameter rescale of
a single field z is the maximizer of tau -> E(tau z).

A rescale first checks the membership inequalities

    int |u_i|^p + beta * int |u1 u2|^(p/2) > 0,   i = 1, 2

at unit gradient norms, so that, like the critical point (h_{c u}(t) =
h_u(c t)), the verdict is covariant under u -> (c1 u1, c2 u2).

One damped Newton on the fiber gradient (`_fiber_newton`) locates the
critical point for one field (k = 1) and for a pair (k = 2) of either
sign of beta.  It runs from a warm guess, else from the closed-form root
of each axis with a constant profile and no coupling, else (a pair) from
the ray start, and stops at the first point stationary relative to
t_k int |grad u_k|^2.  A field's warm guess is first clamped into the
closed-form bracket of its root that the profile bounds give
(`FiberEvaluator.bracket`).

One evaluation, `FiberEvaluator.derivatives`, gives h and its first one
or two derivatives at the Newton's point t, in Python floats.  Every
t-dependent integral separates: the profile terms depend on t_i only
through A_i(t_i u_i), and the cross term is a monomial in t times one
integral.

A state is a bare nodal array: `project_to_nehari` takes a (2, nx, ny)
pair stack, `scalar_fiber_root` an (nx, ny) field.  Each checks its
input in one place (shape, finite entries, no zero component) and
samples it once, or takes the CellSample of the stack, or a descent
trial's UnitSample (`unit_sample`): the unscaled sample of a stack y and
its gradient norms n, read as the sphere point y / n.  Both rescales
return one `ProjectionResult`, built by `_rescale`, whose sample of the
rescaled stack is built on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .coeffs import CoefficientFamily
from .energy import CellSample, Energy, ProblemParams
from .errors import DegenerateInput, GridMismatch, InvalidState
from .grid import Grid


@dataclass(frozen=True)
class ProjectionResult:
    """A rescale onto the constraint set, of a field (k = 1) or a pair (k = 2).

    `projectable` is False, with a `reason`, when the membership
    inequalities fail or no start of the fiber Newton converged.
    Otherwise the Newton converged to the interior critical point t of
    the fibering map h, and `t` and `residual` are k-tuples: the
    scalings t_i and the constraint residuals t_i dh/dt_i(t).
    `energy` is h(t), and `integrals` the k-tuples (int |grad w_i|^2,
    int w_i^2) of the rescaled stack w; all are floats, read from the
    fiber evaluator and the Newton's last evaluation.  `sample`, the cell
    sample of w = `sample.x`, is built on first read (`_Rescaled`), so a
    trial that is only weighed never builds it.
    """

    projectable: bool
    t: tuple[float, ...] | None = None
    residual: tuple[float, ...] | None = None
    reason: str = ""
    energy: float | None = None
    integrals: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    rescaled: _Rescaled | None = field(default=None, repr=False, compare=False)

    @property
    def sample(self) -> CellSample | None:
        return None if self.rescaled is None else self.rescaled.read()


class _Rescaled:
    """The cell sample of a rescaled stack w = s y, held as the sample of y
    and the factors s until its first read, which scales it once and lets
    the sample of y go."""

    __slots__ = ("unscaled", "scale", "sample")

    def __init__(self, unscaled: CellSample, scale: list):
        self.unscaled, self.scale, self.sample = unscaled, scale, None

    def read(self) -> CellSample:
        if self.sample is None:
            self.sample = self.unscaled.scaled(self.scale)
            self.unscaled = None
        return self.sample


class FiberEvaluator:
    """Cached per-cell data of one state for fast fiber evaluations.

    Built on one CellSample of a k-component stack y and the Energy it is
    measured in: k = 1 for the scalar fiber tau -> E(tau z), and k = 2 for
    a pair with its cross term.  The state u it evaluates is y / n, for
    per-component `norms` n (1 where not given): the factors 1/n_k enter
    the floats below and the bound profiles once, here, so that t scales
    u and y itself is never scaled.
    Axis k reads component k of the sample: its profile bound to the cell
    values and |grad|^2 of u_k (`CoefficientFamily.on_sample`), and the
    floats q = int u^2, pp = int |u|^p and ia0 = int |grad u|^2; the
    powers |y|^(p/2) that pp and the cross term read are products of y^2
    at p = 4.  A synchronized field (`Energy.synchronized`) is its own
    partner, so its coupling joins the nonlinearity: its pp is (1 + beta)
    int |u|^p, and h_(u,u)(t, t) = 2 h_s(t).
    """

    def __init__(self, energy: Energy, sample: CellSample, norms=None):
        self.params = energy.params
        self.fams = energy.fams
        self.lams = energy.lams
        self.sample = sample
        p = self.params.p
        v, gsq = sample.v, sample.gsq
        self.norms = (1.0,) * len(v) if norms is None else tuple(norms)
        c = [1.0 / n_k for n_k in self.norms]
        area = sample.grid.cell_area
        self._integrals = [fam.on_sample(v_k, w_k, area, c_k)
                           for fam, v_k, w_k, c_k in zip(self.fams, v, gsq, c)]
        v2 = v * v
        m = v2 if p == 4.0 else np.abs(v) ** (p / 2.0)
        ia0, q, pp = (sample.integral(f).tolist() for f in (gsq, v2, m * m))
        self._ia0, self.q = ([f_k * (c_k * c_k) for f_k, c_k in zip(f, c)]
                             for f in (ia0, q))
        pp = [f_k * _pow(c_k, p) for f_k, c_k in zip(pp, c)]
        if energy.coupled and len(v) == 1:
            pp = [(1.0 + self.params.beta) * pp[0]]
        self.pp = pp
        self.cross = (
            float(np.vdot(m[0], m[1])) * area * _pow(c[0] * c[1], p / 2.0)
            if len(v) == 2
            else 0.0
        )

    def membership_values(self) -> tuple[float, ...]:
        """int |u_i|^p + beta * cross term for each component i at unit
        gradient norms, scaled back by ia0_i^(p/2): pp_i + beta * cross *
        (ia0_i / ia0_j)^(p/4), j the other component (a single field has
        no cross term)."""
        ia0, c = self._ia0, self.params.beta * self.cross
        return tuple(pp + c * _pow(a_i / a_j, self.params.p / 4.0)
                     for pp, a_i, a_j in zip(self.pp, ia0, ia0[::-1]))

    def _axis(self, k: int, tau: float, order: int) -> list:
        """The terms of h depending on t_k alone (all but the cross term) at
        the float tau, and their first `order` (<= 2) derivatives.

        With I_j(tau) = int A^(j)(tau v) v^j |grad v|^2, so that I_j' =
        I_(j+1), the terms are tau^2/2 (I_0 - lam q) - tau^p/p int |v|^p.
        The I_j come from the profile bound to the sample.  Where tau^2/2
        underflows to 0, tau^2/2 I_1 = O(tau^(gamma+1)) and tau^2/2 I_2 =
        O(tau^gamma) are taken as 0, their limit, even where A' and A''
        are infinite.
        """
        p, pp = self.params.p, self.pp[k]
        ia = self._integrals[k](tau, order)
        quad = ia[0] - self.lams[k] * self.q[k]
        half_sq = 0.5 * _pow(tau, 2.0)
        terms = [half_sq * quad - (1.0 / p) * _pow(tau, p) * pp]
        underflow = half_sq == 0.0
        if order >= 1:
            sq1 = 0.0 if underflow else half_sq * ia[1]
            terms.append(tau * quad + sq1 - _pow(tau, p - 1.0) * pp)
        if order >= 2:
            sq2 = 0.0 if underflow else half_sq * ia[2]
            terms.append(
                quad + 2.0 * tau * ia[1] + sq2
                - (p - 1.0) * _pow(tau, p - 2.0) * pp
            )
        return terms

    def cold_start(self, floor: bool = False) -> list:
        """The k-list of constant-profile axis roots: the positive zero
        ((ia0 - lam q) / pp)^(1/(p-2)) of each axis gradient
        tau (ia0 - lam q) - tau^(p-1) pp, or 1 where that has none.
        With `floor`, the beta > 0 collapse floor of `_fiber_newton`: that
        zero for _COLLAPSE (nu ia0 - lam q) and pp + beta cross (a lower
        bound for A >= nu, s A' >= 0 and t_j = t_k, scaled down), or 0."""
        share, b = (_COLLAPSE, max(self.params.beta, 0.0)) if floor else (1.0, 0.0)
        taus = []
        for fam, ia0, lam, q, pp in zip(self.fams, self._ia0, self.lams, self.q, self.pp):
            quad = share * ((fam.nu if floor else 1.0) * ia0 - lam * q)
            nonlin = pp + b * self.cross
            ok = quad > 0.0 and nonlin > 0.0
            taus.append(_pow(quad / nonlin, 1.0 / (self.params.p - 2.0)) if ok
                        else float(not floor))
        return taus

    def bracket(self) -> tuple[float, float]:
        """(lo, hi) around the fiber root of a field (k = 1).  The root
        solves tau^(p-2) pp = I_0 - lam q + tau I_1 / 2, and nu <= A <= C0
        and 0 <= s A' <= gamma A give I_0 in [nu ia0, C0 ia0] and tau I_1
        in [0, gamma C0 ia0]: lo and hi solve it for a ia0 - lam q with a =
        nu and a = (1 + gamma/2) C0, and are 0 and inf where that is not
        positive."""
        (fam,), (ia0,), (lam,), (q,), (pp,) = (self.fams, self._ia0, self.lams,
                                               self.q, self.pp)
        ends = []
        for a, unbounded in ((fam.nu, 0.0),
                             ((1.0 + 0.5 * fam.gamma) * fam.c0, math.inf)):
            quad = a * ia0 - lam * q
            ends.append(_pow(quad / pp, 1.0 / (self.params.p - 2.0))
                        if quad > 0.0 and pp > 0.0 else unbounded)
        return tuple(ends)

    def ray_start(self) -> list | None:
        """The maximizer of the constant-profile h along the ray through the
        pair's `cold_start()` t: t rho, with rho^(p-2) = S / (S + 2 beta
        cross (t_1 t_2)^(p/2)) and S = sum_k pp_k t_k^p, or None where
        either sum is not positive.  For identical constant profiles it is
        the synchronized root, which the uncoupled cold start misses."""
        t = self.cold_start()
        p = self.params.p
        s = sum([pp_k * _pow(t_k, p) for pp_k, t_k in zip(self.pp, t)])
        total = s + 2.0 * self.params.beta * self.cross * _pow(t[0] * t[1], p / 2.0)
        if s <= 0.0 or total <= 0.0:
            return None
        rho = _pow(s / total, 1.0 / (p - 2.0))
        return [t_k * rho for t_k in t]

    def derivatives(self, t, order: int = 2) -> tuple:
        """(h,), (h, g) or (h, g, J) at t = (t_1, ..., t_k): h, the fiber
        gradient g and its exact k x k Jacobian J, from one `_axis` call
        per component and, for a pair, the cross-term monomials.  The t_k,
        of any real type, are read as Python floats, and h is a float, g a
        list and J a nested list of floats.
        """
        t = [float(t_k) for t_k in t]
        axes = [self._axis(i, t_i, order) for i, t_i in enumerate(t)]
        h = sum([ax[0] for ax in axes])
        g = [ax[1] for ax in axes] if order >= 1 else []
        J = ([[ax[2] if i == j else 0.0 for j in range(len(t))]
              for i, ax in enumerate(axes)] if order >= 2 else [])
        if len(t) == 2:
            p, b = self.params.p, self.params.beta
            half = p / 2.0
            c = b * self.cross
            m = [_pow(t_i, half) for t_i in t]
            # pair products first, so that a swap swaps h, g and J exactly
            h = h - (2.0 * b / p) * (m[0] * m[1]) * self.cross
            if g:
                s = [_pow(t_i, half - 1.0) for t_i in t]
                for i, j in ((0, 1), (1, 0)):
                    g[i] = g[i] - c * s[i] * m[j]
                    if J:
                        J[i][i] = J[i][i] - c * (half - 1.0) * _pow(t[i], half - 2.0) * m[j]
                        J[i][j] = -c * half * (s[0] * s[1])
        return (h, g, J)[: order + 1]


def _pow(x: float, y: float) -> float:
    """x ** y for a float x >= 0; inf, numpy's value, where the power
    overflows and Python raises OverflowError."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def _sample(x, grid: Grid, lead: tuple[int, ...]) -> CellSample:
    """The cell sample of x, a (*lead, nx, ny) array, as a stack of its
    components.  Raises GridMismatch for any other shape, InvalidState for
    a non-finite entry and DegenerateInput for a zero component.  A
    CellSample of that stack, of prod(lead) components, is taken as
    checked, as `unit_sample` makes it for a UnitSample, and returned as
    is."""
    if isinstance(x, CellSample):
        if x.x.shape == (math.prod(lead), *grid.shape):
            return x
        x = x.x
    x = np.asarray(x, dtype=float)
    shape = (*lead, *grid.shape)
    if x.shape != shape:
        raise GridMismatch(f"need a state of shape {shape}, got {x.shape}")
    if not np.isfinite(x).all():
        raise InvalidState("state contains non-finite entries")
    x = x.reshape(-1, *grid.shape)
    nonzero = x.any(axis=(-2, -1))
    if not nonzero.all():
        raise DegenerateInput(f"component {int(np.argmin(nonzero)) + 1} is identically zero")
    return CellSample(x, grid)


class UnitSample(NamedTuple):
    """A stack y read on the unit gradient spheres as x = y / n: the cell
    sample of y itself, unscaled, and the gradient norms n_k = ||grad y_k||.
    The rescales take it in place of x, and bind y's sample with the
    factors 1/n_k (`FiberEvaluator`)."""

    sample: CellSample
    norms: tuple[float, ...]

    @property
    def x(self) -> np.ndarray:
        """The sphere point x = y / n."""
        return self.sample.x / np.reshape(self.norms, (-1, 1, 1))


def unit_sample(x: np.ndarray, grid: Grid) -> UnitSample:
    """The (k, nx, ny) stack x on the unit gradient spheres: x is checked
    and sampled once, as by the rescales, and its sample is kept unscaled
    beside its gradient norms (`UnitSample`).  Raises DegenerateInput,
    too, where a gradient norm is 0 or not finite."""
    x = np.asarray(x, dtype=float)
    sample = _sample(x, grid, x.shape[:1])
    nrm = np.sqrt(sample.integral(sample.gsq))
    if not ((nrm > 0.0) & (nrm < math.inf)).all():
        raise DegenerateInput("cannot normalize a gradient-free field")
    return UnitSample(sample, tuple(nrm.tolist()))


def _newton_step(J: list, g: list, t: list) -> list:
    """The Newton step -J^-1 g for the k x k Jacobian J, k = 1 or 2, or the
    ascent step where J is singular or not finite."""
    if len(g) == 1:
        det, num = J[0][0], [-g[0]]
    else:
        det = J[0][0] * J[1][1] - J[0][1] * J[1][0]
        num = [-g[0] * J[1][1] + g[1] * J[0][1],
               -g[1] * J[0][0] + g[0] * J[1][0]]
    if det != 0.0 and all(math.isfinite(v) for row in J for v in row):
        step = [v / det for v in num]
        if all(math.isfinite(v) for v in step):
            return step
    return _ascent_step(g, t)


def _max_abs(g: list) -> float:
    """max_k |g_k|, NaN where a g_k is, like numpy's max."""
    return math.nan if any(map(math.isnan, g)) else max(map(abs, g))


def _ascent_step(g: list, t: list) -> list:
    """Step along the fiber gradient, no longer than the smallest t_k."""
    scale = min(t) / (_max_abs(g) + 1.0)
    return [v * scale for v in g]


# Newton on the fiber gradient stops once |dh/dt_k| <= _FIBER_TOL * t_k *
# int |grad u_k|^2 for every k, or fails after _FIBER_MAX_ITER steps
_FIBER_TOL = 1e-12
_FIBER_MAX_ITER = 100
_WARM_MAX_ITER = 20     # steps from a warm guess before the cold start takes over
_COLLAPSE = 1e-12       # quadratic share of the beta > 0 collapse floor
# the line search's step scales, and its rounding slack on h
_HALVINGS = tuple(0.5**i for i in range(60))
_SLACK = 32.0 * float(np.finfo(float).eps)


def _stationary(ev: FiberEvaluator, t: list, g: list) -> bool:
    """Whether the fiber gradient g at t is zero to _FIBER_TOL, relative to
    t_k int |grad u_k|^2 in component k.  The test is unchanged when the
    state is rescaled, and a t_k collapsing to 0, where dh/dt_k vanishes
    with t_k, does not pass it."""
    return all(abs(g_k) <= _FIBER_TOL * t_k * a_k
               for g_k, t_k, a_k in zip(g, t, ev._ia0))


def _fiber_newton(ev: FiberEvaluator, t, maximize: bool, warm: bool = False):
    """Damped Newton from the k-vector t for the interior zero of the fiber
    gradient; returns (t, h, g, converged), with h and g read at the final
    t from the one `derivatives` evaluation that each start and trial gets.
    The run is Python float arithmetic on k-lists.

    With `maximize` (a single field, and a pair with beta <= 0, where the
    zero is the maximizer of h) a trial must not lower h beyond rounding
    slack.  Where the Newton step is not an ascent direction (h is not
    concave there), a line search along it could only creep within that
    slack: a `warm` start then gives up at once, and any other start
    takes a gradient ascent step instead.  Without (a pair with beta > 0,
    where the zero is a saddle of h) a trial must lower max |dh/dt_k| or
    pass `_stationary`, as one component may sit at its rounding floor
    while the other converges.  A step is halved until a trial is
    accepted.  The run converges at the first evaluated point that passes
    `_stationary`; it fails when no trial is accepted, after
    _WARM_MAX_ITER (`warm`) or _FIBER_MAX_ITER steps, and, without
    `maximize`, once a step takes a t_k below `ev.cold_start(floor=True)`.
    """
    t = [float(t_k) for t_k in t]
    h, g, J = ev.derivatives(t)
    floor = None if maximize else ev.cold_start(floor=True)
    for _ in range(_WARM_MAX_ITER if warm else _FIBER_MAX_ITER):
        if _stationary(ev, t, g):
            return t, h, g, True
        step = _newton_step(J, g, t)
        if maximize and sum([g_k * s_k for g_k, s_k in zip(g, step)]) <= 0.0:
            if warm:
                return t, h, g, False
            step = _ascent_step(g, t)
        for scale in _HALVINGS:
            trial = [t_k + scale * s_k for t_k, s_k in zip(t, step)]
            if not all(t_k > 0.0 for t_k in trial):
                continue
            h_trial, g_trial, J_trial = ev.derivatives(trial)
            if maximize:
                if h_trial < h - _SLACK * (abs(h) + 1.0):
                    continue
            elif not (_max_abs(g_trial) < _max_abs(g)
                      or _stationary(ev, trial, g_trial)):
                continue
            t, h, g, J = trial, h_trial, g_trial, J_trial
            break
        else:
            break
        if floor and any(t_k < f and s_k < 0.0 for t_k, f, s_k in zip(t, floor, step)):
            return t, h, g, False
    return t, h, g, _stationary(ev, t, g)


def _positive(t) -> bool:
    return all(t_k > 0.0 and math.isfinite(t_k) for t_k in t)


def _fiber_root(ev: FiberEvaluator, t_init, maximize: bool):
    """`_fiber_newton` from the warm guess t_init, a k-sequence or None, and
    from `ev.cold_start()` when t_init is not positive and finite or its
    run, capped at _WARM_MAX_ITER steps, does not converge, and for a
    pair from `ev.ray_start()`, if any, when that fails too: at beta =
    p - 2 the cold start of identical constant profiles is singular.
    A field's warm guess is first clamped into `ev.bracket()`.
    A run converges only at a positive and finite t.  By uniqueness of the
    interior zero every start gives the same t."""
    if t_init is not None:
        t = [float(t_k) for t_k in t_init]
        if _positive(t):
            if len(t) == 1:
                lo, hi = ev.bracket()
                t = [min(max(t[0], lo), hi)]
            t, h, g, converged = _fiber_newton(ev, t, maximize, warm=True)
            if converged and _positive(t):
                return t, h, g, True
    t, h, g, converged = _fiber_newton(ev, ev.cold_start(), maximize)
    if not (converged and _positive(t)) and len(t) == 2:
        ray = ev.ray_start()
        if ray is not None:
            t, h, g, converged = _fiber_newton(ev, ray, maximize)
    return t, h, g, converged and _positive(t)


def _rescale(energy: Energy, x: np.ndarray, grid: Grid, lead: tuple[int, ...],
             t_init) -> ProjectionResult:
    """The rescale of the (*lead, nx, ny) stack x onto the constraint set
    of `energy`, k = 1 or 2 components: the membership precheck, then
    `_fiber_root` from t_init, maximizing h for a single field and for
    beta <= 0.  A UnitSample x is rescaled as its sphere point y / n."""
    norms = None
    if isinstance(x, UnitSample):
        x, norms = x
    ev = FiberEvaluator(energy, _sample(x, grid, lead), norms)
    m = ev.membership_values()
    if min(m) <= 0.0:
        values = ", ".join(f"{v:.3e}" for v in m)
        return ProjectionResult(False, reason=f"membership inequalities fail: ({values})")
    maximize = len(m) == 1 or energy.params.beta <= 0.0
    t, h, g, converged = _fiber_root(ev, t_init, maximize)
    if not converged:
        values = ", ".join(f"{v:.6g}" for v in t)
        return ProjectionResult(False, reason=f"fiber Newton stalled at t = ({values})")
    t = tuple(float(v) for v in t)
    sq = [t_k * t_k for t_k in t]
    return ProjectionResult(
        True,
        t=t,
        residual=tuple(t_k * g_k for t_k, g_k in zip(t, g)),
        energy=float(h),
        integrals=tuple(tuple(s_k * f_k for s_k, f_k in zip(sq, f))
                        for f in (ev._ia0, ev.q)),
        rescaled=_Rescaled(ev.sample, [t_k / n_k for t_k, n_k in zip(t, ev.norms)]),
    )


def project_to_nehari(
    x: np.ndarray,
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
    *,
    t_init: tuple[float, float] | None = None,
) -> ProjectionResult:
    """Rescale the pair stack x, a (2, nx, ny) array, its CellSample or
    its UnitSample (then t scales its sphere point), onto the constraint
    set at the interior critical point t of its fibering map.

    One damped Newton on the fiber gradient (`_fiber_newton`) finds t,
    maximizing h for beta <= 0 and lowering the gradient for beta > 0.
    It stops when |dh/dt_k| <= 1e-12 * t_k * int |grad u_k|^2 for both k.
    It runs from the warm guess `t_init` when one is given and, when that
    does not converge in _WARM_MAX_ITER steps, from the cold start: the
    constant-profile root of each component with the coupling ignored,
    and when that fails too, from `FiberEvaluator.ray_start`.
    The energy and residuals are read from the last evaluation at t.
    Not projectable when the membership inequalities fail at unit
    gradient norms (see the module notes) or when no start converges;
    nothing is raised for a stall.
    """
    return _rescale(Energy.pair(params, fam1, fam2), x, grid, (2,), t_init)


def scalar_fiber_root(
    z: np.ndarray,
    lam: float,
    params: ProblemParams,
    fam: CoefficientFamily,
    grid: Grid,
    tau_init: float | None = None,
    *,
    synchronized: bool = False,
) -> ProjectionResult:
    """Rescale the field z, an (nx, ny) array or the CellSample or
    UnitSample of its (1, nx, ny) stack, onto the scalar constraint set at
    the unique positive root tau of

        tau*(int A(tau z)|grad z|^2 - lam int z^2)
           + tau^2/2 int A'(tau z) z |grad z|^2
           - tau^(p-1) int |z|^p = 0,

    the maximizer of tau -> E(tau z), by the fiber Newton of the pair
    rescale with k = 1: from `tau_init` when it is positive and finite,
    clamped into `FiberEvaluator.bracket`, and else or when that does not
    converge, from the constant-profile root.  Returns the k = 1
    ProjectionResult, t = (tau,); not projectable when neither start
    converges.

    With `synchronized`, z is the synchronized field of a symmetric pair,
    measured by E(z, z)/2 (`Energy.synchronized`), whose nonlinearity is
    (1 + beta)|z|^p/p: (tau, tau) is then the interior fiber root of the
    pair (z, z), and the energy is half the pair's.
    """
    energy = (Energy.synchronized if synchronized else Energy.scalar)(params, lam, fam)
    return _rescale(energy, z, grid, (), None if tau_init is None else (tau_init,))
