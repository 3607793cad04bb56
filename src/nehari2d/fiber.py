"""Two-parameter fibering maps and rescaling onto the constraint set.

For a pair u with both components nontrivial, the fibering map

    h_u(t1, t2) = E(t1 u1, t2 u2)

has critical points exactly at the rescalings t of u with (t1 u1, t2 u2)
on the constraint set (both residuals zero).  For repulsive or vanishing
coupling (beta <= 0), under the structural hypotheses on the diffusion
profiles and admissible linear coefficients, the critical point is unique
and is the global maximizer, so the projection

    m(u) = (t1* u1, t2* u2)

is well defined whenever the necessary membership inequalities

    int |u_i|^p + beta * int |u1 u2|^(p/2) > 0,   i = 1, 2

hold; it is located by a log-spaced coarse scan (one automatic box
enlargement) followed by damped Newton on the fiber gradient.  For
attractive coupling (beta > 0) the fully nontrivial critical point is a
saddle of h (the axis maxima of the semi-trivial rescalings dominate), so
the rescale is computed by damped Newton root-finding on the fiber
gradient instead; it may genuinely fail to exist when one component is
energetically redundant, which callers treat as candidate collapse.

Every t-dependent integral separates: the profile terms depend on t_i
only through A_i(t_i u_i), so value/gradient grids over the scan box cost
O(n_scan * n_cells) per component instead of O(n_scan^2 * n_cells).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import KIND_IDENTITY, CoefficientFamily
from .energy import (
    CellSample,
    Energy,
    NehariResidual,
    ProblemParams,
    scale_state,
    total_energy,
)
from .errors import DegenerateInput, NoConvergence
from .grid import Grid, ScalarField, StatePair, cell_gradients

STATUS_INTERIOR_MAX = "interior_max"
STATUS_NOT_PROJECTABLE = "not_projectable"


@dataclass(frozen=True)
class FiberPoint:
    t1: float
    t2: float

    def __post_init__(self):
        if not (self.t1 > 0.0 and self.t2 > 0.0):
            raise ValueError(f"fiber point must be positive, got ({self.t1}, {self.t2})")
        if not (math.isfinite(self.t1) and math.isfinite(self.t2)):
            raise ValueError("fiber point must be finite")


@dataclass(frozen=True)
class ProjectionResult:
    """A projection onto the constraint set.

    For a projectable pair, `energy` is h_u(t) and `residual` holds
    t_i dh_u/dt_i(t): the energy and constraint residuals of `projected`,
    read from the fiber map.  `sample` is the cell sample of `projected`.
    """

    status: str
    t: FiberPoint | None = None
    residual: NehariResidual | None = None
    reason: str = ""
    energy: float | None = None
    sample: CellSample | None = field(default=None, repr=False, compare=False)

    @property
    def projectable(self) -> bool:
        return self.status == STATUS_INTERIOR_MAX

    @property
    def projected(self) -> StatePair | None:
        """The projected pair, built from the nodal values of `sample`."""
        if self.sample is None:
            return None
        return StatePair.from_stack(self.sample.x, self.sample.grid.spec)


class FiberEvaluator:
    """Cached per-cell data of one state for fast fiber evaluations.

    Built on one CellSample of a k-component state and the Energy it is
    measured in: k = 1 for the scalar fiber tau -> E(tau z), whose |z|^p
    term carries the weight c, and k = 2 for a pair with its cross term.
    Axis k reads component k of the sample: its cell values v, |grad v|^2
    and q = int v^2, pp = int |v|^p, ia0 = int |grad v|^2.
    """

    def __init__(self, energy: Energy, sample: CellSample):
        self.params = energy.params
        self.fams = energy.fams
        self.lams = energy.lams
        self.c = energy.c
        self.sample = sample
        self.area = sample.grid.cell_area
        p = self.params.p
        v, gsq = sample.v, sample.gsq
        self._v = v
        # weights of the profile integrals int A^(j)(tau v) v^j |grad v|^2
        self._w = (gsq, v * gsq, v * v * gsq)
        self._ia0, self.q, self.pp = sample.integrals(p)
        self._const_profile = [fam.kind == KIND_IDENTITY for fam in self.fams]
        self.cross = (
            float(np.sum(np.abs(v[0] * v[1]) ** (p / 2.0))) * self.area
            if len(v) == 2
            else 0.0
        )

    def membership_values(self) -> tuple[float, float]:
        """int |u_i|^p + beta * cross term, for i = 1, 2."""
        b = self.params.beta
        return (self.pp[0] + b * self.cross, self.pp[1] + b * self.cross)

    def _axis(self, k: int, tau, order: int) -> list:
        """The terms of h depending on t_k alone (all but the cross term) at
        tau, a float or an array, and their first `order` (<= 2) derivatives.

        With I_j(tau) = int A^(j)(tau v) v^j |grad v|^2, so that I_j' =
        I_(j+1), all read from one scaled sample tau*v, the terms are
        tau^2/2 (I_0 - lam q) - c tau^p/p int |v|^p.
        """
        p, c, pp = self.params.p, self.c, self.pp[k]
        if self._const_profile[k]:
            ia = (self._ia0[k], 0.0, 0.0)
        else:
            fam = self.fams[k]
            sv = np.multiply.outer(tau, self._v[k])
            ia = [
                np.sum(f(sv) * w[k], axis=(-2, -1)) * self.area
                for f, w in zip((fam.a, fam.da, fam.d2a)[: order + 1], self._w)
            ]
        quad = ia[0] - self.lams[k] * self.q[k]
        terms = [0.5 * tau**2 * quad - (c / p) * tau**p * pp]
        if order >= 1:
            terms.append(tau * quad + 0.5 * tau**2 * ia[1] - c * tau ** (p - 1.0) * pp)
        if order >= 2:
            terms.append(
                quad + 2.0 * tau * ia[1] + 0.5 * tau**2 * ia[2]
                - c * (p - 1.0) * tau ** (p - 2.0) * pp
            )
        return terms

    def axis_root(self, k: int, tau0: float | None = None):
        """Unique positive zero of the axis gradient (coupling ignored), from
        tau0, or else from the root of the constant-profile gradient
        tau (ia0 - lam q) - c tau^(p-1) pp (1 when that has none)."""
        if tau0 is None:
            quad = self._ia0[k] - self.lams[k] * self.q[k]
            nonlin = self.c * self.pp[k]
            ok = quad > 0.0 and nonlin > 0.0
            tau0 = (quad / nonlin) ** (1.0 / (self.params.p - 2.0)) if ok else 1.0
        return positive_root(lambda tau: self._axis(k, tau, 2)[1:], tau0)

    def value(self, t1, t2):
        """h(t1, t2); t1 and t2 may be arrays that broadcast together."""
        p, b = self.params.p, self.params.beta
        cross = (2.0 * b / p) * t1 ** (p / 2.0) * t2 ** (p / 2.0) * self.cross
        return self._axis(0, t1, 0)[0] + self._axis(1, t2, 0)[0] - cross

    def grad(self, t1, t2):
        """(dh/dt1, dh/dt2) at (t1, t2), broadcast like `value`."""
        p, b = self.params.p, self.params.beta
        half = p / 2.0
        g1 = self._axis(0, t1, 1)[1] - b * t1 ** (half - 1.0) * t2**half * self.cross
        g2 = self._axis(1, t2, 1)[1] - b * t2 ** (half - 1.0) * t1**half * self.cross
        return g1, g2

    def grad_and_jacobian(self, t1: float, t2: float):
        """Fiber gradient and its exact Jacobian at (t1, t2).

        The cross-term derivatives are analytic monomials; the axis terms
        come from A, A' and A'' at one scaled sample per component.
        """
        p, b = self.params.p, self.params.beta
        half = p / 2.0
        g = np.empty(2)
        J = np.empty((2, 2))
        for k, tk in enumerate((t1, t2)):
            _, g[k], J[k, k] = self._axis(k, tk, 2)
        c = b * self.cross
        g[0] -= c * t1 ** (half - 1.0) * t2**half
        g[1] -= c * t2 ** (half - 1.0) * t1**half
        J[0, 0] -= c * (half - 1.0) * t1 ** (half - 2.0) * t2**half
        J[1, 1] -= c * (half - 1.0) * t2 ** (half - 2.0) * t1**half
        J[0, 1] = J[1, 0] = -c * half * t1 ** (half - 1.0) * t2 ** (half - 1.0)
        return g, J


def _pair_evaluator(
    u: StatePair,
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
) -> FiberEvaluator:
    energy = Energy.pair(params, fam1, fam2)
    return FiberEvaluator(energy, CellSample(u.stacked(), grid))


def fiber_value(
    u: StatePair,
    t: FiberPoint,
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
) -> float:
    """h_u(t); evaluated as total_energy of the scaled pair (same quadrature)."""
    return total_energy(scale_state(u, t.t1, t.t2), params, fam1, fam2, grid)


def fiber_gradient(
    u: StatePair,
    t: FiberPoint,
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
) -> tuple[float, float]:
    """(dh/dt1, dh/dt2) at t."""
    return _pair_evaluator(u, params, fam1, fam2, grid).grad(t.t1, t.t2)


def _check_nontrivial(u: StatePair):
    if not np.any(u.u1.values != 0.0):
        raise DegenerateInput("first component is identically zero")
    if not np.any(u.u2.values != 0.0):
        raise DegenerateInput("second component is identically zero")


def _solve_2x2(J: np.ndarray, g: np.ndarray, t: np.ndarray) -> np.ndarray:
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    if det != 0.0 and np.all(np.isfinite(J)):
        step = np.array(
            [
                (-g[0] * J[1, 1] + g[1] * J[0, 1]) / det,
                (-g[1] * J[0, 0] + g[0] * J[1, 0]) / det,
            ]
        )
        if np.all(np.isfinite(step)):
            return step
    return _ascent_step(g, t)


def _ascent_step(g: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Step along the fiber gradient, no longer than the smaller of t."""
    return g * (min(t[0], t[1]) / (np.max(np.abs(g)) + 1.0))


# positive_root stops at this step size relative to tau
_ROOT_TOL = 1e-12


def positive_root(psi, tau0: float) -> float:
    """Unique positive zero of psi, which is > 0 below it and < 0 above it.

    `psi(tau)` returns psi and its exact slope at one tau, one call per
    step.  The bracket starts open, (0, inf), and is tightened by the sign
    of psi.  A Newton step is taken when it stays inside the bracket and,
    across a side still open, within a factor 2 of tau; otherwise tau is
    doubled or halved while a side is open, and bisected once the bracket
    is closed.  Returns as soon as psi is exactly zero or the step is
    within _ROOT_TOL * tau; raises NoConvergence after 100 steps.
    """
    lo, hi = 0.0, math.inf
    tau = float(tau0)
    for _ in range(100):
        f, df = psi(tau)
        if f == 0.0:
            return tau
        if f > 0.0:
            lo = tau
        else:
            hi = tau
        t_new = tau - f / df if df != 0.0 else math.nan
        # tested before the safeguard: a converged step lands on the
        # bracket end tau itself, which the strict test below rejects
        if abs(t_new - tau) <= _ROOT_TOL * tau:
            return float(t_new)
        lower = lo if lo > 0.0 else 0.5 * tau
        upper = hi if hi < math.inf else 2.0 * tau
        if not lower < t_new < upper:
            if hi == math.inf:
                t_new = 2.0 * tau
            elif lo == 0.0:
                t_new = 0.5 * tau
            else:
                t_new = 0.5 * (lo + hi)
                if hi - lo <= 2.0 * _ROOT_TOL * t_new:
                    return t_new
        tau = float(t_new)
    raise NoConvergence(
        f"fiber root not found in 100 steps (bracket [{lo:.6g}, {hi:.6g}])",
        iterations=100,
    )


# Newton on the fiber gradient stops at this gradient tolerance, relative
# to 1 + |h|, or fails after this many steps
_FIBER_TOL = 1e-10
_FIBER_MAX_ITER = 100


def _newton_root(ev: FiberEvaluator, t: np.ndarray):
    """Damped Newton for a zero of the fiber gradient (beta > 0 rescale).

    With attractive coupling the fully nontrivial critical point is a
    saddle of h, so the merit function is the gradient norm rather than
    the fiber value.
    """
    g, J = ev.grad_and_jacobian(t[0], t[1])
    merit = float(np.max(np.abs(g)))
    for _ in range(_FIBER_MAX_ITER):
        h = ev.value(t[0], t[1])
        if merit <= _FIBER_TOL * (abs(h) + 1.0):
            trial = t + _solve_2x2(J, g, t)
            if np.all(trial > 0.0) and np.all(np.isfinite(trial)):
                g_trial, J_trial = ev.grad_and_jacobian(trial[0], trial[1])
                if np.max(np.abs(g_trial)) <= merit:
                    t, g, J = trial, g_trial, J_trial
            return t, True
        step = _solve_2x2(J, g, t)
        scale = 1.0
        accepted = False
        for _ in range(60):
            trial = t + scale * step
            if np.all(trial > 0.0):
                g_try, J_try = ev.grad_and_jacobian(trial[0], trial[1])
                m_try = float(np.max(np.abs(g_try)))
                if m_try < merit:
                    t, g, J, merit = trial, g_try, J_try, m_try
                    accepted = True
                    break
            scale *= 0.5
        if not accepted:
            return t, False
    return t, False


def _newton_polish(ev: FiberEvaluator, t: np.ndarray, warm: bool):
    """Damped Newton on the fiber gradient, maximizing h along the way.

    Where the Newton step is not an ascent direction (h is not concave
    there), a line search along it could only creep within its rounding
    slack without increasing h.  A warm start then gives up at once and
    leaves t to the scan; a start from the scan maximum takes a gradient
    ascent step instead.
    """
    h = ev.value(t[0], t[1])
    for _ in range(_FIBER_MAX_ITER):
        g, J = ev.grad_and_jacobian(t[0], t[1])
        if np.max(np.abs(g)) <= _FIBER_TOL * (abs(h) + 1.0):
            # one extra quadratic step sharpens t well past the gradient tol
            trial = t + _solve_2x2(J, g, t)
            if np.all(trial > 0.0) and np.all(np.isfinite(trial)):
                g_trial = np.array(ev.grad(trial[0], trial[1]))
                if np.max(np.abs(g_trial)) <= np.max(np.abs(g)):
                    t = trial
            return t, True
        step = _solve_2x2(J, g, t)
        if float(g @ step) <= 0.0:
            if warm:
                return t, False
            step = _ascent_step(g, t)

        # halve until positive and h does not decrease (tiny fp slack)
        slack = 32.0 * np.finfo(float).eps * (abs(h) + 1.0)
        scale = 1.0
        accepted = False
        for _ in range(60):
            trial = t + scale * step
            if np.all(trial > 0.0):
                h_trial = ev.value(trial[0], trial[1])
                if h_trial >= h - slack:
                    t, h = trial, h_trial
                    accepted = True
                    break
            scale *= 0.5
        if not accepted:
            return t, _stationary(ev, t, h, 10.0 * _FIBER_TOL)
    return t, _stationary(ev, t, h, _FIBER_TOL)


def _stationary(ev: FiberEvaluator, t: np.ndarray, h: float, tol: float) -> bool:
    g = np.array(ev.grad(t[0], t[1]))
    return bool(np.max(np.abs(g)) <= tol * (abs(h) + 1.0))


# the coarse scan for beta <= 0: _SCAN_N log-spaced t per axis over
# [_SCAN_T_MIN, _SCAN_T_MAX]
_SCAN_T_MIN = 1e-3
_SCAN_T_MAX = 1e3
_SCAN_N = 64


def project_to_nehari(
    u: StatePair,
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
    *,
    t_init: tuple[float, float] | None = None,
) -> ProjectionResult:
    """Rescale u onto the constraint set via its fiber maximizer.

    Returns not_projectable when the necessary membership inequalities
    fail or when the coarse-scan maximum escapes the search box even
    after one tenfold enlargement.  A warm-start guess `t_init` skips the
    coarse scan when Newton succeeds from it; by uniqueness of the fiber
    critical point the outcome is the same.
    """
    _check_nontrivial(u)
    ev = _pair_evaluator(u, params, fam1, fam2, grid)
    m1, m2 = ev.membership_values()
    if m1 <= 0.0 or m2 <= 0.0:
        return ProjectionResult(
            status=STATUS_NOT_PROJECTABLE,
            reason=f"membership inequalities fail: ({m1:.3e}, {m2:.3e})",
        )

    if params.beta > 0.0:
        # attractive coupling: the fully nontrivial critical point is a
        # saddle of h, found by root-finding instead of maximization
        if t_init is not None and t_init[0] > 0.0 and t_init[1] > 0.0:
            t0 = np.asarray(t_init, dtype=float)
        else:
            t0 = np.array([ev.axis_root(0), ev.axis_root(1)])
        t, converged = _newton_root(ev, t0)
        if not converged:
            return ProjectionResult(
                status=STATUS_NOT_PROJECTABLE,
                reason="no interior rescale found (attractive coupling)",
            )
    else:
        t = None
        if t_init is not None and t_init[0] > 0.0 and t_init[1] > 0.0:
            t_warm, converged = _newton_polish(
                ev, np.asarray(t_init, dtype=float), warm=True
            )
            if converged:
                t = t_warm
        if t is None:
            lo, hi = _SCAN_T_MIN, _SCAN_T_MAX
            for attempt in range(2):
                taus = np.logspace(math.log10(lo), math.log10(hi), _SCAN_N)
                H = ev.value(taus[:, None], taus[None, :])
                k1, k2 = np.unravel_index(int(np.argmax(H)), H.shape)
                on_border = k1 in (0, _SCAN_N - 1) or k2 in (0, _SCAN_N - 1)
                if not on_border:
                    break
                lo, hi = lo / 10.0, hi * 10.0
            else:
                return ProjectionResult(
                    status=STATUS_NOT_PROJECTABLE,
                    reason="scan maximum on box boundary after enlargement",
                )

            t0 = np.array([taus[k1], taus[k2]])
            t, converged = _newton_polish(ev, t0, warm=False)
            if not converged:
                raise NoConvergence(
                    f"fiber Newton stalled at t = ({t[0]:.6g}, {t[1]:.6g})",
                    iterations=_FIBER_MAX_ITER,
                )
    t1, t2 = float(t[0]), float(t[1])
    g1, g2 = ev.grad(t1, t2)
    return ProjectionResult(
        status=STATUS_INTERIOR_MAX,
        t=FiberPoint(t1, t2),
        residual=NehariResidual(t1 * g1, t2 * g2),
        energy=ev.value(t1, t2),
        sample=ev.sample.scaled((t1, t2)),
    )


def h1_normalize(x: np.ndarray, grid: Grid) -> np.ndarray:
    """Each component of the (k, nx, ny) stack x scaled to unit gradient norm."""
    gx, gy = cell_gradients(x, grid)
    nrm = np.sqrt(np.sum(gx * gx + gy * gy, axis=(-2, -1)) * grid.cell_area)
    if np.any(nrm == 0.0):
        raise DegenerateInput("cannot normalize a gradient-free field")
    return x / nrm[:, None, None]


def sphere_normalize(u: StatePair, grid: Grid) -> StatePair:
    """Scale each component to unit gradient norm."""
    _check_nontrivial(u)
    return StatePair.from_stack(h1_normalize(u.stacked(), grid), u.spec)


# the uniqueness check samples the scan box with this many log-spaced t
# per axis
_UNIQUENESS_N = 200


def critical_cell_count(
    u: StatePair,
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
) -> int:
    """Count scan cells where both fiber gradient components change sign.

    A transversal fiber critical point shows up as exactly one such cell;
    the count is the sampled check of critical-point uniqueness.
    """
    ev = _pair_evaluator(u, params, fam1, fam2, grid)
    taus = np.logspace(
        math.log10(_SCAN_T_MIN), math.log10(_SCAN_T_MAX), _UNIQUENESS_N
    )
    g1, g2 = ev.grad(taus[:, None], taus[None, :])
    s1 = g1 > 0.0
    s2 = g2 > 0.0

    def mixed(s):
        blocks = s[:-1, :-1] & s[1:, :-1] & s[:-1, 1:] & s[1:, 1:]
        any_true = s[:-1, :-1] | s[1:, :-1] | s[:-1, 1:] | s[1:, 1:]
        return any_true & ~blocks

    return int(np.sum(mixed(s1) & mixed(s2)))


def scalar_fiber_root(
    z: ScalarField,
    lam: float,
    params: ProblemParams,
    fam: CoefficientFamily,
    grid: Grid,
    nonlin_coeff: float = 1.0,
    tau_init: float | None = None,
) -> float:
    """Unique positive rescaling tau with tau*z on the scalar constraint set.

    Solves tau*(int A(tau z)|grad z|^2 - lam int z^2)
           + tau^2/2 int A'(tau z) z |grad z|^2
           - c * tau^(p-1) int |z|^p = 0.
    """
    if not np.any(z.values != 0.0):
        raise DegenerateInput("cannot rescale the zero field")
    if nonlin_coeff <= 0.0:
        raise ValueError(f"need a positive nonlinearity weight, got {nonlin_coeff}")
    ev = FiberEvaluator(
        Energy.scalar(params, lam, fam, nonlin_coeff), CellSample(z.values[None], grid)
    )
    warm = tau_init is not None and tau_init > 0.0 and math.isfinite(tau_init)
    return ev.axis_root(0, tau_init if warm else None)
