"""Two-parameter fibering maps and rescaling onto the constraint set.

For a pair u with both components nontrivial, the fibering map

    h_u(t1, t2) = E(t1 u1, t2 u2)

has critical points exactly at the rescalings t of u with (t1 u1, t2 u2)
on the constraint set (both residuals zero).  Under the structural
hypotheses on the diffusion profiles and admissible linear coefficients
the interior critical point is unique: for repulsive or vanishing
coupling (beta <= 0) it is the global maximizer of h, and the projection

    m(u) = (t1* u1, t2* u2)

is well defined whenever the necessary membership inequalities

    int |u_i|^p + beta * int |u1 u2|^(p/2) > 0,   i = 1, 2

hold; for attractive coupling (beta > 0) it is a saddle of h (the axis
maxima of the semi-trivial rescalings dominate), and it may genuinely
fail to exist when one component is energetically redundant, which
callers treat as candidate collapse.  For both signs one damped Newton
on the fiber gradient locates it, from a warm guess and else from the
axis roots, with a stationarity test relative to t_k int |grad u_k|^2.

Every t-dependent integral separates: the profile terms depend on t_i
only through A_i(t_i u_i), so value/gradient grids over a box of n t per
axis cost O(n * n_cells) per component instead of O(n^2 * n_cells).

A state is a bare nodal array: `project_to_nehari` and
`critical_cell_count` take a (2, nx, ny) pair stack, `scalar_fiber_root`
an (nx, ny) field.  Each checks its input in one place (shape, finite
entries, no zero component) and samples it once; a projection returns
the sample of the projected stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import KIND_IDENTITY, CoefficientFamily
from .energy import CellSample, Energy, NehariResidual, ProblemParams
from .errors import (
    DegenerateInput,
    GridMismatch,
    InvalidParams,
    InvalidState,
    NoConvergence,
)
from .grid import Grid, cell_gradients

STATUS_INTERIOR_MAX = "interior_max"
STATUS_NOT_PROJECTABLE = "not_projectable"


@dataclass(frozen=True)
class FiberPoint:
    t1: float
    t2: float

    def __post_init__(self):
        if not (self.t1 > 0.0 and self.t2 > 0.0):
            raise InvalidState(f"fiber point must be positive, got ({self.t1}, {self.t2})")
        if not (math.isfinite(self.t1) and math.isfinite(self.t2)):
            raise InvalidState("fiber point must be finite")


@dataclass(frozen=True)
class ProjectionResult:
    """A projection onto the constraint set.

    `status` is interior_max when the fiber Newton converged to the
    interior critical point t of the fibering map, for either sign of
    beta, and not_projectable, with a `reason`, when the membership
    inequalities fail or neither the warm nor the axis-root start
    converged.  For a projectable pair, `sample` is the cell sample of
    the projected stack `sample.x`, and `energy` is h_u(t) and `residual`
    holds t_i dh_u/dt_i(t): its energy and constraint residuals, read
    from the fiber map.
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

    def derivatives(self, t1: float, t2: float):
        """(h, g, J) at (t1, t2): h, the fiber gradient and its exact
        Jacobian, from one `_axis` call per component.

        The cross-term derivatives are analytic monomials; the axis terms
        come from A, A' and A'' at one scaled sample per component.
        """
        p, b = self.params.p, self.params.beta
        half = p / 2.0
        h, g, J = np.empty(2), np.empty(2), np.empty((2, 2))
        for k, tk in enumerate((t1, t2)):
            h[k], g[k], J[k, k] = self._axis(k, tk, 2)
        c = b * self.cross
        g[0] -= c * t1 ** (half - 1.0) * t2**half
        g[1] -= c * t2 ** (half - 1.0) * t1**half
        J[0, 0] -= c * (half - 1.0) * t1 ** (half - 2.0) * t2**half
        J[1, 1] -= c * (half - 1.0) * t2 ** (half - 2.0) * t1**half
        J[0, 1] = J[1, 0] = -c * half * t1 ** (half - 1.0) * t2 ** (half - 1.0)
        cross = (2.0 * b / p) * t1**half * t2**half * self.cross
        return float(h[0] + h[1] - cross), g, J


def _sample(x: np.ndarray, grid: Grid, lead: tuple[int, ...]) -> CellSample:
    """The cell sample of x, a (*lead, nx, ny) array, as a stack of its
    components.  Raises GridMismatch for any other shape, InvalidState for
    a non-finite entry and DegenerateInput for a zero component."""
    x = np.asarray(x, dtype=float)
    shape = (*lead, *grid.shape)
    if x.shape != shape:
        raise GridMismatch(f"need a state of shape {shape}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidState("state contains non-finite entries")
    x = x.reshape(-1, *grid.shape)
    for i, comp in enumerate(x, start=1):
        if not np.any(comp != 0.0):
            raise DegenerateInput(f"component {i} is identically zero")
    return CellSample(x, grid)


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


# Newton on the fiber gradient stops once |dh/dt_k| <= _FIBER_TOL * t_k *
# int |grad u_k|^2 for both k, or fails after _FIBER_MAX_ITER steps
_FIBER_TOL = 1e-10
_FIBER_MAX_ITER = 100
_WARM_MAX_ITER = 20     # steps from a warm guess before the axis roots take over


def _stationary(ev: FiberEvaluator, t: np.ndarray, g: np.ndarray, tol: float) -> bool:
    """Whether the fiber gradient g at t is zero to tol, relative to
    t_k int |grad u_k|^2 in component k.  The test is unchanged when the
    pair is rescaled, and a t_k collapsing to 0, where dh/dt_k vanishes
    with t_k, does not pass it."""
    return bool(np.all(np.abs(g) <= tol * t * ev._ia0))


def _sharpen(ev: FiberEvaluator, t: np.ndarray, h: float, g: np.ndarray, J: np.ndarray):
    """(t, h, g) after one extra quadratic step from a converged t with
    value h, gradient g and Jacobian J: it sharpens t well past the gradient
    tol, and is kept only when it does not increase the gradient."""
    trial = t + _solve_2x2(J, g, t)
    if np.all(trial > 0.0) and np.all(np.isfinite(trial)):
        h_trial, g_trial, _J = ev.derivatives(trial[0], trial[1])
        if np.max(np.abs(g_trial)) <= np.max(np.abs(g)):
            return trial, h_trial, g_trial
    return t, h, g


def _fiber_newton(ev: FiberEvaluator, t: np.ndarray, maximize: bool,
                  warm: bool = False):
    """Damped Newton from t for the interior zero of the fiber gradient;
    returns (t, h, g, converged), with h and g read at the final t from
    the one `derivatives` evaluation that each start and trial gets.

    With `maximize` (beta <= 0, where the zero is the maximizer of h) a
    trial must not lower h beyond rounding slack.  Where the Newton step
    is not an ascent direction (h is not concave there), a line search
    along it could only creep within that slack: a `warm` start then
    gives up at once, and any other start takes a gradient ascent step
    instead.  Without (beta > 0, where the zero is a saddle of h) a trial
    must lower max |dh/dt_k|.  A step is halved until a trial is
    accepted; when none is, t is converged if stationary to 10 * tol.  A
    `warm` start stops after _WARM_MAX_ITER steps.
    """
    h, g, J = ev.derivatives(t[0], t[1])
    for _ in range(_WARM_MAX_ITER if warm else _FIBER_MAX_ITER):
        if _stationary(ev, t, g, _FIBER_TOL):
            return (*_sharpen(ev, t, h, g, J), True)
        step = _solve_2x2(J, g, t)
        if maximize and float(g @ step) <= 0.0:
            if warm:
                return t, h, g, False
            step = _ascent_step(g, t)
        for scale in 0.5 ** np.arange(60.0):
            trial = t + scale * step
            if not np.all(trial > 0.0):
                continue
            h_trial, g_trial, J_trial = ev.derivatives(trial[0], trial[1])
            if maximize:
                if h_trial < h - 32.0 * np.finfo(float).eps * (abs(h) + 1.0):
                    continue
            elif not np.max(np.abs(g_trial)) < np.max(np.abs(g)):
                continue
            t, h, g, J = trial, h_trial, g_trial, J_trial
            break
        else:
            return t, h, g, _stationary(ev, t, g, 10.0 * _FIBER_TOL)
    return t, h, g, _stationary(ev, t, g, _FIBER_TOL)


def project_to_nehari(
    x: np.ndarray,
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
    *,
    t_init: tuple[float, float] | None = None,
) -> ProjectionResult:
    """Rescale the pair stack x, a (2, nx, ny) array, onto the constraint
    set at the interior critical point t of its fibering map.

    One damped Newton on the fiber gradient (`_fiber_newton`) finds t,
    maximizing h for beta <= 0 and lowering the gradient for beta > 0.
    It stops when |dh/dt_k| <= 1e-10 * t_k * int |grad u_k|^2 for both k.
    It runs from the warm guess `t_init` when one is given and, when that
    does not converge in _WARM_MAX_ITER steps, from the axis roots: the
    rescales of each component with the coupling ignored.  By uniqueness
    of the interior critical point both starts give the same t, and the
    energy and residuals are read from its last evaluation.  Returns
    not_projectable when the membership inequalities fail or when neither
    start converges; a stalled Newton never raises NoConvergence.
    """
    ev = FiberEvaluator(Energy.pair(params, fam1, fam2), _sample(x, grid, (2,)))
    m1, m2 = ev.membership_values()
    if m1 <= 0.0 or m2 <= 0.0:
        return ProjectionResult(
            status=STATUS_NOT_PROJECTABLE,
            reason=f"membership inequalities fail: ({m1:.3e}, {m2:.3e})",
        )

    maximize = params.beta <= 0.0
    converged = False
    if t_init is not None and t_init[0] > 0.0 and t_init[1] > 0.0:
        t, h, g, converged = _fiber_newton(ev, np.asarray(t_init, dtype=float),
                                           maximize, warm=True)
    if not converged:
        try:
            t = np.array([ev.axis_root(0), ev.axis_root(1)])
        except NoConvergence as err:
            return ProjectionResult(status=STATUS_NOT_PROJECTABLE, reason=str(err))
        t, h, g, converged = _fiber_newton(ev, t, maximize)
    if not converged:
        return ProjectionResult(
            status=STATUS_NOT_PROJECTABLE,
            reason=f"fiber Newton stalled at t = ({t[0]:.6g}, {t[1]:.6g})",
        )
    t1, t2 = float(t[0]), float(t[1])
    return ProjectionResult(
        status=STATUS_INTERIOR_MAX,
        t=FiberPoint(t1, t2),
        residual=NehariResidual(t1 * g[0], t2 * g[1]),
        energy=h,
        sample=ev.sample.scaled((t1, t2)),
    )


def h1_normalize(x: np.ndarray, grid: Grid) -> np.ndarray:
    """Each component of the (k, nx, ny) stack x scaled to unit gradient norm."""
    gx, gy = cell_gradients(x, grid)
    nrm = np.sqrt(np.sum(gx * gx + gy * gy, axis=(-2, -1)) * grid.cell_area)
    if np.any(nrm == 0.0):
        raise DegenerateInput("cannot normalize a gradient-free field")
    return x / nrm[:, None, None]


# the uniqueness check samples the box [1e-3, 1e3] with this many
# log-spaced t per axis
_UNIQUENESS_N = 200


def critical_cell_count(
    x: np.ndarray,
    params: ProblemParams,
    fam1: CoefficientFamily,
    fam2: CoefficientFamily,
    grid: Grid,
) -> int:
    """Count box cells where both fiber gradient components change sign,
    for the pair stack x.

    A transversal fiber critical point shows up as exactly one such cell;
    the count is the sampled check of critical-point uniqueness.
    """
    ev = FiberEvaluator(Energy.pair(params, fam1, fam2), _sample(x, grid, (2,)))
    taus = np.logspace(-3.0, 3.0, _UNIQUENESS_N)
    g1, g2 = ev.grad(taus[:, None], taus[None, :])
    s1 = g1 > 0.0
    s2 = g2 > 0.0

    def mixed(s):
        blocks = s[:-1, :-1] & s[1:, :-1] & s[:-1, 1:] & s[1:, 1:]
        any_true = s[:-1, :-1] | s[1:, :-1] | s[:-1, 1:] | s[1:, 1:]
        return any_true & ~blocks

    return int(np.sum(mixed(s1) & mixed(s2)))


def scalar_fiber_root(
    z: np.ndarray,
    lam: float,
    params: ProblemParams,
    fam: CoefficientFamily,
    grid: Grid,
    nonlin_coeff: float = 1.0,
    tau_init: float | None = None,
) -> float:
    """Unique positive rescaling tau with tau*z on the scalar constraint set,
    for the (nx, ny) nodal array z.

    Solves tau*(int A(tau z)|grad z|^2 - lam int z^2)
           + tau^2/2 int A'(tau z) z |grad z|^2
           - c * tau^(p-1) int |z|^p = 0.
    """
    sample = _sample(z, grid, ())
    if nonlin_coeff <= 0.0:
        raise InvalidParams(f"need a positive nonlinearity weight, got {nonlin_coeff}")
    ev = FiberEvaluator(Energy.scalar(params, lam, fam, nonlin_coeff), sample)
    warm = tau_init is not None and tau_init > 0.0 and math.isfinite(tau_init)
    return ev.axis_root(0, tau_init if warm else None)
