"""Isotropic diffusion coefficient families and hypothesis certification.

A family supplies the scalar profile A(s) of an isotropic coefficient
A(s)*Id together with its derivatives A'(s), A''(s) and the structural
constants (nu, C0, gamma).  The certifier samples a range of s and
checks the four structural conditions the variational theory rests on:

  (a1)  |A(s)| <= C0 and |A'(s)| <= C0
  (a2)  A(s) >= nu                          (ellipticity, nu in (0, 1])
  (a3)  0 <= s*A'(s) <= gamma*A(s)          with gamma in (0, p-2)
  (a4)  s -> s^(3-p) * A'(s) strictly decreasing on s > 0

A sampled pass is evidence, not proof; the report records the range and
density used.  (a4) degenerates for A' identically zero (the constant
coefficient / pure Laplacian case); that is reported as pass(degenerate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidParams, InvalidRange, NonFiniteSample

KIND_IDENTITY = "identity"
KIND_EXAMPLE = "example"
KIND_TABULATED = "tabulated"


@dataclass(frozen=True)
class CoefficientFamily:
    """Profile A(s), derivatives A'(s), A''(s) and constants of one component.

    The derivatives are 0 at s = 0 wherever they do not exist there.
    """

    kind: str
    a: Callable[[np.ndarray], np.ndarray]
    da: Callable[[np.ndarray], np.ndarray]
    d2a: Callable[[np.ndarray], np.ndarray]
    nu: float
    c0: float
    gamma: float
    label: str = ""

    def jet(self, s: np.ndarray, order: int) -> tuple:
        """(A(s), ..., A^(order)(s)), order <= 2: one `a` call for order 0,
        else one pass for `example` and `a`, `da`, `d2a` calls otherwise."""
        if order == 0:
            return (self.a(s),)
        if self.kind == KIND_EXAMPLE:
            return _example_jet(s, order, self.gamma)
        return tuple(f(s) for f in (self.a, self.da, self.d2a)[: order + 1])

    def on_sample(self, v: np.ndarray, w: np.ndarray, area: float):
        """The profile bound to one sampled component: its cell values v,
        cell weights w and the cell area.  Returns integrals(tau, order)
        -> (I_0, ..., I_order), order <= 2, with

            I_j(tau) = area * sum over the cells of A^(j)(tau v) v^j w,

        floats for a float tau and arrays of its shape for an array of
        taus.  `identity` returns its constants, and `example` reads two
        cell arrays fixed here (`_example_integrals`); any other family
        evaluates `jet` at tau v."""
        if self.kind == KIND_IDENTITY:
            constants = (float(np.sum(w) * area), 0.0, 0.0)
            return lambda tau, order: constants[: order + 1]
        exact = _jet_integrals(self, v, w, area)
        if self.kind == KIND_EXAMPLE:
            return _example_integrals(v, w, area, self.gamma, exact)
        return exact

    def __post_init__(self):
        if not (0.0 < self.nu <= 1.0):
            raise InvalidParams(f"need nu in (0, 1], got {self.nu}")
        if not (0.0 < self.c0 < math.inf):
            raise InvalidParams(f"need a finite C0 > 0, got {self.c0}")
        if not (0.0 < self.gamma < math.inf):
            raise InvalidParams(f"need a finite gamma > 0, got {self.gamma}")


def identity_family(gamma: float = 1.0) -> CoefficientFamily:
    """Constant coefficient A(s) = 1 (plain Laplacian diffusion)."""
    return CoefficientFamily(
        kind=KIND_IDENTITY,
        a=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        da=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        d2a=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        nu=1.0,
        c0=1.0,
        gamma=gamma,
        label="identity",
    )


def _example_sup_abs_da(gamma: float) -> float:
    # sup over s of |gamma * |s|^(gamma-1) / (1 + |s|^gamma)^2|.  For
    # gamma > 1 the maximum sits at s* = ((gamma-1)/(gamma+1))^(1/gamma);
    # for gamma = 1 the sup is 1 (at s -> 0); for gamma < 1 it is infinite.
    if gamma > 1.0:
        s_star = ((gamma - 1.0) / (gamma + 1.0)) ** (1.0 / gamma)
        return gamma * s_star ** (gamma - 1.0) / (1.0 + s_star**gamma) ** 2
    if gamma == 1.0:
        return 1.0
    return math.inf


def example_family(gamma: float) -> CoefficientFamily:
    """Saturating profile A(s) = 1 + |s|^gamma / (1 + |s|^gamma).

    Even in s, takes values in [1, 2], so nu = 1.  The derivative
    A'(s) = gamma * |s|^(gamma-2) * s / (1 + |s|^gamma)^2 is odd and
    A''(s) = gamma |s|^(gamma-2) [(gamma-1) - (gamma+1)|s|^gamma]
             / (1 + |s|^gamma)^3
    is even.  Where they do not exist at s = 0 (A' for gamma <= 1, A'' for
    gamma < 2) they are taken to be 0 there.  For gamma < 1 the
    derivative is unbounded near 0 and no finite C0 can satisfy (a1); the
    declared C0 then only covers A itself and certification reports the
    violation honestly.
    """
    def a(s):
        return _example_jet(np.asarray(s, dtype=float), 0, gamma)[0]

    def da(s):
        return _example_jet(np.asarray(s, dtype=float), 1, gamma)[1]

    sup_da = _example_sup_abs_da(gamma)
    c0 = max(2.0, sup_da) if math.isfinite(sup_da) else 2.0
    return CoefficientFamily(
        kind=KIND_EXAMPLE,
        a=a,
        da=da,
        d2a=lambda s: _example_jet(np.asarray(s, dtype=float), 2, gamma)[2],
        nu=1.0,
        c0=c0,
        gamma=gamma,
        label=f"example(gamma={gamma:g})",
    )


# the smallest normal float
_TINY = np.finfo(float).tiny


def _example_jet(s: np.ndarray, order: int, gamma: float) -> tuple:
    """A and its first `order` derivatives (order <= 2) of the example
    profile in one pass.

    With x = |s|^gamma and r = 1/(1 + x): A = 1 + x r, A' = d1 s and
    A'' = d1 [(gamma-1) r - (gamma+1) x r], d1 = gamma |s|^(gamma-2) r^2.
    x r and r are taken from y = |s|^-gamma, as 1/(1 + y) and
    1/(1 + 1/y), so they keep their limits where y is inf (s = 0, or x
    below the float range) or 0 (x above it): A is in [1, 2] at every
    finite s.  |s|^(gamma-2) is set to its A''-limit at s = 0 (1 at
    gamma = 2, else 0), and also below the normal floats and, for
    gamma > 2, above 2^(1000/(gamma-2)), lest an inf meet a 0 there.  So
    A' and A'' are never NaN; they are +-inf only where |s|^(gamma-2)
    reaches the top of the float range.
    """
    a_s = np.abs(s)
    with np.errstate(divide="ignore", over="ignore"):
        y = a_s ** -gamma
        xr = 1.0 / (1.0 + y)
        out = (1.0 + xr,)
        if order == 0:
            return out
        r = 1.0 / (1.0 + 1.0 / y)
        normal = a_s >= _TINY
        if gamma > 2.0:
            normal &= a_s <= 2.0 ** min(1000.0 / (gamma - 2.0), 1023.0)
        base = np.power(a_s, gamma - 2.0, out=np.full_like(a_s, float(gamma == 2.0)),
                        where=normal)
        d1 = gamma * base * r * r
    out += (d1 * s,)
    if order == 2:
        out += (d1 * ((gamma - 1.0) * r - (gamma + 1.0) * xr),)
    return out


def tabulated_family(
    a: Callable,
    da: Callable,
    nu: float,
    c0: float,
    gamma: float,
    label: str = "tabulated",
) -> CoefficientFamily:
    """Wrap arbitrary callables as a family; certification is the only guard.

    A'' is a central difference of `da`.
    """

    def d2a(s):
        s = np.asarray(s, dtype=float)
        # relative step about the cube root of machine epsilon
        h = 6e-6 * (1.0 + np.abs(s))
        return (np.asarray(da(s + h)) - np.asarray(da(s - h))) / (2.0 * h)

    return CoefficientFamily(
        kind=KIND_TABULATED, a=a, da=da, d2a=d2a, nu=nu, c0=c0, gamma=gamma,
        label=label,
    )


def _jet_integrals(fam: CoefficientFamily, v: np.ndarray, w: np.ndarray, area: float):
    """`CoefficientFamily.on_sample` from `fam.jet` at tau v: one quadrature
    sum per integral.  Where A' or A'' is infinite or near the top of the
    float range, so is its integral, without a warning."""

    def integrals(tau, order: int):
        jet = fam.jet(np.multiply.outer(tau, v), order)
        weights = (w, v * w, v * v * w)
        with np.errstate(over="ignore", invalid="ignore"):
            out = [np.sum(f * wj, axis=(-2, -1)) * area for f, wj in zip(jet, weights)]
        return [float(i) for i in out] if isinstance(tau, float) else out

    return integrals


# a float tau is bound to the example profile's sample when (gamma +
# max(gamma, 2)) |log2 |tau v|| is at most this for every nonzero cell value
# v: then every power of |tau v| that `_example_integrals` and `_example_jet`
# form is within 2^(+-_SPAN), far inside the normal floats
_SPAN = 600.0


def _example_integrals(v: np.ndarray, w: np.ndarray, area: float, gamma: float,
                       exact):
    """`CoefficientFamily.on_sample` of the example profile.

    With iy = |tau v|^gamma = tau^gamma |v|^gamma and r = 1/(1 + iy),
    `_example_jet` reads A(tau v) = 1 + iy r, A'(tau v) v = (gamma/tau)
    iy r^2 and A''(tau v) v^2 = (gamma/tau^2) iy r^3 ((gamma-1) -
    (gamma+1) iy).  So each evaluation is products of |v|^gamma, fixed
    here, with tau^gamma, and dot products of r, r^2 and r^3 ((gamma-1) -
    (gamma+1) iy) with |v|^gamma area w, also fixed here; they are formed
    in one work array.  Where (gamma + max(gamma, 2)) |log2 |tau v||
    exceeds _SPAN at a nonzero cell, for a tau that is not a positive
    float and for an array of taus, `exact` evaluates the jet, so that
    its limits and masks at extreme s, which act only there, still hold.
    """
    a_v = np.abs(v).ravel()
    g_v = a_v**gamma
    gwa = g_v * (w * area).ravel()
    total = float(w.sum() * area)
    top, low = float(a_v.max()), float(a_v.min())
    if low == 0.0:
        low = float(np.min(a_v, initial=top, where=a_v > 0.0))
    lo, hi = (math.log2(low), math.log2(top)) if low > 0.0 else (0.0, 0.0)
    reach = _SPAN / (gamma + max(gamma, 2.0))
    bound = max(abs(lo), abs(hi)) <= reach
    work = np.empty((4, a_v.size))

    def integrals(tau, order: int):
        if not (bound and isinstance(tau, float) and tau > 0.0):
            return exact(tau, order)
        e = math.log2(tau)
        if not max(abs(e), abs(e + lo), abs(e + hi)) <= reach:
            return exact(tau, order)
        tg = tau**gamma
        r, r2, r3q, iy = work
        np.multiply(g_v, tg, out=iy)
        np.reciprocal(np.add(iy, 1.0, out=r), out=r)
        if order >= 1:
            np.multiply(r, r, out=r2)
        if order == 2:
            np.multiply(iy, -(gamma + 1.0), out=r3q)
            r3q += gamma - 1.0
            r3q *= r2
            r3q *= r
        out = [total + tg * float(r @ gwa)]
        if order >= 1:
            c = gamma / tau * tg
            out.append(c * float(r2 @ gwa))
        if order == 2:
            out.append(c / tau * float(r3q @ gwa))
        return out

    return integrals


PASS = "pass"
PASS_DEGENERATE = "pass(degenerate)"
FAIL = "fail"

CONDITIONS = ("a1_bounds", "a2_ellipticity", "a3_growth", "a4_monotone", "gamma_window")


@dataclass(frozen=True)
class ConditionVerdict:
    condition: str
    status: str
    witness_s: float | None = None

    @property
    def passed(self) -> bool:
        return self.status != FAIL


@dataclass(frozen=True)
class CertReport:
    """Outcome of sampling-based certification of one family."""

    family_label: str
    s_min: float
    s_max: float
    n_samples: int
    p: float
    gamma: float
    verdicts: tuple[ConditionVerdict, ...] = field(default_factory=tuple)
    max_growth_ratio: float = 0.0  # observed sup of s*A'(s) / A(s)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def verdict(self, condition: str) -> ConditionVerdict:
        for v in self.verdicts:
            if v.condition == condition:
                return v
        raise KeyError(condition)

    def csv_rows(self) -> list[str]:
        rows = ["condition,verdict,witness_s"]
        for v in self.verdicts:
            w = "" if v.witness_s is None else f"{v.witness_s:.17g}"
            rows.append(f"{v.condition},{v.status},{w}")
        return rows


def _fail_witness(samples: np.ndarray, bad: np.ndarray) -> float:
    return float(samples[np.flatnonzero(bad)[0]])


def _verdict(condition: str, samples: np.ndarray, bad: np.ndarray) -> ConditionVerdict:
    """FAIL with the first sample where `bad` holds, else PASS."""
    if bad.any():
        return ConditionVerdict(condition, FAIL, _fail_witness(samples, bad))
    return ConditionVerdict(condition, PASS)


def certify(
    family: CoefficientFamily,
    p: float,
    s_range: tuple[float, float],
    n_samples: int = 1000,
) -> CertReport:
    """Check (a1)-(a4) and the gamma window on a uniform sample of s_range."""
    s_min, s_max = float(s_range[0]), float(s_range[1])
    if not (math.isfinite(s_min) and math.isfinite(s_max)):
        raise InvalidRange(f"need a finite range, got [{s_min}, {s_max}]")
    if not (s_min < s_max):
        raise InvalidRange(f"need s_min < s_max, got [{s_min}, {s_max}]")
    if n_samples < 100:
        raise InvalidRange(f"need at least 100 samples, got {n_samples}")

    s = np.linspace(s_min, s_max, n_samples)
    A, dA = (np.asarray(f, dtype=float) for f in family.jet(s, 1))
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(dA))):
        bad = ~(np.isfinite(A) & np.isfinite(dA))
        raise NonFiniteSample(f"profile non-finite at s = {_fail_witness(s, bad)}")

    sda = s * dA
    verdicts = [
        _verdict("a1_bounds", s, (np.abs(A) > family.c0) | (np.abs(dA) > family.c0)),
        _verdict("a2_ellipticity", s, A < family.nu),
        _verdict("a3_growth", s, (sda < 0.0) | (sda > family.gamma * A)),
    ]

    # (a4) on positive samples only, strict comparison, zero tolerance
    pos = s > 0.0
    sp, dAp = s[pos], dA[pos]
    if np.all(dA == 0.0):
        verdicts.append(ConditionVerdict("a4_monotone", PASS_DEGENERATE))
    elif sp.size < 2:
        verdicts.append(ConditionVerdict("a4_monotone", FAIL, witness_s=None))
    else:
        phi = sp ** (3.0 - p) * dAp
        verdicts.append(_verdict("a4_monotone", sp[1:], ~(phi[1:] < phi[:-1])))

    verdicts.append(
        ConditionVerdict("gamma_window", PASS)
        if 0.0 < family.gamma < p - 2.0
        else ConditionVerdict("gamma_window", FAIL, witness_s=None)
    )

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(A != 0.0, sda / A, 0.0)
    return CertReport(
        family_label=family.label or family.kind,
        s_min=s_min,
        s_max=s_max,
        n_samples=n_samples,
        p=p,
        gamma=family.gamma,
        verdicts=tuple(verdicts),
        max_growth_ratio=float(np.max(ratio)) if ratio.size else 0.0,
    )
