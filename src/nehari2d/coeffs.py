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

from .errors import InvalidRange, NonFiniteSample

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

    def __post_init__(self):
        if not (0.0 < self.nu <= 1.0):
            raise ValueError(f"need nu in (0, 1], got {self.nu}")
        if not (0.0 < self.c0 < math.inf):
            raise ValueError(f"need a finite C0 > 0, got {self.c0}")
        if not (0.0 < self.gamma < math.inf):
            raise ValueError(f"need a finite gamma > 0, got {self.gamma}")


def eval_A(family: CoefficientFamily, s) -> np.ndarray | float:
    """Profile value A(s); vectorized over s."""
    out = family.a(np.asarray(s, dtype=float))
    return float(out) if np.isscalar(s) or np.ndim(s) == 0 else out


def eval_dA(family: CoefficientFamily, s) -> np.ndarray | float:
    """Derivative A'(s); vectorized over s, odd when A is even."""
    out = family.da(np.asarray(s, dtype=float))
    return float(out) if np.isscalar(s) or np.ndim(s) == 0 else out


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
        sg = np.abs(s) ** gamma
        return 1.0 + sg / (1.0 + sg)

    def da(s):
        s = np.asarray(s, dtype=float)
        a_s = np.abs(s)
        # |s|^(gamma-2) only where s != 0; the limit value at 0 is 0
        base = np.power(a_s, gamma - 2.0, out=np.zeros_like(a_s), where=s != 0.0)
        return gamma * base * s / (1.0 + a_s**gamma) ** 2

    def d2a(s):
        a_s = np.abs(np.asarray(s, dtype=float))
        if gamma >= 2.0:
            base = a_s ** (gamma - 2.0)
        else:
            # A'' has no value at 0 for gamma < 2; use 0 there, as da does
            base = np.power(a_s, gamma - 2.0, out=np.zeros_like(a_s),
                            where=a_s != 0.0)
        sg = a_s**gamma
        return gamma * base * ((gamma - 1.0) - (gamma + 1.0) * sg) / (1.0 + sg) ** 3

    sup_da = _example_sup_abs_da(gamma)
    c0 = max(2.0, sup_da) if math.isfinite(sup_da) else 2.0
    return CoefficientFamily(
        kind=KIND_EXAMPLE,
        a=a,
        da=da,
        d2a=d2a,
        nu=1.0,
        c0=c0,
        gamma=gamma,
        label=f"example(gamma={gamma:g})",
    )


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
    A = np.asarray(family.a(s), dtype=float)
    dA = np.asarray(family.da(s), dtype=float)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(dA))):
        bad = ~(np.isfinite(A) & np.isfinite(dA))
        raise NonFiniteSample(f"profile non-finite at s = {_fail_witness(s, bad)}")

    verdicts = []

    bad = (np.abs(A) > family.c0) | (np.abs(dA) > family.c0)
    verdicts.append(
        ConditionVerdict("a1_bounds", FAIL, _fail_witness(s, bad))
        if bad.any()
        else ConditionVerdict("a1_bounds", PASS)
    )

    bad = A < family.nu
    verdicts.append(
        ConditionVerdict("a2_ellipticity", FAIL, _fail_witness(s, bad))
        if bad.any()
        else ConditionVerdict("a2_ellipticity", PASS)
    )

    sda = s * dA
    bad = (sda < 0.0) | (sda > family.gamma * A)
    verdicts.append(
        ConditionVerdict("a3_growth", FAIL, _fail_witness(s, bad))
        if bad.any()
        else ConditionVerdict("a3_growth", PASS)
    )

    # (a4) on positive samples only, strict comparison, zero tolerance
    pos = s > 0.0
    sp, dAp = s[pos], dA[pos]
    if np.all(dA == 0.0):
        verdicts.append(ConditionVerdict("a4_monotone", PASS_DEGENERATE))
    elif sp.size < 2:
        verdicts.append(ConditionVerdict("a4_monotone", FAIL, witness_s=None))
    else:
        phi = sp ** (3.0 - p) * dAp
        bad = ~(phi[1:] < phi[:-1])
        verdicts.append(
            ConditionVerdict("a4_monotone", FAIL, float(sp[1:][bad][0]))
            if bad.any()
            else ConditionVerdict("a4_monotone", PASS)
        )

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
