import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nehari2d import certify, example_family, identity_family
from nehari2d.coeffs import (
    FAIL,
    PASS,
    PASS_DEGENERATE,
    CoefficientFamily,
    tabulated_family,
)
from nehari2d.errors import InvalidParams, InvalidRange, NonFiniteSample

from conftest import PROPERTY

GAMMAS = (0.5, 1.0, 1.3, 1.9, 2.5)
nonzero_s = st.floats(0.01, 20.0).flatmap(lambda s: st.sampled_from((s, -s)))


def central_difference_of_da(fam, s):
    h = 1e-6 * abs(s)
    return (fam.da(np.array([s + h]))[0] - fam.da(np.array([s - h]))[0]) / (2 * h)


def d2a_scale(gamma, s):
    """Size of the two terms of the example A'', so that a zero crossing
    of A'' does not shrink the tolerance."""
    return gamma * abs(s) ** (gamma - 2.0) * (abs(gamma - 1.0) + gamma + 1.0)


class TestEvalA:
    """A(s), evaluated by a family's `a`."""

    def test_identity_constant(self):
        fam = identity_family()
        assert fam.a(7.3) == 1.0
        assert fam.a(-123.0) == 1.0

    def test_example_at_one(self):
        fam = example_family(2.0)
        assert fam.a(1.0) == pytest.approx(1.5, rel=1e-14)

    def test_example_bounds_large_s(self):
        fam = example_family(2.0)
        for s in (-1e8, -10.0, 0.0, 10.0, 1e8):
            assert 1.0 <= fam.a(s) <= 2.0

    def test_vectorized(self):
        fam = example_family(1.0)
        out = fam.a(np.array([0.0, 1.0]))
        assert out.shape == (2,)
        assert out[0] == 1.0 and out[1] == pytest.approx(1.5)


class TestEvalDA:
    """A'(s), evaluated by a family's `da`."""

    def test_identity_zero(self):
        fam = identity_family()
        assert fam.da(3.0) == 0.0

    def test_example_gamma2_values(self):
        fam = example_family(2.0)
        assert fam.da(1.0) == pytest.approx(0.5, rel=1e-14)
        assert fam.da(-1.0) == pytest.approx(-0.5, rel=1e-14)

    def test_oddness_random(self):
        rng = np.random.default_rng(0)
        for gamma in (1.0, 1.5, 2.0, 3.0):
            fam = example_family(gamma)
            s = rng.uniform(0.01, 50.0, size=50)
            assert np.allclose(fam.da(-s), -fam.da(s), rtol=1e-14, atol=0.0)

    def test_zero_at_origin(self):
        for gamma in (1.0, 1.5, 2.0):
            assert example_family(gamma).da(0.0) == 0.0


class TestD2A:
    @PROPERTY
    @given(gamma=st.sampled_from(GAMMAS), s=nonzero_s)
    def test_example_matches_difference_of_da(self, gamma, s):
        fam = example_family(gamma)
        fd = central_difference_of_da(fam, s)
        assert abs(fam.d2a(np.array([s]))[0] - fd) <= 1e-6 * d2a_scale(gamma, s)

    @pytest.mark.parametrize("gamma", GAMMAS + (2.0,))
    def test_example_value_at_origin_and_even(self, gamma):
        # A'' exists at 0 only for gamma >= 2: A = 1 + s^2 + O(s^4) at gamma 2
        fam = example_family(gamma)
        s = np.array([0.0, 0.3, 2.0])
        out = fam.d2a(s)
        assert out[0] == (2.0 if gamma == 2.0 else 0.0)
        assert np.array_equal(fam.d2a(-s), out)

    def test_identity_is_zero(self):
        s = np.linspace(-5.0, 5.0, 11)
        assert np.all(identity_family().d2a(s) == 0.0)

    @PROPERTY
    @given(gamma=st.sampled_from(GAMMAS), s=nonzero_s)
    def test_tabulated_differences_da(self, gamma, s):
        ex = example_family(gamma)
        fam = tabulated_family(ex.a, ex.da, nu=1.0, c0=2.0, gamma=gamma)
        err = abs(fam.d2a(np.array([s]))[0] - ex.d2a(np.array([s]))[0])
        assert err <= 1e-6 * d2a_scale(gamma, s)


def closed_form_da(gamma, s):
    """A' of the example profile, gamma |s|^(gamma-2) s / (1 + |s|^gamma)^2,
    with 0 at s = 0."""
    a_s = np.abs(s)
    base = np.power(a_s, gamma - 2.0, out=np.zeros_like(a_s), where=a_s != 0.0)
    return gamma * base * s / (1.0 + a_s**gamma) ** 2


def closed_form_d2a(gamma, s):
    """A'' of the example profile, gamma |s|^(gamma-2) [(gamma-1) -
    (gamma+1)|s|^gamma] / (1 + |s|^gamma)^3, with 0^0 = 1 at gamma = 2 and
    0 at s = 0 below; and the size of its two terms, which cancel near
    its zero crossing."""
    a_s = np.abs(s)
    if gamma >= 2.0:
        base = a_s ** (gamma - 2.0)
    else:
        base = np.power(a_s, gamma - 2.0, out=np.zeros_like(a_s), where=a_s != 0.0)
    sg = a_s**gamma
    head = gamma * base / (1.0 + sg) ** 3
    return (head * ((gamma - 1.0) - (gamma + 1.0) * sg),
            head * (abs(gamma - 1.0) + (gamma + 1.0) * sg))


# s = 0, and |s| from 1e-6 to 1e4 of either sign
JET_S = np.geomspace(1e-6, 1e4, 41)
JET_S = np.concatenate(([0.0], JET_S, -JET_S))


class TestJet:
    """A family's `jet(s, order)`: A and its first `order` derivatives."""

    @pytest.mark.parametrize("gamma", (0.5, 1.0, 1.3, 2.0, 2.5))
    def test_example_matches_a_da_and_d2a(self, gamma):
        fam = example_family(gamma)
        A, dA, d2A = fam.jet(JET_S, 2)
        sg = np.abs(JET_S) ** gamma
        assert np.allclose(A, 1.0 + sg / (1.0 + sg), rtol=1e-15, atol=0.0)
        assert np.allclose(dA, closed_form_da(gamma, JET_S), rtol=1e-13, atol=0.0)
        ref, scale = closed_form_d2a(gamma, JET_S)
        assert np.all(np.abs(d2A - ref) <= 1e-13 * scale)
        assert dA[0] == 0.0 and d2A[0] == ref[0] == (2.0 if gamma == 2.0 else 0.0)
        # a, da and d2a are views of the jet
        assert np.array_equal(fam.a(JET_S), A)
        assert np.array_equal(fam.da(JET_S), dA)
        assert np.array_equal(fam.d2a(JET_S), d2A)

    @pytest.mark.parametrize("order", (0, 1, 2))
    def test_truncation_to_order(self, order):
        fam = example_family(1.3)
        jet = fam.jet(JET_S, order)
        assert len(jet) == order + 1
        for got, w in zip(jet, fam.jet(JET_S, 2)):
            assert np.array_equal(got, w)

    @pytest.mark.parametrize("gamma", (0.5, 1.0))
    def test_one_profile_value_for_every_order(self, gamma):
        # order 0 is the family's `a`, higher orders the fused pass: the
        # same A bit for bit
        fam = example_family(gamma)
        s = np.linspace(-3.0, 3.0, 100_001)
        A = fam.jet(s, 0)[0]
        for order in (1, 2):
            assert np.array_equal(fam.jet(s, order)[0], A)

    @pytest.mark.parametrize("gamma", (0.05, 0.5, 1.0, 1.3, 2.0, 2.5, 3.0, 3.7, 30.0))
    def test_example_jet_at_extreme_s(self, gamma):
        # A is finite and A', A'' are never NaN, without a warning (the
        # suite turns warnings into errors), from the subnormals to the
        # largest float; A keeps its limits 1 and 2
        tiny = np.array([5e-324, 1e-310, 1e-300, 1e-207, 3e-206, 1e-160])
        huge = np.array([1e160, 1e300, np.finfo(float).max])
        s = np.concatenate(([0.0], tiny, huge, -tiny, -huge))
        fam = example_family(gamma)
        A, dA, d2A = fam.jet(s, 2)
        assert np.all(np.isfinite(A)) and np.all((1.0 <= A) & (A <= 2.0))
        assert not np.any(np.isnan(dA)) and not np.any(np.isnan(d2A))
        assert np.array_equal(fam.a(s), A) and np.array_equal(fam.da(s), dA)
        sg = np.abs(tiny) ** gamma
        assert np.allclose(A[1:7], 1.0 + sg / (1.0 + sg), rtol=1e-15, atol=0.0)
        sg = np.abs(huge) ** -gamma  # 1/|s|^gamma, which would overflow
        assert np.allclose(A[7:10], 1.0 + 1.0 / (1.0 + sg), rtol=1e-15, atol=0.0)
        assert np.array_equal(dA[1:10], -dA[10:]) and np.array_equal(d2A[1:10], d2A[10:])

    def test_identity_constants(self):
        A, dA, d2A = identity_family().jet(JET_S, 2)
        assert A.shape == dA.shape == d2A.shape == JET_S.shape
        assert np.all(A == 1.0) and np.all(dA == 0.0) and np.all(d2A == 0.0)

    def test_tabulated_is_a_da_and_difference_quotient(self):
        ex = example_family(1.3)
        fam = tabulated_family(ex.a, ex.da, nu=1.0, c0=2.0, gamma=1.3)
        want = (ex.a(JET_S), ex.da(JET_S), fam.d2a(JET_S))
        for order in (0, 1, 2):
            jet = fam.jet(JET_S, order)
            assert len(jet) == order + 1
            for got, w in zip(jet, want):
                assert np.array_equal(got, w)


def bound_sample(seed):
    """Signed cell values, weights and a cell area: one sampled component.
    Some values are exact zeros, and for every third seed one is 1e-280
    times the rest, so that its tau v leaves the normal floats first."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((16, 16)) * 10.0 ** rng.uniform(-3.0, 3.0)
    v[rng.random(v.shape) < 0.1] = 0.0
    if seed % 3 == 2:
        v[3, 5] *= 1e-280
    return v, rng.random(v.shape), 10.0 ** rng.uniform(-4.0, 0.0)


def jet_integrals(fam, v, w, area, tau, order):
    """I_j = area * sum A^(j)(tau v) v^j w from the jet at tau v."""
    jet = fam.jet(tau * v, order)
    with np.errstate(over="ignore", invalid="ignore"):
        return [float(np.sum(f * (v**j * w)) * area) for j, f in enumerate(jet)]


class TestOnSample:
    """`on_sample`: a profile bound to one sampled component gives the
    integrals of its jet at tau v."""

    ex = example_family(1.3)
    FAMILIES = {
        "identity": identity_family(),
        "tabulated": tabulated_family(ex.a, ex.da, nu=1.0, c0=2.0, gamma=1.3),
        **{f"example({g:g})": example_family(g) for g in (0.5, 1.0, 1.3, 2.5)},
    }

    @staticmethod
    def check(fam, seed, tau, order):
        v, w, area = bound_sample(seed)
        got = fam.on_sample(v, w, area)(tau, order)
        want = jet_integrals(fam, v, w, area, tau, order)
        assert len(got) == order + 1 and all(type(i) is float for i in got)
        if fam.kind == "example":
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        else:
            assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_taus_across_the_float_range(self, name):
        # from where every tau v is below the normal floats to where the
        # profile's powers overflow: the bound example kernel where it
        # applies, the jet elsewhere
        for seed in range(3):
            for tau in np.logspace(-200.0, 200.0, 81).tolist():
                for order in (0, 1, 2):
                    self.check(self.FAMILIES[name], seed, tau, order)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(FAMILIES)), seed=st.integers(0, 2**31),
           log_tau=st.floats(-200.0, 200.0), order=st.sampled_from((0, 1, 2)))
    def test_matches_the_jet(self, name, seed, log_tau, order):
        self.check(self.FAMILIES[name], seed, 10.0**log_tau, order)

    def test_exact_jet_where_a_cell_leaves_the_range(self, monkeypatch):
        # the bound kernel calls no jet; a tau that takes the smallest or
        # the largest nonzero |tau v| far from 1 is evaluated by the jet
        calls = []
        jet = CoefficientFamily.jet
        monkeypatch.setattr(CoefficientFamily, "jet",
                            lambda fam, s, order: calls.append(1) or jet(fam, s, order))
        v, w, area = bound_sample(0)
        small, tiny = v.copy(), v.copy()
        small[3, 5], tiny[3, 5] = 1e-60, 1e-280
        fam = example_family(0.5)
        for cells, tau, n_jets in ((v, 1.0, 0), (v, 1e-200, 1), (v, 1e200, 1),
                                   (small, 1.0, 0), (small, 1e-20, 1),
                                   (tiny, 1.0, 1), (v, np.array([1.0]), 1)):
            calls.clear()
            fam.on_sample(cells, w, area)(tau, 2)
            assert len(calls) == n_jets

    def test_array_of_taus_matches_floats(self):
        v, w, area = bound_sample(3)
        taus = np.logspace(-3.0, 3.0, 7)
        for fam in self.FAMILIES.values():
            integrals = fam.on_sample(v, w, area)
            on_grid = integrals(taus[:, None], 2)
            for j, column in enumerate(on_grid):
                np.testing.assert_allclose(
                    np.broadcast_to(column, (7, 1))[:, 0],
                    [integrals(tau, 2)[j] for tau in taus.tolist()],
                    rtol=1e-14, atol=0.0)


class TestCertify:
    def test_example_gamma1_passes(self):
        report = certify(example_family(1.0), 4.0, (-10.0, 10.0), 10000)
        assert report.all_passed
        # the growth ratio of this profile peaks at gamma*(3 - 2 sqrt 2)
        assert report.max_growth_ratio <= 0.5 + 1e-6
        assert report.max_growth_ratio == pytest.approx(3.0 - 2.0 * math.sqrt(2.0),
                                                        abs=1e-3)

    def test_identity_degenerate_pass(self):
        report = certify(identity_family(1.0), 3.5, (-5.0, 5.0), 501)
        assert report.all_passed
        assert report.verdict("a4_monotone").status == PASS_DEGENERATE
        assert report.verdict("a2_ellipticity").status == PASS

    def test_planted_failure_quadratic_profile(self):
        # A = 1 + s^2 grows; its ratio s A'/A tends to 2 > declared 1.5
        fam = tabulated_family(
            a=lambda s: 1.0 + np.asarray(s) ** 2,
            da=lambda s: 2.0 * np.asarray(s),
            nu=1.0,
            c0=1e4,
            gamma=1.5,
            label="quadratic",
        )
        report = certify(fam, 4.0, (-10.0, 10.0), 2001)
        v = report.verdict("a3_growth")
        assert v.status == FAIL
        assert v.witness_s is not None
        s = v.witness_s
        assert 2.0 * s * s / (1.0 + s * s) > 1.5  # witness really violates

    def test_failure_monotone_in_samples(self):
        fam = tabulated_family(
            a=lambda s: 1.0 + np.asarray(s) ** 2,
            da=lambda s: 2.0 * np.asarray(s),
            nu=1.0,
            c0=1e4,
            gamma=1.5,
        )
        for n in (201, 1001, 5001):
            assert not certify(fam, 4.0, (-10.0, 10.0), n).all_passed

    @pytest.mark.parametrize("gamma,p", [(1.0, 4.0), (1.3, 4.0), (1.9, 4.0),
                                         (1.0, 3.5), (2.5, 5.0)])
    def test_example_window_property(self, gamma, p):
        # saturating profiles with 1 <= gamma < p - 2 satisfy everything
        report = certify(example_family(gamma), p, (-25.0, 25.0), 4001)
        assert report.all_passed, [v for v in report.verdicts if not v.passed]

    def test_gamma_window_violation_detected(self):
        report = certify(example_family(3.0), 4.0, (-5.0, 5.0), 501)
        assert report.verdict("gamma_window").status == FAIL

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            certify(identity_family(), 4.0, (2.0, -2.0), 500)
        with pytest.raises(InvalidRange):
            certify(identity_family(), 4.0, (-2.0, 2.0), 50)

    @pytest.mark.parametrize("s_range", [(-math.inf, 2.0), (-2.0, math.inf),
                                         (math.nan, 2.0)])
    def test_non_finite_range_rejected(self, s_range):
        # linspace over an infinite range samples -inf and NaNs, on which
        # every comparison is vacuous: the identity profile would pass all
        with pytest.raises(InvalidRange, match="finite range"):
            certify(identity_family(), 4.0, s_range, 500)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_profile(self):
        fam = tabulated_family(
            a=lambda s: 1.0 / np.asarray(s),  # blows up at 0
            da=lambda s: np.zeros_like(np.asarray(s)),
            nu=0.5,
            c0=10.0,
            gamma=1.0,
        )
        with pytest.raises(NonFiniteSample):
            certify(fam, 4.0, (-1.0, 1.0), 201)  # odd count hits s = 0

    def test_csv_rows_schema(self):
        report = certify(example_family(1.0), 4.0, (-1.0, 1.0), 101)
        rows = report.csv_rows()
        assert rows[0] == "condition,verdict,witness_s"
        assert len(rows) == 6
        for row in rows[1:]:
            assert len(row.split(",")) == 3


class TestConstruction:
    def test_bad_constants_rejected(self):
        with pytest.raises(InvalidParams):
            identity_family(gamma=-1.0)
        with pytest.raises(InvalidParams):
            example_family(0.0)
        with pytest.raises(InvalidParams):
            tabulated_family(lambda s: s, lambda s: s, nu=1.5, c0=1.0, gamma=1.0)
        # an unbounded profile must not pass (a1) against an infinite C0
        for build in (example_family, identity_family):
            with pytest.raises(InvalidParams):
                build(math.inf)
        with pytest.raises(InvalidParams):
            tabulated_family(lambda s: 1 + s * s, lambda s: 2 * s, nu=1.0,
                             c0=math.inf, gamma=1.0)

    def test_example_c0_covers_derivative(self):
        # for gamma >= 1 the declared bound dominates the true sup of |A'|
        for gamma in (1.0, 2.0, 5.0, 12.0):
            fam = example_family(gamma)
            s = np.geomspace(1e-8, 1e4, 20001)
            s = np.concatenate([-s[::-1], [0.0], s])
            assert np.max(np.abs(fam.da(s))) <= fam.c0 + 1e-12
