import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nehari2d import certify, eval_A, eval_dA, example_family, identity_family
from nehari2d.coeffs import FAIL, PASS, PASS_DEGENERATE, tabulated_family
from nehari2d.errors import InvalidRange, NonFiniteSample

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
    def test_identity_constant(self):
        fam = identity_family()
        assert eval_A(fam, 7.3) == 1.0
        assert eval_A(fam, -123.0) == 1.0

    def test_example_at_one(self):
        fam = example_family(2.0)
        assert eval_A(fam, 1.0) == pytest.approx(1.5, rel=1e-14)

    def test_example_bounds_large_s(self):
        fam = example_family(2.0)
        for s in (-1e8, -10.0, 0.0, 10.0, 1e8):
            assert 1.0 <= eval_A(fam, s) <= 2.0

    def test_vectorized(self):
        fam = example_family(1.0)
        out = eval_A(fam, np.array([0.0, 1.0]))
        assert out.shape == (2,)
        assert out[0] == 1.0 and out[1] == pytest.approx(1.5)


class TestEvalDA:
    def test_identity_zero(self):
        fam = identity_family()
        assert eval_dA(fam, 3.0) == 0.0

    def test_example_gamma2_values(self):
        fam = example_family(2.0)
        assert eval_dA(fam, 1.0) == pytest.approx(0.5, rel=1e-14)
        assert eval_dA(fam, -1.0) == pytest.approx(-0.5, rel=1e-14)

    def test_oddness_random(self):
        rng = np.random.default_rng(0)
        for gamma in (1.0, 1.5, 2.0, 3.0):
            fam = example_family(gamma)
            s = rng.uniform(0.01, 50.0, size=50)
            assert np.allclose(eval_dA(fam, -s), -np.asarray(eval_dA(fam, s)),
                               rtol=1e-14, atol=0.0)

    def test_zero_at_origin(self):
        for gamma in (1.0, 1.5, 2.0):
            assert eval_dA(example_family(gamma), 0.0) == 0.0


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
        with pytest.raises(ValueError):
            identity_family(gamma=-1.0)
        with pytest.raises(ValueError):
            example_family(0.0)
        with pytest.raises(ValueError):
            tabulated_family(lambda s: s, lambda s: s, nu=1.5, c0=1.0, gamma=1.0)
        # an unbounded profile must not pass (a1) against an infinite C0
        for build in (example_family, identity_family):
            with pytest.raises(ValueError):
                build(math.inf)
        with pytest.raises(ValueError):
            tabulated_family(lambda s: 1 + s * s, lambda s: 2 * s, nu=1.0,
                             c0=math.inf, gamma=1.0)

    def test_example_c0_covers_derivative(self):
        # for gamma >= 1 the declared bound dominates the true sup of |A'|
        for gamma in (1.0, 2.0, 5.0, 12.0):
            fam = example_family(gamma)
            s = np.geomspace(1e-8, 1e4, 20001)
            s = np.concatenate([-s[::-1], [0.0], s])
            assert np.max(np.abs(fam.da(s))) <= fam.c0 + 1e-12
