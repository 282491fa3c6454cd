"""Tail bounds and exact binomial limits.

The Clopper-Pearson oracle here inverts the binomial CDF by bisection on
scipy.stats.binom, independently of the beta-quantile identity used in
the library.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

from smallball.bounds import Regime, empirical_certificate
from smallball.concentration import (
    cp_lower,
    cp_upper,
    drift_borell_model,
    drift_bounded_model,
    gauss_l2_tail,
    hoeffding_tail,
)


def _cp_upper_bisect(k, n, confidence):
    # smallest p with P(Bin(n, p) <= k) <= 1 - confidence
    if k >= n:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if binom.cdf(k, n, mid) > 1.0 - confidence:
            lo = mid
        else:
            hi = mid
    return hi


def _cp_lower_bisect(k, n, confidence):
    # largest p with P(Bin(n, p) >= k) <= 1 - confidence
    if k <= 0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if binom.sf(k - 1, n, mid) < 1.0 - confidence:
            lo = mid
        else:
            hi = mid
    return lo


class TestHoeffding:
    def test_frozen_value(self):
        # 2 exp(-2 * 4 / 4) = 2 e^{-2}
        assert hoeffding_tail(2.0, [1.0] * 4) == pytest.approx(
            0.2706705664732254, rel=1e-13
        )

    def test_clamps_at_one(self):
        assert hoeffding_tail(0.0, [1.0, 1.0]) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            hoeffding_tail(-1.0, [1.0])
        with pytest.raises(ValueError):
            hoeffding_tail(1.0, [])
        with pytest.raises(ValueError):
            hoeffding_tail(1.0, [1.0, 0.0])

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 10.0), st.floats(0.01, 10.0), st.integers(1, 50))
    def test_monotone_in_threshold(self, t, r, n):
        assert hoeffding_tail(t + 0.5, [r] * n) <= hoeffding_tail(t, [r] * n)


class TestGaussL2:
    def test_mean_vs_second_moment_centering(self):
        # second-moment centering costs a factor 2 in the exponent against
        # the mean-centered bound 2 exp(-h^2 / (2 norm2))
        mean = 2.0 * math.exp(-2.0 * 2.0 / (2.0 * 1.0))
        second = gauss_l2_tail(1.0, 2.0)
        assert second == pytest.approx(2.0 * math.exp(-1.0), rel=1e-13)
        assert second == pytest.approx(math.sqrt(2.0 * mean), rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            gauss_l2_tail(0.0, 1.0)
        with pytest.raises(ValueError):
            gauss_l2_tail(1.0, -1.0)


class TestTailModels:
    def test_drift_bounded_is_an_indicator(self):
        m = drift_bounded_model(1.0)
        assert m.evaluate(1.0) == 1.0  # threshold not strictly above the bound
        assert m.evaluate(1.0 + 1e-12) == 0.0

    def test_drift_borell_above_and_below_mean(self):
        m = drift_borell_model(mean=1.0, var=0.25)
        assert m.evaluate(0.5) == 1.0
        assert m.evaluate(1.0) == 1.0
        assert m.evaluate(2.0) == pytest.approx(math.exp(-1.0 / 0.5), rel=1e-13)

    def test_empirical_model_upper_limit(self):
        # the empirical tail is the Clopper-Pearson upper limit of the
        # exceedance count; in the sup regime with N = 1, delta = 1 the
        # drift threshold is I / 4
        samples = np.arange(100, dtype=float)
        cert = empirical_certificate(0.1, 1.0, Regime.sup(), 2.0, 1, 1.0,
                                     [360.0, 360.0], samples, confidence=0.95)
        # 10 of 100 samples are >= 90
        assert cert.provenance["threshold_drift"] == 90.0
        assert cert.term_drift == cp_upper(10, 100, 0.95)
        cert = empirical_certificate(0.1, 1.0, Regime.sup(), 2.0, 1, 1.0,
                                     [4000.0, 4000.0], samples, confidence=0.95)
        assert cert.provenance["threshold_drift"] == 1000.0
        assert cert.term_drift == cp_upper(0, 100, 0.95)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            drift_bounded_model(1.0).evaluate(-1.0)


class TestClopperPearson:
    @pytest.mark.parametrize(
        "k,n,conf",
        [(0, 50, 0.99), (3, 50, 0.99), (25, 50, 0.95), (49, 50, 0.99), (7, 1000, 0.995)],
    )
    def test_upper_matches_bisection(self, k, n, conf):
        assert cp_upper(k, n, conf) == pytest.approx(
            _cp_upper_bisect(k, n, conf), abs=1e-9
        )

    @pytest.mark.parametrize(
        "k,n,conf", [(1, 50, 0.99), (25, 50, 0.95), (50, 50, 0.99), (993, 1000, 0.995)]
    )
    def test_lower_matches_bisection(self, k, n, conf):
        assert cp_lower(k, n, conf) == pytest.approx(
            _cp_lower_bisect(k, n, conf), abs=1e-9
        )

    def test_edge_cases(self):
        assert cp_upper(50, 50, 0.99) == 1.0
        assert cp_lower(0, 50, 0.99) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            cp_upper(-1, 10, 0.99)
        with pytest.raises(ValueError):
            cp_upper(11, 10, 0.99)
        with pytest.raises(ValueError):
            cp_upper(5, 10, 0.4)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 60), st.integers(1, 60), st.floats(0.51, 0.999))
    def test_interval_brackets_p_hat(self, k, n, conf):
        k = min(k, n)
        lo = cp_lower(k, n, conf)
        hi = cp_upper(k, n, conf)
        assert lo <= k / n <= hi

    def test_upper_increases_with_confidence(self):
        assert cp_upper(3, 100, 0.999) > cp_upper(3, 100, 0.99)
        assert cp_lower(3, 100, 0.999) < cp_lower(3, 100, 0.99)


class TestEmpiricalTail:
    def test_counts_and_limits(self):
        # median I = 3.6 puts the drift threshold at I / 4 = 0.9 and the
        # concentration threshold at h = I / 4 = 0.9
        x = np.array([2.6, 3.6, 3.6, 3.6, 4.6])
        samples = np.array([0.1, 0.5, 0.9, 1.5, 2.0])
        cert = empirical_certificate(0.1, 1.0, Regime.sup(), 2.0, 1, 1.0,
                                     x, samples, confidence=0.9)
        assert cert.provenance["threshold_drift"] == 0.9
        assert cert.provenance["exceed_drift"] == 3
        assert cert.provenance["exceed_drift"] / samples.size == 0.6
        assert cert.term_drift == cp_upper(3, 5, 0.9)
        assert cert.provenance["exceed_concentration"] == 2
        assert cert.term_concentration == cp_upper(2, 5, 0.9)
