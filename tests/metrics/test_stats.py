"""Unit tests for confidence intervals and similarity judgements."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.stats

from repro.metrics import (
    mean_confidence_interval,
    statistically_similar,
    summarize,
    welch_ttest,
)


class TestMeanConfidenceInterval:
    def test_single_value_zero_width(self):
        ci = mean_confidence_interval([0.4])
        assert ci.mean == 0.4
        assert ci.half_width == 0.0
        assert ci.n == 1

    def test_constant_sample_zero_width(self):
        ci = mean_confidence_interval([0.2, 0.2, 0.2])
        assert ci.half_width == pytest.approx(0.0, abs=1e-12)

    def test_95_interval_against_known_values(self):
        # For [1, 2, 3]: mean 2, sd 1, sem 1/sqrt(3), t(0.975, df=2) = 4.303.
        ci = mean_confidence_interval([1.0, 2.0, 3.0])
        assert ci.mean == pytest.approx(2.0)
        assert ci.half_width == pytest.approx(4.3026 / np.sqrt(3), rel=1e-3)
        assert ci.low == pytest.approx(ci.mean - ci.half_width)
        assert ci.high == pytest.approx(ci.mean + ci.half_width)

    def test_wider_confidence_wider_interval(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert (
            mean_confidence_interval(values, 0.99).half_width
            > mean_confidence_interval(values, 0.90).half_width
        )

    def test_more_samples_tighter_interval(self, rng):
        few = rng.normal(0, 1, 5)
        many = rng.normal(0, 1, 100)
        assert mean_confidence_interval(many).half_width < mean_confidence_interval(few).half_width

    def test_coverage_simulation(self, rng):
        # ~95% of intervals from a known distribution should cover the mean.
        hits = 0
        trials = 300
        for _ in range(trials):
            sample = rng.normal(10.0, 2.0, 15)
            ci = mean_confidence_interval(sample)
            hits += ci.low <= 10.0 <= ci.high
        assert 0.90 <= hits / trials <= 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0], confidence=1.0)

    def test_str_format(self):
        assert "±" in str(mean_confidence_interval([1.0, 2.0]))


class TestWelch:
    def test_identical_samples_high_p(self, rng):
        a = rng.normal(0, 1, 40)
        _, p = welch_ttest(a, a + rng.normal(0, 1e-9, 40))
        assert p > 0.5

    def test_separated_samples_low_p(self, rng):
        a = rng.normal(0, 1, 40)
        b = rng.normal(5, 1, 40)
        _, p = welch_ttest(a, b)
        assert p < 1e-6

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            welch_ttest([1.0], [1.0, 2.0])


class TestStatisticallySimilar:
    def test_same_distribution_similar(self, rng):
        a = rng.normal(0.3, 0.05, 20)
        b = rng.normal(0.3, 0.05, 20)
        assert statistically_similar(a, b)

    def test_different_distributions_not_similar(self, rng):
        a = rng.normal(0.1, 0.02, 20)
        b = rng.normal(0.6, 0.02, 20)
        assert not statistically_similar(a, b)

    def test_degenerate_identical_zero_variance(self):
        assert statistically_similar([0.5, 0.5], [0.5, 0.5])

    def test_degenerate_different_zero_variance(self):
        assert not statistically_similar([0.1, 0.1], [0.9, 0.9])


class TestConstantSamples:
    """Constancy is tested exactly: ``std()`` of a constant can round above 0."""

    #: -0.50, -0.49, ..., 0.49 and sample sizes 2..7: 3,600 pairs of equal
    #: constants, 268 of which a t-test on rounding noise judged different.
    VALUES = [k / 100 for k in range(-50, 50)]
    SIZES = range(2, 8)

    def test_constant_half_width_is_exactly_zero(self):
        ci = mean_confidence_interval([-0.49] * 7)
        assert ci.half_width == 0.0
        assert ci.n == 7

    def test_every_constant_has_zero_half_width(self):
        widths = {
            mean_confidence_interval([v] * n).half_width
            for v in self.VALUES for n in self.SIZES
        }
        assert widths == {0.0}

    def test_equal_constants_of_different_sizes_are_similar(self):
        assert statistically_similar([-0.49] * 2, [-0.49] * 7)

    def test_every_pair_of_equal_constants_is_similar(self):
        different = [
            (v, n, m)
            for v in self.VALUES for n in self.SIZES for m in self.SIZES
            if not statistically_similar([v] * n, [v] * m)
        ]
        assert different == []

    def test_constant_against_spread_takes_the_welch_test(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not statistically_similar([0.5] * 5, [0.1, 0.12, 0.11, 0.09, 0.1])
            assert statistically_similar([0.5] * 5, [0.3, 0.7, 0.4, 0.6, 0.5])

    def test_constant_sample_statistic_matches_scipy(self):
        spread = [0.1, 0.12, 0.11, 0.09, 0.1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the precision-loss note
            expected = scipy.stats.ttest_ind([0.5] * 5, spread, equal_var=False)
        assert welch_ttest([0.5] * 5, spread) == pytest.approx(
            (expected.statistic, expected.pvalue)
        )


class TestWelchMatchesScipy:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("sizes", [(2, 2), (3, 7), (5, 5), (20, 4)])
    def test_samples_with_spread_are_bitwise_scipy(self, seed, sizes):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.2, 0.1, sizes[0])
        b = rng.normal(0.25, 0.3, sizes[1])
        expected = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert welch_ttest(a, b) == (float(expected.statistic), float(expected.pvalue))


class TestSummarize:
    def test_fields(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s["mean"] == 2.0
        assert s["min"] == 1.0
        assert s["max"] == 3.0
        assert s["n"] == 3
        assert s["std"] == pytest.approx(1.0)

    def test_single_value_std_zero(self):
        assert summarize([5.0])["std"] == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])
