import math

import numpy as np
import pytest

from refscale.zipflaw import (
    RankedFrequencies,
    bootstrap_alpha_ci,
    fit_zipf_mle,
    fit_zipf_ols,
    rank_frequencies,
    rolling_window_alpha,
    sample_power_law,
)


class TestRankedFrequencies:
    def test_sorting_and_stable_ties(self):
        rf = rank_frequencies([3, 9, 3, 1])
        assert list(rf.frequencies) == [9, 3, 3, 1]
        assert list(rf.ranks) == [1, 2, 3, 4]

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            RankedFrequencies(np.array([3.0, 0.0]))

    def test_increasing_rejected(self):
        with pytest.raises(ValueError):
            RankedFrequencies(np.array([1.0, 2.0]))


class TestOls:
    def test_exact_power_law(self):
        k = np.arange(1, 200)
        rf = RankedFrequencies(50.0 * k ** -1.23)
        alpha, se, r2 = fit_zipf_ols(rf)
        assert alpha == pytest.approx(1.23, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-8)

    def test_too_few_ranks(self):
        with pytest.raises(ValueError):
            fit_zipf_ols(RankedFrequencies(np.array([2.0, 1.0])))


class TestMle:
    def test_closed_form_e_case(self):
        # All samples at e * x_min: sum of logs is n, so alpha = 2 exactly.
        samples = np.full(50, math.e * 3.0)
        assert fit_zipf_mle(samples, 3.0) == 2.0

    def test_closed_form_single_sample(self):
        assert fit_zipf_mle([2.0], 1.0) == pytest.approx(1.0 + 1.0 / math.log(2.0))

    def test_samples_below_xmin_rejected(self):
        with pytest.raises(ValueError):
            fit_zipf_mle([0.5, 2.0], 1.0)

    def test_degenerate_at_xmin(self):
        with pytest.raises(ValueError):
            fit_zipf_mle([1.0, 1.0], 1.0)


class TestSampling:
    def test_bounds_and_determinism(self):
        a = sample_power_law(1.23, 2.0, 1000, seed=5)
        b = sample_power_law(1.23, 2.0, 1000, seed=5)
        assert np.array_equal(a, b)
        assert np.all(a >= 2.0)

    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            sample_power_law(1.0, 1.0, 10, seed=0)

    def test_mle_recovers_sampling_exponent(self):
        samples = sample_power_law(1.6, 1.0, 20000, seed=9)
        assert fit_zipf_mle(samples, 1.0) == pytest.approx(1.6, abs=0.03)


class TestBootstrap:
    def test_deterministic_and_contains_point(self):
        samples = sample_power_law(1.23, 1.0, 400, seed=3)
        a = bootstrap_alpha_ci(samples, 1.0, resamples=300, seed=1)
        b = bootstrap_alpha_ci(samples, 1.0, resamples=300, seed=1)
        assert (a.lower, a.upper) == (b.lower, b.upper)
        assert a.lower <= a.point <= a.upper


class TestRolling:
    def test_constant_exponent_profile(self):
        k = np.arange(1, 60)
        rf = RankedFrequencies(10.0 * k ** -1.5)
        profile = list(rolling_window_alpha(rf, window=10))
        assert len(profile) == 50
        for _, alpha in profile:
            assert alpha == pytest.approx(1.5, abs=1e-8)

    def test_window_bounds(self):
        rf = RankedFrequencies(np.array([3.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            rolling_window_alpha(rf, window=2)
        with pytest.raises(ValueError):
            rolling_window_alpha(rf, window=4)
