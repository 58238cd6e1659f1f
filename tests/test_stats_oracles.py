"""The vectorised statistics kernels against the code they replaced
(``tests/oracles.py``): every comparison is exact equality, except three.
The closed-form median bootstrap, the limit of the Monte Carlo it replaced,
is held to an enumeration of every resample and to that Monte Carlo's error.
The closed-form t tail is held to the exact tail within a relative error.
The closed-form rolling Zipf exponent is held to the polyfit loop within a
relative error (to a 50-digit slope where polyfit's own rounding exceeds
it), and to exactly 0 on a window of equal counts."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import oracles
from refscale import stats, zipflaw
from refscale.pipeline import CellRefs
from refscale.stats import (
    bootstrap_median_ci,
    bootstrap_statistic,
    partial_weight_sweep,
    spearman,
)
from refscale.verification import RelevanceLabel
from refscale.zipflaw import (
    bootstrap_alpha_ci,
    rank_frequencies,
    rolling_window_alpha,
    sample_power_law,
)

# Few distinct values, so most samples carry ties, some of them long runs.
TIED = st.sampled_from([-2.5, 0.0, 0.0, 1.0, 3.0, 7.25])


def paired(min_n, max_n):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(st.lists(TIED, min_size=n, max_size=n),
                            st.lists(TIED, min_size=n, max_size=n)))


def non_constant(pair):
    return np.ptp(pair[0]) > 0 and np.ptp(pair[1]) > 0


class TestRanks:
    @given(st.lists(TIED | st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_average_ranks_equal_rankdata(self, values):
        arr = np.asarray(values, dtype=float)
        assert stats._ranks(arr).tolist() == oracles.ranks(arr).tolist()


class TestSpearman:
    @settings(max_examples=60, deadline=None)
    @given(paired(3, 8).filter(non_constant))
    def test_rho_and_exact_p_equal_loop(self, pair):
        x, y = pair
        assert spearman(x, y) == oracles.spearman(x, y)

    @settings(max_examples=3, deadline=None)
    @given(paired(9, 9).filter(non_constant))
    @example(([3, 1, 4, 1.5, 5, 9, 2, 6, 8], [2, 7, 1, 8, 2.5, 8.5, 3, 0, 4]))
    @example(([1, 1, 1, 2, 3, 4, 5, 5, 5], [6, 2, 2, 9, 4, 4, 4, 4, 1]))
    @example(([0, 0, 0, 0, 0, 0, 0, 0, 1], [5, 3, 8, 1, 9, 2, 7, 4, 6]))
    @example((list(range(9)), list(range(9))))  # rho = 1
    @example((list(range(9)), list(range(9, 0, -1))))  # rho = -1
    def test_rho_and_exact_p_equal_loop_n9(self, pair):
        x, y = pair
        assert spearman(x, y) == oracles.spearman(x, y)

    def test_exact_p_n9_peak_memory(self):
        # Every value distinct gives the widest table of partial sums; a
        # 9! x 9 float array of the orderings would take 29 MB.
        x, y = np.arange(9.0), np.arange(9.0)[::-1]
        tracemalloc.start()
        spearman(x, y)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 8 * 2**20

    @settings(max_examples=30, deadline=None)
    @given(paired(10, 40).filter(non_constant))
    def test_t_tail_rho_equal_and_p_near_exact(self, pair):
        x, y = pair
        rho, p = spearman(x, y)
        assert rho == oracles.spearman(x, y)[0]
        n = len(x)
        if abs(rho) == 1.0:
            assert p == 0.0
            return
        t = abs(rho) * math.sqrt((n - 2) / (1.0 - rho * rho))
        exact = oracles.t_tail_exact(t, n - 2)
        assert abs(p - exact) <= 1e-13 * exact


class TestTTail:
    # scipy's stdtr, which this replaced, is itself 4.4e-11 off at df = 1,
    # t = 6.8e-11.
    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(0.0, allow_nan=False), df=st.integers(1, 5000))
    @example(t=0.0, df=1)
    @example(t=5e-324, df=7)
    @example(t=6.8e-11, df=1)
    @example(t=48.7, df=4225)  # the tail's terms reach the subnormal range
    @example(t=1e155, df=1)  # t * t overflows
    @example(t=1e300, df=5000)
    @example(t=float("inf"), df=1)
    @example(t=float("inf"), df=5000)
    def test_closed_form_equals_exact_tail(self, t, df):
        got = stats._t_two_sided(df, t)
        exact = oracles.t_tail_exact(t, df)
        if exact < 1e-300:
            assert abs(got - exact) <= 1e-311
        else:
            assert abs(got - exact) <= 1e-11 * exact


CELL = st.builds(
    CellRefs,
    model=st.sampled_from(["m0", "m1", "m2", "m3"]),
    log10_p=st.floats(0.0, 3.0),
    log10_s=st.floats(1.0, 6.0),
    refs=st.lists(st.tuples(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0]),
                            st.sampled_from(list(RelevanceLabel))),
                  min_size=1, max_size=60),
)


def outcome(sweep, *args):
    """The rows, with floats by repr so that NaN equals NaN, or the error."""
    try:
        rows = sweep(*args)
    except (ValueError, np.linalg.LinAlgError) as err:
        return type(err), str(err)
    return [{k: repr(v) for k, v in row.items()} for row in rows]


class TestPartialWeightSweep:
    # Qualities at 0 or 1 (say, one cell at 0.5 and the rest at 0) send the
    # sigmoid fit's parameters off toward infinity, where both sweeps' fits
    # warn of overflow alike.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(cells=st.lists(CELL, min_size=4, max_size=12),
           weights=st.lists(st.floats(0.0, 1.0), max_size=3).map(
               lambda w: [0.0, *w, 1.0]),
           baseline=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    def test_grouped_sweep_equals_loop(self, cells, weights, baseline):
        assert outcome(partial_weight_sweep, cells, weights, baseline) == \
            outcome(oracles.partial_weight_sweep, cells, weights, baseline)


class TestExactMedianCI:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(TIED | st.integers(0, 9).map(float), min_size=2, max_size=6))
    @example([0.0, 0.0, 7.25, 7.25])
    @example([-2.5, 3.0, 3.0, 3.0, 3.0, 7.25])
    def test_equals_enumeration(self, values):
        # Both parities, mostly tied; the quantiles compared in integers.
        ci = bootstrap_median_ci(values)
        assert (ci.lower, ci.upper) == oracles.enumerated_median_ci(values)
        support, mass = stats._resample_median_law(np.asarray(values))
        expected, counts = oracles.enumerated_median_law(values)
        assert support.tolist() == expected.tolist()
        np.testing.assert_allclose(mass, counts / len(values) ** len(values),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n, distinct, resamples", [
        (50, 20, 200_000), (51, 20, 200_000),
        # A naive C(n, n/2) F^(n/2) overflows float64 here.
        (5000, 200, 10_000), (5001, 200, 10_000),
    ])
    def test_within_monte_carlo_band(self, n, distinct, resamples):
        values = np.random.default_rng(n).integers(0, distinct, n).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ci = bootstrap_median_ci(values)
        # oracles.bootstrap_medians, in 16 MB blocks (see the chunk tests).
        medians = bootstrap_statistic(values, resamples, 1,
                                      lambda rows: np.median(rows, axis=1))
        for q, bound in ((0.025, ci.lower), (0.975, ci.upper)):
            band = 4 * np.sqrt(q * (1 - q) / resamples)  # 4 sigma of a share
            low, high = np.percentile(medians, [100 * (q - band), 100 * (q + band)])
            assert low <= bound <= high, (q, bound, low, high)

    @pytest.mark.parametrize("n", [2, 3, 6, 7, 50, 51, 240, 241, 5000, 5001])
    def test_masses_sum_to_one(self, n):
        values = np.random.default_rng(n).integers(0, 200, n).astype(float)
        _, mass = stats._resample_median_law(values)
        assert mass.min() >= 0
        assert abs(mass.sum() - 1.0) <= 1e-12

    def test_continuous_sample_keeps_pair_table_small(self):
        # Every value distinct: only values near the middle enter the table,
        # about 80k of the 2M pairs.
        values = np.random.default_rng(0).normal(size=2000)
        support, mass = stats._resample_median_law(values)
        assert len(support) < 500_000
        assert abs(mass.sum() - 1.0) <= 1e-12


class TestBootstrap:
    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60),
           resamples=st.integers(1, 200), cells=st.integers(1, 500),
           seed=st.integers(0, 2**32))
    def test_chunked_medians_equal_full_matrix(self, values, resamples, cells, seed):
        arr = np.asarray(values)
        with mock.patch.object(stats, "_BOOTSTRAP_CHUNK_CELLS", cells):
            got = bootstrap_statistic(arr, resamples, seed,
                                      lambda rows: np.median(rows, axis=1))
        assert got.tolist() == oracles.bootstrap_medians(arr, resamples, seed).tolist()

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(1.1, 3.0), n=st.integers(2, 300),
           resamples=st.integers(1, 200), cells=st.integers(1, 2000),
           seed=st.integers(0, 2**32))
    def test_chunked_alpha_ci_equal_full_matrix(self, alpha, n, resamples, cells, seed):
        samples = sample_power_law(alpha, 1.0, n, seed=seed)
        with mock.patch.object(stats, "_BOOTSTRAP_CHUNK_CELLS", cells):
            ci = bootstrap_alpha_ci(samples, 1.0, resamples=resamples, seed=seed)
        assert (ci.lower, ci.upper) == oracles.bootstrap_alpha_ci(
            samples, 1.0, resamples, seed)

    def test_default_budget_with_ragged_last_chunk(self):
        # 1000 resamples of 3000: 23 blocks of 43 rows, then one of 11.
        samples = sample_power_law(1.23, 1.0, 3000, seed=4)
        ci = bootstrap_alpha_ci(samples, 1.0, resamples=1000, seed=5)
        assert (ci.lower, ci.upper) == oracles.bootstrap_alpha_ci(samples, 1.0, 1000, 5)

    def test_peak_memory_does_not_grow_with_resamples(self):
        samples = sample_power_law(1.23, 1.0, 20_000, seed=1)
        peaks = []
        for resamples in (100, 400):
            tracemalloc.start()
            bootstrap_alpha_ci(samples, 1.0, resamples=resamples, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        budget = 2 * 8 * stats._BOOTSTRAP_CHUNK_CELLS
        assert max(peaks) < budget + 8 * 20_000 * 4


# Runs of one count from 1 to 10**7: ties, long flat tails, and counts that
# span several decades.
COUNT_RUN = st.tuples(
    st.integers(0, 6).flatmap(lambda e: st.integers(10**e, 10 ** (e + 1))),
    st.integers(1, 40))


@st.composite
def counts_and_window(draw):
    runs = draw(st.lists(COUNT_RUN, min_size=1, max_size=10))
    counts = [count for count, length in runs for _ in range(length)][:200]
    counts += [1] * (3 - len(counts))
    return counts, draw(st.integers(3, len(counts)))


class TestRollingAlpha:
    @settings(max_examples=80, deadline=None)
    @given(case=counts_and_window(), cells=st.integers(1, 500))
    # One window where polyfit's rounding exceeds 1e-10 relative.
    @example(case=([9_999_999] * 28 + [9_999_998], 29), cells=500)
    # A long flat tail split over several blocks.
    @example(case=([50, 20, 7] + [3] * 120, 10), cells=64)
    def test_closed_form_equals_polyfit_loop(self, case, cells):
        counts, window = case
        rf = rank_frequencies(counts)
        with mock.patch.object(zipflaw, "_ROLLING_CHUNK_CELLS", cells):
            got = list(rolling_window_alpha(rf, window))
        want = oracles.rolling_window_alpha(rf, window)
        assert [c for c, _ in got] == [c for c, _ in want]
        log_k, log_f = np.log(rf.ranks), np.log(rf.frequencies)
        for start, ((_, alpha), (_, alpha_loop)) in enumerate(zip(got, want)):
            sl = slice(start, start + window)
            in_window = rf.frequencies[sl]
            if (in_window == in_window[0]).all():
                assert alpha == 0.0 and f"{alpha:.8g}" == "0"
            elif not math.isclose(alpha, alpha_loop, rel_tol=1e-10):
                exact = oracles.ols_slope_exact(log_k[sl], log_f[sl])
                assert math.isclose(alpha, -exact, rel_tol=1e-12)

    def test_profile_bits_do_not_depend_on_block_size(self):
        # zipf_rolling.csv's bytes rest on it: one row per block gives the
        # default blocks' floats.
        rf = rank_frequencies(np.round(sample_power_law(1.3, 1.0, 3000, seed=2)))
        default = list(rolling_window_alpha(rf, 50))
        with mock.patch.object(zipflaw, "_ROLLING_CHUNK_CELLS", 1):
            assert list(rolling_window_alpha(rf, 50)) == default
