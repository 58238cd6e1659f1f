import math

import numpy as np
import pytest

from refscale.pipeline import CellRefs
from refscale.stats import (
    ConfusionMatrix2x2,
    bootstrap_median_ci,
    cohen_kappa,
    confusion_stats,
    fit_ols,
    fit_sigmoid,
    incremental_f,
    logit,
    partial_weight_sweep,
    sigmoid,
    spearman,
    weighted_loglog_fit,
)
from refscale.verification import RelevanceLabel


class TestSigmoidFit:
    def _grid(self, alpha, beta, gamma, n_x=8, n_s=6):
        x = np.repeat(np.linspace(0, 2.6, n_x), n_s)
        s = np.tile(np.linspace(1, 7, n_s), n_x)
        q = sigmoid(alpha * x + beta * s + gamma)
        return np.column_stack([x, s, q])

    def test_exact_recovery(self):
        fit = fit_sigmoid(self._grid(1.48, 0.46, -5.19))
        assert [fit.alpha, fit.beta, fit.gamma] == pytest.approx([1.48, 0.46, -5.19], abs=1e-8)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.converged

    def test_standard_errors_positive_under_noise(self):
        data = self._grid(1.0, 0.5, -4.0)
        rng = np.random.default_rng(0)
        data[:, 2] = np.clip(data[:, 2] + rng.normal(0, 0.05, len(data)), 0, 1)
        fit = fit_sigmoid(data)
        assert np.all(np.array([fit.se_alpha, fit.se_beta, fit.se_gamma]) > 0)

    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            fit_sigmoid([(0, 0, 0.1), (1, 1, 0.2), (2, 2, 0.3)])

    def test_quality_range_enforced(self):
        bad = self._grid(1, 1, -3)
        bad[0, 2] = 1.5
        with pytest.raises(ValueError):
            fit_sigmoid(bad)

    def test_constant_predictor_rejected(self):
        data = self._grid(1, 1, -3)
        data[:, 1] = 2.0
        with pytest.raises(ValueError):
            fit_sigmoid(data)


class TestOls:
    def test_exact_line(self):
        x = np.arange(10.0)
        fit = fit_ols(x, 2.0 * x + 1.0)
        assert fit.coefficients[0] == pytest.approx(1.0)
        assert fit.slopes[0] == pytest.approx(2.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_two_predictors(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 2))
        y = 3.0 + 0.5 * X[:, 0] - 1.5 * X[:, 1] + rng.normal(0, 0.01, 50)
        fit = fit_ols(X, y)
        assert fit.coefficients == pytest.approx([3.0, 0.5, -1.5], abs=0.02)

    def test_singular_design(self):
        X = np.column_stack([np.arange(10.0), 2 * np.arange(10.0)])
        with pytest.raises(ValueError):
            fit_ols(X, np.arange(10.0))

    def test_incremental_f(self):
        rng = np.random.default_rng(2)
        x1 = rng.normal(size=40)
        x2 = rng.normal(size=40)
        y = x1 + 2 * x2 + rng.normal(0, 0.1, 40)
        full = fit_ols(np.column_stack([x1, x2]), y)
        reduced = fit_ols(x1, y)
        f_stat, (d1, d2) = incremental_f(full, reduced)
        assert d1 == 1 and d2 == 37
        assert f_stat > 100  # x2 carries real signal

    def test_incremental_f_rejects_non_nested(self):
        x = np.arange(20.0)
        fit = fit_ols(x, 2 * x + np.sin(x))
        with pytest.raises(ValueError):
            incremental_f(fit, fit)


class TestSpearman:
    def test_perfect_monotone(self):
        rho, p = spearman([1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
                          [2, 4, 9, 16, 25, 36, 49, 64, 81, 100])
        assert rho == pytest.approx(1.0)
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_exact_permutation_small_n(self):
        # n=4, perfectly concordant: 2 of 24 permutations reach |rho|=1.
        rho, p = spearman([1, 2, 3, 4], [10, 20, 30, 40])
        assert rho == pytest.approx(1.0)
        assert p == pytest.approx(2 / 24)

    def test_ties_use_average_ranks(self):
        rho, _ = spearman([1, 2, 2, 3], [1, 2, 2, 3])
        assert rho == pytest.approx(1.0)

    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError):
            spearman([1, 1, 1], [1, 2, 3])

    @pytest.mark.parametrize("x, y", [
        ([1, float("nan"), 3], [1, 2, 3]),
        ([1, 2, 3, 4], [4, 3, 2, float("nan")]),
        (list(range(12)), [float("nan")] * 12),
    ])
    def test_nan_rejected(self, x, y):
        with pytest.raises(ValueError, match="NaN"):
            spearman(x, y)

    def test_t_approximation_large_n(self):
        # Hand value of the t-based two-sided p at rho=0.6, n=12.
        x = list(range(12))
        y = [0, 2, 1, 4, 3, 5, 7, 6, 9, 8, 11, 10]
        rho, p = spearman(x, y)
        t = rho * math.sqrt((12 - 2) / (1 - rho ** 2))
        from scipy import stats as sps
        assert p == pytest.approx(2 * sps.t.sf(abs(t), 10), abs=1e-12)


class TestAgreement:
    def test_confusion_stats(self):
        acc, prec, rec, spec = confusion_stats(ConfusionMatrix2x2(8, 2, 1, 9))
        assert acc == pytest.approx(17 / 20)
        assert prec == pytest.approx(8 / 10)
        assert rec == pytest.approx(8 / 9)
        assert spec == pytest.approx(9 / 11)

    def test_kappa_perfect(self):
        assert cohen_kappa(ConfusionMatrix2x2(10, 0, 0, 10)) == pytest.approx(1.0)

    def test_kappa_chance(self):
        # Independent marginals: observed equals expected agreement.
        assert cohen_kappa(ConfusionMatrix2x2(25, 25, 25, 25)) == pytest.approx(0.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix2x2(-1, 0, 0, 0)


class TestBootstrap:
    @pytest.mark.parametrize("n", [10, 11, 240])
    def test_permutation_invariant(self, n):
        # The CI is a function of the sample's values, not of their order.
        values = np.random.default_rng(n).integers(0, 40, n).astype(float)
        a = bootstrap_median_ci(values)
        for seed in range(3):
            b = bootstrap_median_ci(np.random.default_rng(seed).permutation(values))
            assert (b.point, b.lower, b.upper) == (a.point, a.lower, a.upper)

    @pytest.mark.parametrize("values", [
        [1, float("nan"), 3],
        [float("nan")] * 4,
        list(range(240)) + [float("nan")],
    ])
    def test_nan_rejected(self, values):
        with pytest.raises(ValueError, match="NaN"):
            bootstrap_median_ci(values)

    def test_point_is_sample_median(self):
        ci = bootstrap_median_ci([1, 2, 3, 4, 100])
        assert ci.point == 3
        assert ci.lower <= ci.point <= ci.upper


class TestWeightedLogLog:
    def test_equal_errors_reduce_to_ols(self):
        x = np.linspace(0, 3, 6)
        y = -0.35 * x + 2.0
        pts = list(zip(x, y))
        wfit = weighted_loglog_fit(pts, np.full(6, 0.1))
        ofit = fit_ols(x, y)
        assert wfit.slopes[0] == pytest.approx(ofit.slopes[0], abs=1e-10)

    def test_precise_points_dominate(self):
        # Three points on the line, one far-off point with a huge error bar.
        pts = [(0, 2.0), (1, 1.65), (2, 1.30), (3, 10.0)]
        fit = weighted_loglog_fit(pts, [0.01, 0.01, 0.01, 50.0])
        assert fit.slopes[0] == pytest.approx(-0.35, abs=0.01)

    def test_nonpositive_errors_rejected(self):
        with pytest.raises(ValueError):
            weighted_loglog_fit([(0, 1), (1, 2), (2, 3)], [0.1, 0.0, 0.1])


class TestPartialWeightSweep:
    def _cells(self):
        cells = []
        for i, (p, s) in enumerate([(0.0, 2.0), (1.0, 3.0), (2.0, 4.0),
                                    (2.6, 5.0), (1.5, 2.5), (0.5, 4.5)]):
            refs = [(0.9, RelevanceLabel.YES), (0.7, RelevanceLabel.PARTIAL),
                    (0.2 + 0.1 * i, RelevanceLabel.NO)]
            cells.append(CellRefs(model=f"m{i}", log10_p=p, log10_s=s, refs=refs))
        return cells

    def test_baseline_rank_rho_is_one(self):
        rows = partial_weight_sweep(self._cells(), weights=(0.5,), baseline=0.5)
        assert rows[0]["rank_rho_vs_baseline"] == pytest.approx(1.0)

    def test_rows_cover_weights(self):
        rows = partial_weight_sweep(self._cells())
        assert [r["partial_weight"] for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        for row in rows:
            assert set(row) == {"partial_weight", "sigmoid_r2", "loglinear_r2",
                                "rank_rho_vs_baseline"}
            assert row["sigmoid_r2"] <= 1.0 and row["loglinear_r2"] <= 1.0


def test_logit_inverts_sigmoid():
    for q in (0.01, 0.3, 0.5, 0.9, 0.99):
        assert float(sigmoid(logit(q))) == pytest.approx(q, abs=1e-12)
