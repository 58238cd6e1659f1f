"""Power-law exponent estimation for rank-frequency data: log-log OLS, the
continuous maximum-likelihood estimator, bootstrap confidence intervals, and
rolling-window exponent profiles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .stats import BootstrapCI, bootstrap_statistic, fit_ols

__all__ = [
    "RankedFrequencies",
    "rank_frequencies",
    "fit_zipf_ols",
    "fit_zipf_mle",
    "bootstrap_alpha_ci",
    "rolling_window_alpha",
    "sample_power_law",
]


@dataclass
class RankedFrequencies:
    """Frequencies sorted descending, ranks 1..n."""

    frequencies: np.ndarray

    def __post_init__(self) -> None:
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        if np.any(self.frequencies <= 0):
            raise ValueError("frequencies must be positive")
        if np.any(np.diff(self.frequencies) > 0):
            raise ValueError("frequencies must be non-increasing")

    @property
    def ranks(self) -> np.ndarray:
        return np.arange(1, len(self.frequencies) + 1, dtype=float)

    def __len__(self) -> int:
        return len(self.frequencies)


def rank_frequencies(counts: Sequence[float]) -> RankedFrequencies:
    """Build rank-frequency data from raw counts; ties keep stable input order."""
    arr = np.asarray(counts, dtype=float)
    order = np.argsort(-arr, kind="stable")
    return RankedFrequencies(arr[order])


def fit_zipf_ols(rf: RankedFrequencies) -> Tuple[float, float, float]:
    """(alpha, se, r2) from OLS of log frequency on log rank, slope negated."""
    if len(rf) < 3:
        raise ValueError("need at least 3 ranks")
    fit = fit_ols(np.log(rf.ranks), np.log(rf.frequencies))
    return -float(fit.slopes[0]), float(fit.standard_errors[1]), fit.r2


def fit_zipf_mle(samples, x_min: float) -> float:
    """Continuous power-law MLE: alpha = 1 + n / sum(ln(x_i / x_min))."""
    x = np.asarray(samples, dtype=float)
    if x_min <= 0:
        raise ValueError("x_min must be positive")
    if len(x) < 1:
        raise ValueError("need at least one sample")
    if np.any(x < x_min):
        raise ValueError("all samples must be >= x_min")
    total = float(np.sum(np.log(x / x_min)))
    if total <= 0:
        raise ValueError("all samples at x_min: estimate diverges")
    return 1.0 + len(x) / total


def bootstrap_alpha_ci(
    samples,
    x_min: float,
    resamples: int = 1000,
    seed: int = 0,
) -> BootstrapCI:
    """Percentile 95% CI of the MLE exponent under resampling."""
    x = np.asarray(samples, dtype=float)
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 samples")
    point = fit_zipf_mle(x, x_min)
    logs = np.log(x / x_min)
    sums = bootstrap_statistic(logs, resamples, seed, lambda rows: rows.sum(axis=1))
    alphas = 1.0 + n / np.maximum(sums, 1e-300)
    lower, upper = np.percentile(alphas, [2.5, 97.5])
    return BootstrapCI(point=point, lower=float(lower), upper=float(upper))


def rolling_window_alpha(
    rf: RankedFrequencies, window: int
) -> List[Tuple[float, float]]:
    """Local OLS exponent over each contiguous rank window, stepping by 1.

    Returns (center rank, local alpha) pairs.
    """
    n = len(rf)
    if window < 3 or window > n:
        raise ValueError("window must satisfy 3 <= window <= n")
    ranks = rf.ranks
    logs_k = np.log(ranks)
    logs_f = np.log(rf.frequencies)
    out: List[Tuple[float, float]] = []
    for start in range(0, n - window + 1):
        sl = slice(start, start + window)
        xk, yf = logs_k[sl], logs_f[sl]
        slope = float(np.polyfit(xk, yf, 1)[0])
        center = float(ranks[sl].mean())
        out.append((center, -slope))
    return out


def sample_power_law(
    alpha: float, x_min: float, n: int, seed: int
) -> np.ndarray:
    """Inverse-CDF samples from the continuous power law p(x) ~ x^-alpha."""
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    return x_min * (1.0 - u) ** (-1.0 / (alpha - 1.0))
