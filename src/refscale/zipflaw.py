"""Power-law exponent estimation for rank-frequency data: the counts-file
reader, log-log OLS, the continuous maximum-likelihood estimator, bootstrap
confidence intervals, and rolling-window exponent profiles."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .records import IngestError
from .stats import BootstrapCI, bootstrap_statistic, fit_ols

__all__ = [
    "read_counts",
    "zipf_artifacts",
    "RankedFrequencies",
    "rank_frequencies",
    "fit_zipf_ols",
    "fit_zipf_mle",
    "bootstrap_alpha_ci",
    "rolling_window_alpha",
    "sample_power_law",
]


def read_counts(path) -> List[float]:
    """The counts of a (concept, count) CSV, in row order. Blank and ``#``
    rows are skipped, and only the first row may be a header; any other row
    without a finite positive count raises IngestError naming the line."""
    counts: List[float] = []
    n_rows = 0
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            n_rows += 1
            if len(row) < 2:
                raise IngestError(f"{path}: line {reader.line_num} has no "
                                  f"count column: {','.join(row)!r}")
            try:
                count = float(row[1])
            except ValueError:
                if n_rows == 1:
                    continue  # a header, allowed only as the first row
                count = math.nan
            if not 0 <= count < math.inf:
                raise IngestError(f"{path}: line {reader.line_num} has no "
                                  f"finite non-negative count: {row[1]!r}")
            if count == 0:
                raise IngestError(f"{path}: line {reader.line_num} has "
                                  f"count {row[1]}; counts must be positive")
            counts.append(count)
    if not counts:
        raise IngestError(f"{path}: no (concept, count) rows found")
    return counts


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


# Rank windows are fitted a block of rows at a time. A block's temporaries are
# a few (rows, window) arrays of this many cells (128 kB each), whatever
# n x window is. Each row's arithmetic is the same in any block.
_ROLLING_CHUNK_CELLS = 1 << 14


def rolling_window_alpha(
    rf: RankedFrequencies, window: int
) -> Iterator[Tuple[float, float]]:
    """Local OLS exponent over each contiguous rank window, stepping by 1.

    Returns an iterator of (center rank, local alpha) pairs, made as they
    are read. Each alpha is the negated closed-form OLS slope of log
    frequency on log rank over its window. Log frequency is taken relative
    to the window's first value, so a window of equal frequencies gives
    exactly 0.
    """
    n = len(rf)
    if window < 3 or window > n:
        raise ValueError("window must satisfy 3 <= window <= n")
    log_k = sliding_window_view(np.log(rf.ranks), window)
    log_f = sliding_window_view(np.log(rf.frequencies), window)
    windows = n - window + 1
    slopes = np.empty(windows)
    step = max(1, _ROLLING_CHUNK_CELLS // window)
    for lo in range(0, windows, step):
        hi = min(lo + step, windows)
        xc = log_k[lo:hi] - log_k[lo:hi].mean(axis=1, keepdims=True)
        d = log_f[lo:hi] - log_f[lo:hi, :1]
        d -= d.mean(axis=1, keepdims=True)
        slopes[lo:hi] = (xc * d).sum(axis=1) / (xc * xc).sum(axis=1)
    # The mean of ranks start+1 .. start+window, exact in floating point.
    centers = np.arange(windows) + (window + 1) / 2
    # 0.0 - (-0.0) is +0.0, so no profile row prints as -0.
    return zip(centers, 0.0 - slopes)


REPORT_RESAMPLES = 1000


def zipf_artifacts(counts: Sequence[float], window: int, seed: int) -> Dict[str, object]:
    """The zipf stage's artifacts by file name: the exponents' report and,
    with a ``window``, the rolling profile, its rows formatted as written."""
    rf = rank_frequencies(counts)
    alpha_ols, se, r2 = fit_zipf_ols(rf)
    x_min = float(min(rf.frequencies))
    alpha_mle = fit_zipf_mle(rf.frequencies, x_min)
    ci = bootstrap_alpha_ci(rf.frequencies, x_min, resamples=REPORT_RESAMPLES, seed=seed)
    profile = rolling_window_alpha(rf, window) if window else None
    return {
        "zipf_report.json": {
            "alpha_ols": alpha_ols, "alpha_ols_se": se, "ols_r2": r2,
            "alpha_mle": alpha_mle, "x_min": x_min,
            "bootstrap_ci": [ci.lower, ci.upper], "resamples": REPORT_RESAMPLES,
            "n": len(rf),
        },
        # Rows are formatted as the writer reads them, never held in a list.
        "zipf_rolling.csv": None if profile is None else (
            ["center_rank", "alpha_local"], ((f"{c:.8g}", f"{a:.8g}") for c, a in profile)),
    }


def sample_power_law(
    alpha: float, x_min: float, n: int, seed: int
) -> np.ndarray:
    """Inverse-CDF samples from the continuous power law p(x) ~ x^-alpha."""
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    return x_min * (1.0 - u) ** (-1.0 / (alpha - 1.0))
