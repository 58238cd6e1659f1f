"""Reference implementations that the statistics hot paths replaced.

Each is the earlier code, kept verbatim where it can be, so that the faster
versions in ``refscale.stats`` and ``refscale.zipflaw`` can be checked
against it for exact equality.
"""

import math
from itertools import permutations

import numpy as np
from scipy import stats as sps


def ranks(values) -> np.ndarray:
    return sps.rankdata(values, method="average")


def spearman(x, y):
    """(rho, p) with scipy ranks, exact permutation p for n <= 9."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if n < 3 or len(y) != n:
        raise ValueError("need two equal-length samples with n >= 3")
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise ValueError("correlation undefined for a constant sample")
    rx, ry = ranks(x), ranks(y)
    rho = float(np.corrcoef(rx, ry)[0, 1])
    if n <= 9:
        p = exact_perm_p(rx, ry, rho)
    else:
        if abs(rho) >= 1.0:
            p = 0.0
        else:
            t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
            p = float(2.0 * sps.t.sf(abs(t), n - 2))
    return rho, p


def exact_perm_p(rx: np.ndarray, ry: np.ndarray, rho_obs: float) -> float:
    """Share of all orderings of ry whose |rho| reaches |rho_obs|, one at a time."""
    rxc = rx - rx.mean()
    denom = math.sqrt(float(rxc @ rxc))
    count = 0
    total = 0
    ryc = ry - ry.mean()
    sy = math.sqrt(float(ryc @ ryc))
    thresh = abs(rho_obs) - 1e-12
    for perm in permutations(ryc):
        r = float(rxc @ np.asarray(perm)) / (denom * sy)
        if abs(r) >= thresh:
            count += 1
        total += 1
    return count / total


def bootstrap_medians(values, resamples: int, seed: int) -> np.ndarray:
    """Resample medians from one full (resamples, n) index matrix."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(resamples, n))
    return np.median(values[idx], axis=1)


def bootstrap_log_sums(logs, resamples: int, seed: int) -> np.ndarray:
    """Resample sums of log(x / x_min) from one full index matrix."""
    logs = np.asarray(logs, dtype=float)
    n = len(logs)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(resamples, n))
    return logs[idx].sum(axis=1)


def bootstrap_median_ci(values, resamples: int, seed: int):
    """(point, lower, upper) of the percentile 95% CI of the median."""
    medians = bootstrap_medians(values, resamples, seed)
    lower, upper = np.percentile(medians, [2.5, 97.5])
    return float(np.median(values)), float(lower), float(upper)


def bootstrap_alpha_ci(samples, x_min: float, resamples: int, seed: int):
    """(lower, upper) of the percentile 95% CI of the MLE exponent."""
    x = np.asarray(samples, dtype=float)
    sums = bootstrap_log_sums(np.log(x / x_min), resamples, seed)
    alphas = 1.0 + len(x) / np.maximum(sums, 1e-300)
    lower, upper = np.percentile(alphas, [2.5, 97.5])
    return float(lower), float(upper)
