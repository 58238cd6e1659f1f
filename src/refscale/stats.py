"""Fitting and agreement statistics: the logistic scaling-law fit by damped
nonlinear least squares, log-linear OLS, incremental F, rank correlation,
bootstrap confidence intervals, kappa statistics, the inverse-variance
weighted log-log fit, and the relevance-weight robustness sweep.

Every randomized procedure is a pure function of (seed, input).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .pipeline import CellRefs
from .verification import RelevanceLabel, relevance_value

__all__ = [
    "SigmoidFit",
    "OlsFit",
    "BootstrapCI",
    "ConfusionMatrix2x2",
    "sigmoid",
    "logit",
    "fit_sigmoid",
    "fit_ols",
    "incremental_f",
    "spearman",
    "cohen_kappa",
    "confusion_stats",
    "weighted_kappa_3level",
    "bootstrap_median_ci",
    "bootstrap_statistic",
    "weighted_loglog_fit",
    "CellRefs",
    "partial_weight_sweep",
]


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


def logit(q: float) -> float:
    return math.log(q / (1.0 - q))


@dataclass
class SigmoidFit:
    """quality = sigma(alpha*log10(P) + beta*log10(S) + gamma)."""

    alpha: float
    beta: float
    gamma: float
    se_alpha: float
    se_beta: float
    se_gamma: float
    r2: float
    n: int
    converged: bool
    iterations: int
    rss: float

    @property
    def params(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma])

    @property
    def ses(self) -> np.ndarray:
        return np.array([self.se_alpha, self.se_beta, self.se_gamma])

    def predict(self, log10_p, log10_s):
        return sigmoid(self.alpha * np.asarray(log10_p)
                       + self.beta * np.asarray(log10_s) + self.gamma)


@dataclass
class OlsFit:
    coefficients: np.ndarray  # intercept first
    standard_errors: np.ndarray
    r2: float
    rss: float
    n: int

    @property
    def intercept(self) -> float:
        return float(self.coefficients[0])

    @property
    def slopes(self) -> np.ndarray:
        return self.coefficients[1:]


@dataclass
class BootstrapCI:
    point: float
    lower: float
    upper: float


@dataclass
class ConfusionMatrix2x2:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


# -- sigmoid fit --------------------------------------------------------------

_LM_LAMBDA0 = 1e-3
_LM_MAX_ITER = 200
_LM_RTOL = 1e-12


def fit_sigmoid(cells: Sequence[Tuple[float, float, float]]) -> SigmoidFit:
    """Levenberg-Marquardt fit of the three-parameter logistic surface.

    ``cells`` holds (log10_P, log10_S, quality) triples. The Jacobian is
    analytic; damping is a multiplicative lambda schedule (x10 on a rejected
    step, /10 on an accepted one). Standard errors use the Gauss-Newton
    covariance (J'J)^-1 times the residual variance.
    """
    data = np.asarray(cells, dtype=float)
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValueError("cells must be (log10_P, log10_S, quality) triples")
    if data.shape[0] < 4:
        raise ValueError("need at least 4 cells")
    x, s, q = data[:, 0], data[:, 1], data[:, 2]
    if np.any((q < 0) | (q > 1)):
        raise ValueError("qualities must lie in [0, 1]")
    if np.ptp(x) == 0 or np.ptp(s) == 0:
        raise ValueError("both predictors must be non-constant")

    X = np.column_stack([x, s, np.ones_like(x)])
    n = len(q)

    # Start on the ramp: mean linear predictor equals logit(mean quality).
    alpha0, beta0 = 1.0, 0.5
    mq = float(np.clip(q.mean(), 0.01, 0.99))
    gamma0 = logit(mq) - (alpha0 * x.mean() + beta0 * s.mean())
    theta = np.array([alpha0, beta0, gamma0])

    def rss_of(th: np.ndarray) -> float:
        return float(np.sum((q - sigmoid(X @ th)) ** 2))

    rss = rss_of(theta)
    lam = _LM_LAMBDA0
    converged = False
    iterations = 0
    for iterations in range(1, _LM_MAX_ITER + 1):
        f = sigmoid(X @ theta)
        J = (f * (1.0 - f))[:, None] * X
        JTJ = J.T @ J
        JTr = J.T @ (q - f)
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(JTJ + lam * np.diag(np.diag(JTJ)), JTr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            new_rss = rss_of(theta + step)
            if new_rss < rss:
                theta = theta + step
                if rss - new_rss < _LM_RTOL * max(rss, 1e-300):
                    converged = True
                rss = new_rss
                lam = max(lam / 10.0, 1e-15)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            converged = True  # no downhill step exists at machine precision
        if converged:
            break

    f = sigmoid(X @ theta)
    J = (f * (1.0 - f))[:, None] * X
    dof = n - 3
    sigma2 = rss / dof if dof > 0 else float("nan")
    try:
        cov = sigma2 * np.linalg.inv(J.T @ J)
        ses = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        ses = np.full(3, float("nan"))
    tss = float(np.sum((q - q.mean()) ** 2))
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    return SigmoidFit(
        alpha=float(theta[0]),
        beta=float(theta[1]),
        gamma=float(theta[2]),
        se_alpha=float(ses[0]),
        se_beta=float(ses[1]),
        se_gamma=float(ses[2]),
        r2=r2,
        n=n,
        converged=converged,
        iterations=iterations,
        rss=rss,
    )


# -- OLS ----------------------------------------------------------------------

def fit_ols(xs, y) -> OlsFit:
    """Closed-form least squares with intercept.

    ``xs`` is one predictor column or a (n, k) matrix of one or two columns.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(xs, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n, k = X.shape
    if n <= k + 1:
        raise ValueError("need n > number of coefficients")
    design = np.column_stack([np.ones(n), X])
    if np.linalg.matrix_rank(design) < k + 1:
        raise ValueError("singular design matrix")
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    rss = float(resid @ resid)
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    sigma2 = rss / (n - k - 1)
    cov = sigma2 * np.linalg.inv(design.T @ design)
    return OlsFit(
        coefficients=coef,
        standard_errors=np.sqrt(np.diag(cov)),
        r2=r2,
        rss=rss,
        n=n,
    )


def incremental_f(full: OlsFit, reduced: OlsFit) -> Tuple[float, Tuple[int, int]]:
    """F test of the predictors the full model adds over the reduced one."""
    if full.n != reduced.n:
        raise ValueError("models must share the response")
    p_full = len(full.coefficients)
    p_red = len(reduced.coefficients)
    if p_full <= p_red:
        raise ValueError("full model must add at least one predictor")
    if full.rss <= 0:
        raise ValueError("F undefined: full model has zero residual sum of squares")
    d1 = p_full - p_red
    d2 = full.n - p_full
    f_stat = ((reduced.rss - full.rss) / d1) / (full.rss / d2)
    return float(f_stat), (d1, d2)


# -- rank correlation ---------------------------------------------------------

_EXACT_PERM_MAX_N = 9


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based); ties share the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    count = np.diff(np.r_[first, len(values)])
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(first + (count + 1) / 2, count)
    return ranks


def _rho_and_ranks(x, y) -> Tuple[float, np.ndarray, np.ndarray]:
    """Spearman rho, ranks of x and ranks of y, after validating both samples."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if n < 3 or len(y) != n:
        raise ValueError("need two equal-length samples with n >= 3")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("correlation undefined for a sample containing NaN")
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise ValueError("correlation undefined for a constant sample")
    rx, ry = _ranks(x), _ranks(y)
    return float(np.corrcoef(rx, ry)[0, 1]), rx, ry


def spearman(x, y) -> Tuple[float, float]:
    """Spearman rho with average-rank ties and a two-sided p-value.

    p uses the t-approximation for n >= 10 and the exact permutation
    distribution below that.
    """
    rho, rx, ry = _rho_and_ranks(x, y)
    n = len(rx)
    if n <= _EXACT_PERM_MAX_N:
        p = _exact_perm_p(rx, ry, rho)
    elif abs(rho) >= 1.0:
        p = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = _t_two_sided(n - 2, abs(t))
    return rho, p


# Where 1 - head is at least this, the two-sided t tail is taken from the
# finite head sum; below it, from the positive-term rest of the series.
_T_HEAD_MIN_P = 0.1


def _t_two_sided(df: int, t: float) -> float:
    """P(|T| >= t) for Student's t with an integer df >= 1 and t >= 0.

    With x = cos^2 theta = df / (df + t^2) and theta = atan(t / sqrt(df)),
    Abramowitz & Stegun 26.7.3 and 26.7.4 give P(|T| < t) as a finite sum:

        even df: sin theta * sum_{j < df/2} c_j x^j,  c_j = (2j-1)!! / (2j)!!
        odd df:  2/pi * (theta + sin theta cos theta
                         * sum_{j < (df-1)/2} d_j x^j),  d_j = (2j)!! / (2j+1)!!

    Over all j >= 0 the two series sum to 1 / sin theta and to
    (pi/2 - theta) / (sin theta cos theta), which make the whole probability
    1. So p is the rest of the series, from the first term the finite sum
    leaves out: a sum of positive terms, with no cancellation however small
    p is. 1 - head is taken only where p is not small, since the rest
    converges slowly as x nears 1. The rest is summed scaled by its first
    term, so no summand is subnormal; where that first term underflows, so
    does p.
    """
    if t == 0.0:
        return 1.0
    if t == math.inf:
        return 0.0
    root = math.sqrt(df)
    if t > 1e150:  # t * t would overflow; df + t * t rounds to t * t
        x, sin, cos = df / t / t, 1.0, root / t
    else:
        t2 = t * t
        x = df / (df + t2)
        sin, cos = math.sqrt(t2 / (df + t2)), math.sqrt(x)
    odd = df % 2
    if odd:
        head = 2.0 / math.pi * math.atan2(t, root)
        term = 2.0 / math.pi * sin * cos
    else:
        head, term = 0.0, sin
    first = (df - 1) // 2 if odd else df // 2
    for j in range(first):
        head += term
        term *= x * (2 * j + 1 + odd) / (2 * j + 2 + odd)
    if 1.0 - head >= _T_HEAD_MIN_P:
        return 1.0 - head
    # Each ratio is below x, so what follows a summand u is below
    # u x / (1 - x), with 1 - x = sin^2 theta.
    total = u = 1.0
    j = first
    while u * x > total * 2.0**-54 * sin * sin:
        u *= x * (2 * j + 1 + odd) / (2 * j + 2 + odd)
        total += u
        j += 1
    return term * total


@lru_cache(maxsize=None)
def _permutation_matrix(n: int) -> np.ndarray:
    """All n! orderings of range(n), one per row (row order is irrelevant)."""
    perms = np.zeros((1, 0), dtype=np.uint8)
    for k in range(n):
        perms = np.concatenate(
            [np.insert(perms, j, k, axis=1) for j in range(k + 1)])
    perms.flags.writeable = False
    return perms


def _exact_perm_p(rx: np.ndarray, ry: np.ndarray, rho_obs: float) -> float:
    # Centred average ranks are multiples of 0.5, so every dot product below
    # is exact whatever the summation order, and the count matches a
    # permutation-by-permutation loop.
    rxc = rx - rx.mean()
    denom = math.sqrt(float(rxc @ rxc))
    ryc = ry - ry.mean()
    sy = math.sqrt(float(ryc @ ryc))
    thresh = abs(rho_obs) - 1e-12
    r = (ryc[_permutation_matrix(len(ryc))] @ rxc) / (denom * sy)
    return int(np.count_nonzero(np.abs(r) >= thresh)) / len(r)


# -- agreement ----------------------------------------------------------------

def confusion_stats(cm: ConfusionMatrix2x2) -> Tuple[float, float, float, float]:
    """(accuracy, precision, recall, specificity)."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else float("nan")
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else float("nan")
    specificity = cm.tn / (cm.tn + cm.fp) if cm.tn + cm.fp else float("nan")
    return accuracy, precision, recall, specificity


def cohen_kappa(cm: ConfusionMatrix2x2) -> float:
    """Binary Cohen's kappa with marginal-product expected agreement."""
    n = cm.total
    if n == 0:
        raise ValueError("empty confusion matrix")
    po = (cm.tp + cm.tn) / n
    pe = ((cm.tp + cm.fn) * (cm.tp + cm.fp) + (cm.tn + cm.fp) * (cm.tn + cm.fn)) / n**2
    if pe >= 1.0:
        raise ValueError("degenerate marginals: expected agreement is 1")
    return (po - pe) / (1.0 - pe)


def weighted_kappa_3level(table) -> float:
    """Linearly weighted kappa over the ordered scale NO < PARTIAL < YES."""
    obs = np.asarray(table, dtype=float)
    if obs.shape != (3, 3):
        raise ValueError("expected a 3x3 table")
    n = obs.sum()
    if n <= 0:
        raise ValueError("empty table")
    idx = np.arange(3)
    w = np.abs(idx[:, None] - idx[None, :]) / 2.0  # linear disagreement weights
    row = obs.sum(axis=1) / n
    col = obs.sum(axis=0) / n
    expected = np.outer(row, col)
    exp_dis = float((w * expected).sum())
    if exp_dis == 0.0:
        raise ValueError("degenerate marginals: no expected disagreement")
    obs_dis = float((w * obs / n).sum())
    return 1.0 - obs_dis / exp_dis


# -- bootstrap ----------------------------------------------------------------

# Index cells drawn per chunk. A bootstrap's working memory is two 8-byte
# arrays of this many cells (16 MB), whatever resamples x n is.
_BOOTSTRAP_CHUNK_CELLS = 1 << 20


def bootstrap_statistic(
    values: np.ndarray,
    resamples: int,
    seed: int,
    statistic: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """``statistic`` of each of ``resamples`` with-replacement resamples.

    ``statistic`` maps a (rows, n) block of resamples to one value per row.
    Resample indices are drawn a block of rows at a time from one Generator,
    which yields the same stream as a single (resamples, n) draw, so the
    result does not depend on the block size.
    """
    n = len(values)
    rng = np.random.default_rng(seed)
    out = np.empty(resamples)
    step = max(1, _BOOTSTRAP_CHUNK_CELLS // n)
    for start in range(0, resamples, step):
        stop = min(start + step, resamples)
        idx = rng.integers(0, n, size=(stop - start, n))
        out[start:stop] = statistic(values[idx])
    return out


def bootstrap_median_ci(values) -> BootstrapCI:
    """Percentile 95% CI of the median under the bootstrap, in closed form.

    The bounds are the 2.5th and 97.5th percentiles of the median over all
    n**n equally likely resamples: the limit of the Monte-Carlo percentile
    bootstrap as the number of resamples grows (Efron 1979, Ann. Statist.
    7:1-26, section 3), with no random draws.
    """
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        raise ValueError("need at least 2 values")
    if np.isnan(values).any():
        raise ValueError("median undefined for a sample containing NaN")
    support, mass = _resample_median_law(values)
    lower, upper = support[np.searchsorted(np.cumsum(mass), (0.025, 0.975))]
    return BootstrapCI(
        point=float(np.median(values)), lower=float(lower), upper=float(upper))


# A binomial tail under this is taken as 0, which bounds the work on samples
# of many distinct values. For even n, the pair table so leaves out values
# that X_(h) falls at or below, or X_(h+1) at or above: at most 2e-18 of mass.
_NEGLIGIBLE_MASS = 1e-18


def _resample_median_law(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted distinct medians of an n-of-n resample and their probabilities.

    With u_1 < ... < u_V the distinct values and N_k the number of values
    <= u_k, the count of resampled values <= u_k is Binomial(n, N_k / n).
    For odd n the median is the order statistic X_(m), m = (n + 1) / 2, and
    P(X_(m) <= u_k) = P(Binomial(n, N_k / n) >= m). For even n it is the
    midpoint of X_(h) and X_(h+1), h = n / 2, whose joint law is summed per
    distinct midpoint (Hutson & Ernst 2000, JRSS-B 62:89-94). Midpoints
    are (u_a + u_b) / 2, the float np.median returns for that pair.
    """
    n = len(values)
    atoms, counts = np.unique(values, return_counts=True)
    below = np.concatenate([[0], np.cumsum(counts)])  # N_0 = 0, ..., N_V = n
    if n % 2:
        return atoms, np.diff(_binom_tail(n, (n + 1) // 2, below))
    h = n // 2
    # P(X_(h) <= u_k) and P(X_(h+1) > u_k) = P(Binomial(n, 1 - F_k) >= h).
    lo_cdf, hi_sf = np.split(_binom_tail(n, h, np.concatenate([below, n - below])), 2)
    keep = np.flatnonzero((lo_cdf[1:] > _NEGLIGIBLE_MASS)
                          & (hi_sf[:-1] > _NEGLIGIBLE_MASS)) + 1
    # Logs of 2 F_k and 2 (1 - F_k), and C(n, h) / 4^h from exact integers.
    # Centred at 1/2, the exponents near the median stay small; a log of
    # C(n, h) alone (lgamma) carries an error of 1e-11 at n = 10^4.
    with np.errstate(divide="ignore"):
        log_f = np.log(2.0 * below / n)  # at F_0 = 0: -inf
        log_g = np.log(2.0 * (n - below) / n)  # at F_V = 1: -inf
    log_comb = math.log(math.comb(n, h) / 4**h)
    # a < b: C(n, h) (F_a^h - F_{a-1}^h) ((1 - F_{b-1})^h - (1 - F_b)^h).
    log_lo = h * log_f[keep] + np.log(-np.expm1(h * (log_f[keep - 1] - log_f[keep])))
    log_hi = h * log_g[keep - 1] + np.log(-np.expm1(h * (log_g[keep] - log_g[keep - 1])))
    # a = b: X_(h+1) <= u_a and not X_(h) <= u_{a-1}, with both counted once
    # when exactly h values are <= u_{a-1} and h are > u_a.
    same = (1.0 - hi_sf[keep]) - lo_cdf[keep - 1] + np.exp(
        log_comb + h * (log_f[keep - 1] + log_g[keep]))
    a, b = np.triu_indices(len(keep), 1)
    u = atoms[keep - 1]
    support, where = np.unique(np.concatenate([u, (u[a] + u[b]) / 2]),
                               return_inverse=True)
    mass = np.concatenate([np.maximum(same, 0.0),  # rounding: about -1e-21
                           np.exp(log_comb + log_lo[a] + log_hi[b])])
    return support, np.bincount(where, weights=mass)


def _binom_tail(n: int, k: int, counts: np.ndarray) -> np.ndarray:
    """P(Binomial(n, c / n) >= k) for each integer count c in [0, n], for k
    near n / 2.

    The smaller tail is summed term by term: j >= k when the mean c is at
    most k, else j < k, whose sum is taken from 1. Terms more than
    5 sqrt(n) + 10 from k lie that far from the mean, so together they are
    below exp(-50) (Hoeffding), and are left out. So are counts whose term
    at k is under _NEGLIGIBLE_MASS / n, which bounds their whole tail: it
    is 0 or 1. The terms' logs are centred at x = 1/2, with C(n, k) / 2^n
    formed from exact integers (C(n, n/2) overflows float64 from n of about
    1,030) and C(n, j) stepped from it.
    """
    tail = (counts >= k).astype(float)
    span = int(5 * math.sqrt(n)) + 10
    j = np.arange(max(0, k - span), min(n, k + span) + 1)
    log_comb = np.concatenate([[0.0], np.cumsum(np.log((n - j[:-1]) / (j[:-1] + 1.0)))])
    log_comb += math.log(math.comb(n, k) / 2**n) - log_comb[k - j[0]]
    inner = np.flatnonzero((counts > 0) & (counts < n))
    log_x = np.log(2.0 * counts[inner] / n)
    log_y = np.log(2.0 * (n - counts[inner]) / n)
    at_k = log_comb[k - j[0]] + k * log_x + (n - k) * log_y
    near = at_k > math.log(_NEGLIGIBLE_MASS / n)
    inner, log_x, log_y = inner[near], log_x[near, None], log_y[near, None]
    terms = np.exp(log_comb + j * log_x + (n - j) * log_y)
    upper = (counts[inner] <= k)[:, None]
    small = np.where(upper == (j >= k), terms, 0.0).sum(axis=1)
    tail[inner] = np.where(upper[:, 0], small, 1.0 - small)
    return tail


def weighted_loglog_fit(points, se) -> OlsFit:
    """Inverse-variance weighted least squares of y on x.

    ``points`` holds (x, y) pairs (already in log10 space); ``se`` the
    per-point standard errors. Equal errors reduce to plain OLS.
    """
    pts = np.asarray(points, dtype=float)
    se = np.asarray(se, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (x, y) pairs")
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    if np.any(se <= 0):
        raise ValueError("all standard errors must be positive")
    x, y = pts[:, 0], pts[:, 1]
    w = 1.0 / se**2
    design = np.column_stack([np.ones_like(x), x])
    sw = np.sqrt(w)
    coef, _, _, _ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
    resid = y - design @ coef
    rss = float(w @ resid**2)
    ybar = float(w @ y / w.sum())
    tss = float(w @ (y - ybar) ** 2)
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    cov = rss / (len(x) - 2) * np.linalg.inv((design * w[:, None]).T @ design)
    return OlsFit(
        coefficients=coef,
        standard_errors=np.sqrt(np.diag(cov)),
        r2=r2,
        rss=rss,
        n=len(x),
    )


# -- relevance-weight robustness sweep ----------------------------------------

DEFAULT_SWEEP_WEIGHTS = (0.0, 0.25, 0.5, 0.75, 1.0)


def partial_weight_sweep(
    cell_refs: Sequence[CellRefs],
    weights: Sequence[float] = DEFAULT_SWEEP_WEIGHTS,
    baseline: float = 0.50,
) -> List[dict]:
    """Recompute cell qualities at each PARTIAL weight and report fit quality
    plus model-rank stability against the baseline weight. Every cell must be
    on the fit: both axes set.

    Each row holds the sigmoid fit r2, the two-predictor log-linear r2, and
    the Spearman rho of the model-level quality ranking against the baseline
    ranking.

    Cells are grouped by reference count into one authenticity block and one
    label-code block per count, built once. A cell's quality at a weight is
    then its row of one np.mean(axis=1) per block, which equals np.mean over
    that cell's own references bitwise, and feeds both the fits and the model
    means.
    """
    codes = {RelevanceLabel.YES: 0, RelevanceLabel.PARTIAL: 1, RelevanceLabel.NO: 2}
    by_size: Dict[int, List[int]] = {}
    members: Dict[str, List[int]] = {}
    for i, cell in enumerate(cell_refs):
        if not cell.refs:
            raise ValueError(f"cell for model {cell.model!r} has no references")
        by_size.setdefault(len(cell.refs), []).append(i)
        members.setdefault(cell.model, []).append(i)
    blocks = [
        (np.array(rows),
         np.array([[a for a, _ in cell_refs[i].refs] for i in rows]),
         np.array([[codes[lbl] for _, lbl in cell_refs[i].refs] for i in rows]))
        for rows in by_size.values()
    ]
    model_order = sorted(members)
    predictors = np.array([(c.log10_p, c.log10_s) for c in cell_refs], dtype=float)

    def qualities(weight: float) -> np.ndarray:
        # YES, PARTIAL and NO by label code; the PARTIAL lookup checks the weight.
        values = np.array([1.0, relevance_value(RelevanceLabel.PARTIAL, weight), 0.0])
        q = np.empty(len(cell_refs))
        for rows, auth, code in blocks:
            q[rows] = np.mean(auth * values[code], axis=1)
        return q

    def model_means(q: np.ndarray) -> List[float]:
        return [float(np.mean(q[members[m]])) for m in model_order]

    base_vec = model_means(qualities(baseline))

    rows: List[dict] = []
    for weight in weights:
        q = qualities(weight)
        sig = fit_sigmoid(np.column_stack([predictors, q]))
        lin = fit_ols(predictors, q)
        vec = model_means(q)
        if np.ptp(vec) == 0 or np.ptp(base_vec) == 0:
            rho = 1.0 if vec == base_vec else float("nan")
        else:
            rho = _rho_and_ranks(vec, base_vec)[0]  # p is not reported
        rows.append(
            {
                "partial_weight": weight,
                "sigmoid_r2": sig.r2,
                "loglinear_r2": lin.r2,
                "rank_rho_vs_baseline": rho,
            }
        )
    return rows
