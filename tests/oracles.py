"""Reference implementations that the statistics and verify hot paths
replaced.

Each is the earlier code, kept verbatim where it can be, so that the faster
versions in ``refscale.stats``, ``refscale.zipflaw``, ``refscale.citations``
and ``refscale.pipeline`` can be checked against it for exact equality.
Two are declared exceptions, held to a stated error instead:

- The closed-form median bootstrap is the limit of ``bootstrap_median_ci``
  below, so it is checked against an enumeration of every resample for
  small n and against that Monte Carlo within its sampling error for
  larger n.
- The Spearman t tail is computed in closed form, where it was scipy's
  ``stdtr``. It is checked within a relative error against
  ``t_tail_exact``, the incomplete beta function at 50 digits.
"""

import json
import math
import re
import unicodedata
from itertools import permutations, product
from pathlib import Path

import mpmath
import numpy as np
from scipy import stats as sps

from refscale.openalex import ExternalWork, FixtureMiss, request_fingerprint
from refscale.pipeline import FixtureMissBatch
from refscale.stats import _rho_and_ranks, fit_ols, fit_sigmoid
from refscale.verification import (
    FIELD_KINDS,
    FieldVerdict,
    Status,
    VerificationResult,
    authenticity_score,
    classify_field,
    classify_status,
    relevance_value,
)


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


def t_tail_exact(t, df) -> float:
    """Two-sided Student t tail P(|T| >= t) for the float t, with df degrees
    of freedom: the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + t^2), evaluated at 50 significant digits."""
    if t == float("inf"):
        return 0.0
    with mpmath.workdps(50):
        x = df / (df + mpmath.mpf(t) ** 2)
        return float(mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x,
                                    regularized=True))


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


def enumerated_median_law(values):
    """Sorted distinct medians over all n**n resamples, and how many give each."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    idx = np.array(list(product(range(n), repeat=n)))
    return np.unique(np.median(values[idx], axis=1), return_counts=True)


def enumerated_median_ci(values):
    """(lower, upper): the smallest medians that at least 2.5% and 97.5% of
    the n**n resamples reach, compared in integers."""
    support, counts = enumerated_median_law(values)
    total = len(values) ** len(values)
    reached = np.cumsum(counts)
    lower = support[np.flatnonzero(40 * reached >= total)[0]]
    upper = support[np.flatnonzero(40 * reached >= 39 * total)[0]]
    return float(lower), float(upper)


def bootstrap_alpha_ci(samples, x_min: float, resamples: int, seed: int):
    """(lower, upper) of the percentile 95% CI of the MLE exponent."""
    x = np.asarray(samples, dtype=float)
    sums = bootstrap_log_sums(np.log(x / x_min), resamples, seed)
    alphas = 1.0 + len(x) / np.maximum(sums, 1e-300)
    lower, upper = np.percentile(alphas, [2.5, 97.5])
    return float(lower), float(upper)


# -- the relevance-weight sweep, one np.mean per cell and weight -------------

def cell_quality(cell, weight: float) -> float:
    if not cell.refs:
        raise ValueError(f"cell for model {cell.model!r} has no references")
    return float(
        np.mean([a * relevance_value(lbl, weight) for a, lbl in cell.refs])
    )


def partial_weight_sweep(cell_refs, weights=(0.0, 0.25, 0.5, 0.75, 1.0),
                         baseline=0.50):
    def model_means(weight):
        sums = {}
        for cell in cell_refs:
            q = cell_quality(cell, weight)
            sums.setdefault(cell.model, []).append(q)
        return {m: float(np.mean(v)) for m, v in sorted(sums.items())}

    base_means = model_means(baseline)
    model_order = list(base_means)
    base_vec = [base_means[m] for m in model_order]

    rows = []
    for weight in weights:
        triples = [
            (c.log10_p, c.log10_s, cell_quality(c, weight)) for c in cell_refs
        ]
        sig = fit_sigmoid(triples)
        arr = np.asarray(triples)
        lin = fit_ols(arr[:, :2], arr[:, 2])
        means = model_means(weight)
        vec = [means[m] for m in model_order]
        if np.ptp(vec) == 0 or np.ptp(base_vec) == 0:
            rho = 1.0 if vec == base_vec else float("nan")
        else:
            rho = _rho_and_ranks(vec, base_vec)[0]
        rows.append(
            {
                "partial_weight": weight,
                "sigmoid_r2": sig.r2,
                "loglinear_r2": lin.r2,
                "rank_rho_vs_baseline": rho,
            }
        )
    return rows


# -- verify: the per-reference loop, before the per-title memos --------------

def normalize_title(s: str) -> str:
    """Un-memoised ``refscale.citations.normalize_title``."""
    folded = unicodedata.normalize("NFKD", s).casefold()
    return "".join(
        ch for ch in folded if not unicodedata.combining(ch) and ch.isalnum()
    )


def content_words(s: str, stopwords) -> set:
    """Un-memoised ``refscale.citations.content_words``."""
    tokens = re.findall(r"[^\W_]+", s, re.UNICODE)
    normed = (normalize_title(t) for t in tokens)
    return {t for t in normed if t and t not in stopwords}


def content_word_overlap(a: str, b: str, stopwords) -> float:
    wa = content_words(a, stopwords)
    if not wa:
        return 0.0
    wb = content_words(b, stopwords)
    return len(wa & wb) / len(wa)


def search_candidates(fixtures, title: str, max_n: int = 25):
    """Every parsed candidate, with the fixture read from disk on each call."""
    params = {"title": title}
    fp = request_fingerprint("works_search", params)
    path = Path(fixtures) / f"{fp}.json"
    if not path.exists():
        raise FixtureMiss(fp, "works_search", params)
    body = json.loads(path.read_text())["body"]
    return [ExternalWork.from_json(w) for w in body["results"][:max_n]]


def match_work(claimed_title, candidates, stopwords, threshold=0.5):
    if not candidates:
        return None
    top = candidates[0]
    if content_word_overlap(claimed_title, top.title, stopwords) >= threshold:
        return top
    return None


def verify_reference(ref, candidates, stopwords, overlap_threshold=0.5,
                     contradiction_penalty=-1.0):
    work = match_work(ref.title, candidates, stopwords, overlap_threshold)
    claimed = {
        "title": ref.title,
        "identifier": ref.identifier,
        "authors": ref.authors,
        "year": ref.year,
        "venue": ref.venue,
    }
    if work is None:
        verdicts = {
            k: (FieldVerdict.ABSENT if claimed[k] in (None, "", []) else FieldVerdict.UNCONFIRMED)
            for k in FIELD_KINDS
        }
        return VerificationResult(
            verdicts=verdicts,
            authenticity=authenticity_score(verdicts, contradiction_penalty),
            status=Status.UNVERIFIED,
            matched_candidate=None,
        )
    cand = {
        "title": work.title,
        "identifier": work.doi,
        "authors": work.authors,
        "year": work.year,
        "venue": work.venue,
    }
    verdicts = {k: classify_field(k, claimed[k], cand[k]) for k in FIELD_KINDS}
    return VerificationResult(
        verdicts=verdicts,
        authenticity=authenticity_score(verdicts, contradiction_penalty),
        status=classify_status(verdicts, matched=True),
        matched_candidate=work.id,
        cited_by_count=work.cited_by_count,
    )


def verify_corpus(corpus, fixtures, stopwords, overlap_threshold=0.5,
                  contradiction_penalty=-1.0):
    """One fixture read and the full candidate list per analysed reference."""
    results = {}
    misses = []
    seen_fingerprints = set()
    for key in sorted(corpus.refs):
        ref = corpus.refs[key]
        try:
            candidates = search_candidates(fixtures, ref.title)
        except FixtureMiss as miss:
            if miss.fingerprint not in seen_fingerprints:
                seen_fingerprints.add(miss.fingerprint)
                misses.append(miss)
            continue
        results[key] = verify_reference(
            ref, candidates, stopwords, overlap_threshold, contradiction_penalty
        )
    if misses:
        raise FixtureMissBatch(misses)
    return results
