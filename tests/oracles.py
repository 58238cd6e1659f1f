"""Reference implementations that the statistics and verify hot paths
replaced.

Each is the earlier code, kept verbatim where it can be, so that the faster
versions in ``refscale.stats``, ``refscale.zipflaw``, ``refscale.citations``
and ``refscale.pipeline`` can be checked against it for exact equality.
The closed-form median bootstrap is the limit of ``bootstrap_median_ci``
below, so it is checked against an enumeration of every resample for small
n and against that Monte Carlo within its sampling error for larger n.
"""

import json
import math
import re
import unicodedata
from itertools import permutations, product
from pathlib import Path

import numpy as np
from scipy import stats as sps

from refscale.openalex import ExternalWork, FixtureMiss, request_fingerprint
from refscale.pipeline import FixtureMissBatch
from refscale.verification import (
    FIELD_KINDS,
    FieldVerdict,
    Status,
    VerificationResult,
    authenticity_score,
    classify_field,
    classify_status,
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


def t_sf(t, df) -> float:
    """Student t survival function, as ``spearman`` above computes it."""
    return float(sps.t.sf(t, df))


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
