"""Reference implementations that the statistics, theory, parse and verify
hot paths replaced, and the ``observations.csv`` reader that ``fit`` took its
cells from.

Each is the earlier code, kept verbatim where it can be, so that the faster
versions in ``refscale.stats``, ``refscale.zipflaw``, ``refscale.theory``,
``refscale.citations``, ``refscale.pipeline`` and ``refscale.verification``,
and the in-memory cells of ``refscale.dataset.rounded_cells``, can be checked
against it for exact equality.
Three are declared exceptions, held to a stated error instead:

- The closed-form median bootstrap is the limit of ``bootstrap_median_ci``
  below, so it is checked against an enumeration of every resample for
  small n and against that Monte Carlo within its sampling error for
  larger n.
- The Spearman t tail is computed in closed form, where it was scipy's
  ``stdtr``. It is checked within a relative error against
  ``t_tail_exact``, the incomplete beta function at 50 digits.
- The rolling Zipf exponent is a closed-form OLS slope, where it was one
  ``np.polyfit`` per window. It is checked within a relative error against
  ``rolling_window_alpha``, except that a window of equal counts, where
  polyfit returns rounding noise, must give exactly 0. On a nearly flat
  window polyfit's own rounding can exceed that error; there the closed
  form is held to ``ols_slope_exact`` instead.
"""

import csv
import json
import math
import re
import unicodedata
from itertools import permutations, product
from pathlib import Path
from typing import List

import mpmath
import numpy as np
from scipy import stats as sps

from refscale.citations import ParseFailure, parse_apa, split_reference_list
from refscale.dataset import _CELL_COLUMNS, ObservationCell, dedup_cell
from refscale.openalex import ExternalWork, FixtureMiss, request_fingerprint
from refscale.pipeline import Accounting, FixtureMissBatch, ParsedCorpus
from refscale.records import IngestError, check_type
from refscale.stats import _rho_and_ranks, fit_ols, fit_sigmoid
from refscale.verification import (
    _FIELD_KIND_SET,
    _LINE_FIELDS,
    _STATUSES,
    _VERDICTS,
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


def ols_slope_exact(x, y) -> float:
    """OLS slope of the float arrays y on x, evaluated at 50 significant
    digits from the same float64 inputs."""
    with mpmath.workdps(50):
        xs = [mpmath.mpf(float(v)) for v in x]
        ys = [mpmath.mpf(float(v)) for v in y]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        return float(sum((a - mx) * (b - my) for a, b in zip(xs, ys))
                     / sum((a - mx) ** 2 for a in xs))


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


def rolling_window_alpha(rf, window: int):
    """(center rank, local alpha) pairs from one ``np.polyfit`` per window."""
    n = len(rf)
    if window < 3 or window > n:
        raise ValueError("window must satisfy 3 <= window <= n")
    ranks = rf.ranks
    logs_k = np.log(ranks)
    logs_f = np.log(rf.frequencies)
    out = []
    for start in range(0, n - window + 1):
        sl = slice(start, start + window)
        xk, yf = logs_k[sl], logs_f[sl]
        slope = float(np.polyfit(xk, yf, 1)[0])
        center = float(ranks[sl].mean())
        out.append((center, -slope))
    return out


# -- the threshold simulator, one scan of every concept -----------------------

_SCAN_CHUNK = 1 << 20


def simulate_recall_scan(cfg):
    """Explicit threshold scan over the concept inventory.

    Concept k (rank-frequency f_k = c0 * S^delta * k^-alpha_z) is recalled
    when its signal f_k^beta_s exceeds the interference floor P^(-gamma_e/2).
    The signal is decreasing in k, so recalled concepts form a prefix;
    returns (k_star, Q = k_star / m).
    """
    e = cfg.exponents
    floor = cfg.p ** (-e.gamma_e / 2.0)
    base = e.c0 * cfg.s ** e.delta
    k_star = 0
    for start in range(1, cfg.m + 1, _SCAN_CHUNK):
        stop = min(start + _SCAN_CHUNK, cfg.m + 1)
        k = np.arange(start, stop, dtype=float)
        signal = (base * k ** (-e.alpha_z)) ** e.beta_s
        hits = int(np.count_nonzero(signal > floor))
        k_star += hits
        if hits < stop - start:
            break
    return k_star, k_star / cfg.m


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


def search_candidates(fixtures, title: str):
    """Every parsed candidate, with the fixture read from disk on each call."""
    params = {"title": title}
    fp = request_fingerprint("works_search", params)
    path = Path(fixtures) / f"{fp}.json"
    if not path.exists():
        raise FixtureMiss(fp, "works_search", params)
    body = json.loads(path.read_text())["body"]
    return [ExternalWork(**w) for w in body["results"]]


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


# -- parse: every split entry parsed where it occurs ---------------------------

def parse_corpus(dataset) -> ParsedCorpus:
    """Split, parse, and deduplicate every generation in the dataset."""
    refs = {}
    acct = Accounting()
    failures = []
    for gen in dataset.generations:
        acct.requested += gen.n_requested
        entries = split_reference_list(gen.raw_text)
        parsed = []
        for idx, entry in enumerate(entries):
            try:
                parsed.append((idx, parse_apa(entry)))
            except ParseFailure as err:
                acct.parse_failures += 1
                failures.append(
                    {"model": gen.model, "topic": gen.topic, "index": idx,
                     "raw": err.raw, "reason": err.reason}
                )
        acct.produced += len(parsed)
        kept = dedup_cell([r for _, r in parsed])
        for pos in kept:
            idx, ref = parsed[pos]
            refs[(gen.model, gen.topic, idx)] = ref
        acct.dedup_removed += len(parsed) - len(kept)
        acct.analysed += len(kept)
    return ParsedCorpus(refs=refs, accounting=acct, failures=failures)


# -- fit's cells, read back from the observations.csv that score wrote -------

def load_cells(path) -> List[ObservationCell]:
    """Read ``observations.csv`` back into cells, an empty axis as None. A wrong
    header, a row without five fields, a value that is not a number or a
    quality outside [0, 1] raises IngestError naming the file and the line."""
    path = Path(path)
    cells: List[ObservationCell] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _CELL_COLUMNS:
            raise IngestError(f"{path}: line 1: expected columns {','.join(_CELL_COLUMNS)}"
                              f", got {header!r}; re-run score")
        for row in reader:
            try:
                model, topic, log10_p, log10_s, quality = row
                cells.append(ObservationCell(
                    model, topic, None if log10_p == "" else float(log10_p),
                    None if log10_s == "" else float(log10_s), float(quality)))
            except ValueError as err:
                raise IngestError(f"{path}: line {reader.line_num}: {err}; "
                                  "re-run score") from err
    return cells


# -- report's results, read whole and split into lines -----------------------

def results_from_jsonl(path):
    """Read ``verification.jsonl`` back, keyed by (model, topic, index). A line
    that is not JSON, lacks a key, or has a field of the wrong type or outside
    its values raises IngestError naming the file and the line."""
    path = Path(path)
    results = {}
    for n, line in enumerate(path.read_text().splitlines(), 1):
        try:
            rec = json.loads(line)
            for name, annotation in _LINE_FIELDS:
                check_type("record", name, rec[name], annotation)
            if not 0.0 <= rec["authenticity"] <= 1.0:
                raise ValueError(f"authenticity must be in [0, 1], got {rec['authenticity']!r}")
            raw = rec["verdicts"]
            if not isinstance(raw, dict) or raw.keys() != _FIELD_KIND_SET:
                raise ValueError(f"verdicts must map {', '.join(FIELD_KINDS)}, got {raw!r}")
            try:
                verdicts = {k: _VERDICTS[v] for k, v in raw.items()}
            except (KeyError, TypeError):
                raise ValueError(f"verdicts: unknown verdict in {raw!r}") from None
            status = rec["status"]
            if not isinstance(status, str) or status not in _STATUSES:
                raise ValueError(f"status: unknown value {status!r}")
            results[(rec["model"], rec["topic"], rec["index"])] = VerificationResult(
                verdicts, rec["authenticity"], _STATUSES[status],
                rec["matched_candidate"], rec["cited_by_count"])
        except (KeyError, TypeError, ValueError) as err:
            raise IngestError(f"{path}: line {n}: unreadable record ({err!r}); "
                              "re-run verify") from err
    return results
