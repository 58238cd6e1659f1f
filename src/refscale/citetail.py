"""Citation-count gradient analysis: restrict to verified references, take
the citation count of the work each one was matched to at verification,
compute per-model median citation counts with exact bootstrap confidence
intervals, and fit the inverse-variance weighted log-log gradient against
model size."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import stats  # traced functions are called through the module
from .stats import BootstrapCI, OlsFit, weighted_loglog_fit
from .verification import Status, VerificationResult

__all__ = ["CitationSample", "GradientReport", "TooFewModels", "build_citation_samples",
           "citation_gradient", "citetail_artifacts"]

_INCLUDED_STATUSES = (Status.VERIFIED, Status.VERIFIED_WITH_ERROR)


class TooFewModels(ValueError):
    """Fewer than 3 models qualify for the gradient fit."""


@dataclass
class CitationSample:
    """Matched citation counts for one model, with exclusion accounting."""

    model: str
    matched: List[Tuple[Tuple[str, str, int], int]] = field(default_factory=list)
    n_excluded_status: int = 0

    @property
    def counts(self) -> List[int]:
        return [c for _, c in self.matched]


@dataclass
class GradientReport:
    medians: Dict[str, BootstrapCI]
    fit: OlsFit
    spearman_rho: float
    spearman_p: float
    included_models: List[str]
    excluded_models: List[str]


def build_citation_samples(
    results: Mapping[Tuple[str, str, int], VerificationResult],
) -> List[CitationSample]:
    """One sample per model over its analysed references.

    References outside the verified buckets are counted but excluded. Both
    verified buckets require a matched work, so each verified reference
    contributes the citation count recorded for that work.
    """
    samples: Dict[str, CitationSample] = {}
    for key in sorted(results):
        sample = samples.setdefault(key[0], CitationSample(model=key[0]))
        result = results[key]
        if result.status in _INCLUDED_STATUSES:
            sample.matched.append((key, result.cited_by_count))
        else:
            sample.n_excluded_status += 1
    return list(samples.values())


def citation_gradient(
    samples: Sequence[CitationSample],
    params_billions: Mapping[str, Optional[float]],
    min_n: int = 50,
) -> GradientReport:
    """Per-model medians with exact bootstrap CIs and the weighted log-log fit.

    Models below ``min_n`` matched references or with unknown parameter
    count are excluded. The point standard error for weighting is the
    percentile CI width divided by 2 * 1.96.
    """
    qualifying: List[CitationSample] = []
    excluded: List[str] = []
    for sample in samples:
        p = params_billions.get(sample.model)
        if p is None or len(sample.matched) < min_n:
            excluded.append(sample.model)
        else:
            qualifying.append(sample)
    if len(qualifying) < 3:
        raise TooFewModels(f"need at least 3 qualifying models, have {len(qualifying)}")

    medians: Dict[str, BootstrapCI] = {}
    points: List[Tuple[float, float]] = []
    ses: List[float] = []
    p_vals: List[float] = []
    med_vals: List[float] = []
    for sample in sorted(qualifying, key=lambda s: s.model):
        ci = stats.bootstrap_median_ci(sample.counts)
        if min(ci.point, ci.lower, ci.upper) <= 0:
            raise ValueError(f"{sample.model}: citation medians must be positive for the "
                             f"log fit, got {ci.point:g} (CI {ci.lower:g} to {ci.upper:g})")
        medians[sample.model] = ci
        p = float(params_billions[sample.model])
        se_log = _log10_se(ci)
        points.append((math.log10(p), math.log10(ci.point)))
        ses.append(se_log)
        p_vals.append(p)
        med_vals.append(ci.point)

    fit = weighted_loglog_fit(points, ses)
    rho, pval = stats.spearman(p_vals, med_vals)
    return GradientReport(
        medians=medians,
        fit=fit,
        spearman_rho=rho,
        spearman_p=pval,
        included_models=sorted(s.model for s in qualifying),
        excluded_models=sorted(excluded),
    )


def citetail_artifacts(results: Mapping[Tuple[str, str, int], VerificationResult],
                       params_billions: Mapping[str, Optional[float]],
                       min_n: int) -> Dict[str, object]:
    """The citetail stage's artifacts by file name: the included models'
    median citation counts with their CIs, and the gradient report. Raises
    TooFewModels when fewer than 3 models qualify."""
    samples = build_citation_samples(results)
    report = citation_gradient(samples, params_billions, min_n=min_n)
    accounting = {s.model: {"n_matched": len(s.matched),
                            "n_excluded_status": s.n_excluded_status} for s in samples}
    rows = []
    for model in report.included_models:
        ci = report.medians[model]
        rows.append((model, f"{float(params_billions[model]):.8g}",
                     accounting[model]["n_matched"],
                     f"{ci.point:.8g}", f"{ci.lower:.8g}", f"{ci.upper:.8g}"))
    return {
        "citation_gradient.csv": (
            ["model", "params_billions", "n_matched", "median", "ci_low", "ci_high"], rows),
        "citetail_report.json": {
            "weighted_fit": report.fit.as_dict(),
            "spearman_rho": report.spearman_rho,
            "spearman_p": report.spearman_p,
            "included_models": report.included_models,
            "excluded_models": report.excluded_models,
            "min_n": min_n,
            "accounting": accounting,
        },
    }


_MIN_LOG_SE = 1e-6  # zero-width bootstrap CIs would give infinite weight


def _log10_se(ci: BootstrapCI) -> float:
    width = math.log10(ci.upper) - math.log10(ci.lower)
    return max(width / (2.0 * 1.959963984540054), _MIN_LOG_SE)
