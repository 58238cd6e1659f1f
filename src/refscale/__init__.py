"""refscale: scholarly-reference recall measurement.

Citation parsing and verification scoring, scaling-law fitting, Zipf
exponent estimation, a superposition threshold simulator, and the
citation-tail gradient analysis, wired together by a deterministic CLI.
"""

__version__ = "0.1.0"

from .citations import (
    ParseFailure,
    ParsedReference,
    content_word_overlap,
    normalize_title,
    parse_apa,
    split_reference_list,
)
from .dataset import (
    Dataset,
    ModelSpec,
    ObservationCell,
    TopicSpec,
    build_observations,
    dedup_cell,
    ingest_dataset,
)
from .openalex import ExternalWork, FixtureCache, OpenAlexClient
from .stats import (
    BootstrapCI,
    ConfusionMatrix2x2,
    OlsFit,
    SigmoidFit,
    bootstrap_median_ci,
    cohen_kappa,
    confusion_stats,
    fit_ols,
    fit_sigmoid,
    incremental_f,
    spearman,
    weighted_kappa_3level,
    weighted_loglog_fit,
)
from .theory import (
    QualityLink,
    SimConfig,
    TheoryExponents,
    classify_regime,
    efficiency,
    interference_floor,
    linearize,
    quality_from_Q,
    recall_fraction,
    reference_slope,
    required_content,
    required_params,
    simulate_recall,
)
from .verification import (
    FieldVerdict,
    RelevanceLabel,
    Status,
    VerificationResult,
    authenticity_score,
    binary_title_match,
    classify_field,
    classify_status,
    match_work,
    relevance_value,
    verify_reference,
)
from .zipflaw import (
    RankedFrequencies,
    bootstrap_alpha_ci,
    fit_zipf_mle,
    fit_zipf_ols,
    rank_frequencies,
    rolling_window_alpha,
)
