"""Field-level verdict classification, the weighted authenticity score,
relevance weighting, combined quality, and the four-way status category.

Verdict scores and field weights are fixed constants of the scoring scheme;
changing them invalidates every downstream number, so they are module-level
and not configurable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Set

from .citations import ParsedReference, content_word_overlap, normalize_title, surname_of
from .openalex import ExternalWork

__all__ = [
    "FieldVerdict",
    "Status",
    "RelevanceLabel",
    "VerificationResult",
    "FIELD_WEIGHTS",
    "VERDICT_SCORES",
    "FIELD_KINDS",
    "classify_field",
    "authenticity_score",
    "relevance_value",
    "binary_title_match",
    "classify_status",
    "match_work",
    "verify_reference",
]


class FieldVerdict(Enum):
    MATCH = "match"
    ABBREV = "abbrev"
    CONTAINS = "contains"
    CONTRADICTION = "contradiction"
    UNCONFIRMED = "unconfirmed"
    ABSENT = "absent"


#: Scores for scorable verdicts; ABSENT carries no score.
VERDICT_SCORES: Dict[FieldVerdict, float] = {
    FieldVerdict.MATCH: 1.0,
    FieldVerdict.ABBREV: 0.75,
    FieldVerdict.CONTAINS: 0.5,
    FieldVerdict.UNCONFIRMED: 0.0,
    FieldVerdict.CONTRADICTION: -1.0,
}

FIELD_WEIGHTS: Dict[str, float] = {
    "title": 0.25,
    "identifier": 0.25,
    "authors": 0.20,
    "year": 0.15,
    "venue": 0.15,
}

FIELD_KINDS = tuple(FIELD_WEIGHTS)


class Status(Enum):
    VERIFIED = "verified"
    VERIFIED_WITH_ERROR = "verified-with-error"
    UNVERIFIED = "unverified"
    NEEDS_HUMAN = "needs-human"


class RelevanceLabel(Enum):
    YES = "YES"
    PARTIAL = "PARTIAL"
    NO = "NO"


# Members by value, for loading: a dict lookup where Enum(value) is a call.
_VERDICTS = {v.value: v for v in FieldVerdict}
_STATUSES = {s.value: s for s in Status}
_FIELD_KIND_SET = frozenset(FIELD_KINDS)


@dataclass
class VerificationResult:
    """Per-field verdicts plus the derived score and status for one reference.

    ``cited_by_count`` is the matched work's citation count, None when no
    candidate was matched.
    """

    verdicts: Dict[str, FieldVerdict]
    authenticity: float
    status: Status
    matched_candidate: Optional[str] = None
    cited_by_count: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "verdicts": {k: v.value for k, v in self.verdicts.items()},
            "authenticity": self.authenticity,
            "status": self.status.value,
            "matched_candidate": self.matched_candidate,
            "cited_by_count": self.cited_by_count,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationResult":
        """The inverse of ``to_dict``. A missing key raises KeyError; a field
        of the wrong type or outside its values raises ValueError naming it."""
        raw = d["verdicts"]
        if not isinstance(raw, dict) or raw.keys() != _FIELD_KIND_SET:
            raise ValueError(f"verdicts must map {', '.join(FIELD_KINDS)}, got {raw!r}")
        try:
            verdicts = {k: _VERDICTS[v] for k, v in raw.items()}
        except (KeyError, TypeError):
            raise ValueError(f"verdicts: unknown verdict in {raw!r}") from None
        status = d["status"]
        if not isinstance(status, str) or status not in _STATUSES:
            raise ValueError(f"status: unknown value {status!r}")
        authenticity = d["authenticity"]
        if isinstance(authenticity, bool) or not isinstance(authenticity, (int, float)):
            raise ValueError(f"authenticity must be a number, got {authenticity!r}")
        matched = d["matched_candidate"]
        if matched is not None and not isinstance(matched, str):
            raise ValueError(f"matched_candidate must be a string or null, got {matched!r}")
        cited = d["cited_by_count"]
        if cited is not None and (isinstance(cited, bool) or not isinstance(cited, int)):
            raise ValueError(f"cited_by_count must be an integer or null, got {cited!r}")
        return cls(verdicts, authenticity, _STATUSES[status], matched, cited)


_DOI_PREFIX_RE = re.compile(
    r"^(?:https?://(?:dx\.)?doi\.org/|doi:\s*)", re.IGNORECASE
)


def _norm_identifier(ident: str) -> str:
    return _DOI_PREFIX_RE.sub("", ident.strip()).casefold().rstrip("/")


def _initials(name: str) -> List[str]:
    """Initial letters of the given-name part (after the first comma)."""
    given = name.split(",", 1)[1] if "," in name else ""
    return [t[0].casefold() for t in re.findall(r"[^\W\d_]+", given)]


def _author_relation(claimed: Sequence[str], candidate: Sequence[str]) -> FieldVerdict:
    c_surnames = [normalize_title(surname_of(a)) for a in claimed]
    k_surnames = [normalize_title(surname_of(a)) for a in candidate]
    if not c_surnames or not k_surnames:
        return FieldVerdict.UNCONFIRMED
    if c_surnames == k_surnames:
        # Same people in the same order; distinguish exact vs initials-level.
        exact = all(
            normalize_title(a) == normalize_title(b)
            for a, b in zip(claimed, candidate)
        )
        if exact:
            return FieldVerdict.MATCH
        if all(
            _initials_compatible(a, b) for a, b in zip(claimed, candidate)
        ):
            return FieldVerdict.ABBREV
        return FieldVerdict.CONTRADICTION
    if set(c_surnames) <= set(k_surnames) or set(k_surnames) <= set(c_surnames):
        return FieldVerdict.CONTAINS
    return FieldVerdict.CONTRADICTION


def _initials_compatible(claimed: str, candidate: str) -> bool:
    ci, ki = _initials(claimed), _initials(candidate)
    if not ci or not ki:
        return True  # one side has no given names recorded
    return ci == ki[: len(ci)] or ki == ci[: len(ki)]


def classify_field(kind: str, claimed, candidate) -> FieldVerdict:
    """Compare one claimed field against the matched candidate's field.

    Precedence: ABSENT (nothing claimed) > UNCONFIRMED (nothing to compare
    against) > MATCH > ABBREV > CONTAINS > CONTRADICTION. An abbreviation is
    also a substring, so ABBREV is tested before CONTAINS.
    """
    if kind not in FIELD_WEIGHTS:
        raise ValueError(f"unknown field kind: {kind!r}")
    if claimed is None or claimed == "" or claimed == []:
        return FieldVerdict.ABSENT
    if candidate is None or candidate == "" or candidate == []:
        return FieldVerdict.UNCONFIRMED

    if kind == "year":
        return (
            FieldVerdict.MATCH
            if int(claimed) == int(candidate)
            else FieldVerdict.CONTRADICTION
        )
    if kind == "authors":
        return _author_relation(list(claimed), list(candidate))
    if kind == "identifier":
        a, b = _norm_identifier(str(claimed)), _norm_identifier(str(candidate))
        if a == b:
            return FieldVerdict.MATCH
        if a in b or b in a:
            return FieldVerdict.CONTAINS
        return FieldVerdict.CONTRADICTION

    # title / venue: string relations on normalized forms
    a, b = normalize_title(str(claimed)), normalize_title(str(candidate))
    if a == b:
        return FieldVerdict.MATCH
    if kind == "venue" and _venue_abbreviation(str(claimed), str(candidate)):
        return FieldVerdict.ABBREV
    if a and b and (a in b or b in a):
        return FieldVerdict.CONTAINS
    return FieldVerdict.CONTRADICTION


def _venue_abbreviation(claimed: str, candidate: str) -> bool:
    """ISO-4 style truncation check: token-by-token prefix agreement after
    dropping stop tokens and folding "&"/"and"."""

    def tokens(s: str) -> List[str]:
        s = s.replace("&", " and ")
        toks = [normalize_title(t) for t in re.findall(r"[^\W\d_]+\.?", s)]
        return [t for t in toks if t and t not in {"of", "the", "and", "for", "in", "on"}]

    a, b = tokens(claimed), tokens(candidate)
    if not a or not b or len(a) != len(b):
        return False
    short, full = (a, b) if sum(map(len, a)) <= sum(map(len, b)) else (b, a)
    if short == full:
        return False
    return all(f.startswith(s) for s, f in zip(short, full))


def authenticity_score(
    verdicts: Mapping[str, FieldVerdict], contradiction_penalty: float = -1.0
) -> float:
    """Weighted mean of verdict scores over non-ABSENT fields, clipped at 0.

    ``contradiction_penalty`` replaces the default -1.0 CONTRADICTION score
    for sensitivity runs; the headline scoring always uses the default.
    """
    num = 0.0
    den = 0.0
    for kind, verdict in verdicts.items():
        if kind not in FIELD_WEIGHTS:
            raise ValueError(f"unknown field kind: {kind!r}")
        if verdict is FieldVerdict.ABSENT:
            continue
        w = FIELD_WEIGHTS[kind]
        value = (
            contradiction_penalty
            if verdict is FieldVerdict.CONTRADICTION
            else VERDICT_SCORES[verdict]
        )
        num += w * value
        den += w
    if den == 0.0:
        raise ValueError("all fields ABSENT: no evaluable content")
    return max(0.0, num / den)


def relevance_value(label: RelevanceLabel, partial_weight: float = 0.50) -> float:
    if not 0.0 <= partial_weight <= 1.0:
        raise ValueError("partial_weight must be in [0, 1]")
    if label is RelevanceLabel.YES:
        return 1.0
    if label is RelevanceLabel.NO:
        return 0.0
    return partial_weight


def binary_title_match(result: VerificationResult) -> bool:
    """True iff a candidate was matched and the title is an exact MATCH."""
    return (
        result.matched_candidate is not None
        and result.verdicts.get("title") is FieldVerdict.MATCH
    )


def classify_status(
    verdicts: Mapping[str, FieldVerdict], matched: bool
) -> Status:
    """Derive the four-way status from the verdicts.

    Both verified buckets require a matched candidate, so they contain only
    confirmed real works by construction. A strong title (MATCH/ABBREV) with
    a corrupted field elsewhere is verified-with-error; a weak title on a
    matched candidate is the grey zone. Non-title UNCONFIRMED fields do not
    by themselves demote a strong-title match out of verified.
    """
    if not matched:
        return Status.UNVERIFIED
    title = verdicts.get("title", FieldVerdict.ABSENT)
    if title not in (FieldVerdict.MATCH, FieldVerdict.ABBREV):
        return Status.NEEDS_HUMAN
    others = [v for k, v in verdicts.items() if k != "title"]
    if any(
        v in (FieldVerdict.CONTRADICTION, FieldVerdict.CONTAINS) for v in others
    ):
        return Status.VERIFIED_WITH_ERROR
    return Status.VERIFIED


def match_work(
    claimed_title: str,
    candidates: Sequence[ExternalWork],
    stopwords: Set[str],
    threshold: float = 0.5,
) -> Optional[ExternalWork]:
    """Accept the top-ranked candidate iff its title's content-word overlap
    with the claimed title meets the threshold; lower-ranked candidates are
    never eligible."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    if not candidates:
        return None
    top = candidates[0]
    if content_word_overlap(claimed_title, top.title, stopwords) >= threshold:
        return top
    return None


def verify_reference(
    ref: ParsedReference,
    candidates: Sequence[ExternalWork],
    stopwords: Set[str],
    overlap_threshold: float = 0.5,
    contradiction_penalty: float = -1.0,
) -> VerificationResult:
    """Verify one parsed reference against ranked external candidates.

    Only the top-ranked candidate is eligible; it is accepted when its
    title's content-word overlap with the claimed title meets the threshold.
    """
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
