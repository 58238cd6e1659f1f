"""End-to-end wiring of the stages: split and parse raw generations, collapse
duplicates, verify against the metadata service, and aggregate into
observation cells. The CLI is a thin shell over these functions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from .citations import ParseFailure, ParsedReference, parse_apa, split_reference_list
from .dataset import Dataset, ObservationCell, build_observations, dedup_cell
from .openalex import FixtureMiss, OpenAlexClient
from .verification import VerificationResult, verify_reference

__all__ = [
    "Accounting",
    "ParsedCorpus",
    "FixtureMissBatch",
    "parse_corpus",
    "verify_corpus",
    "score_corpus",
]

RefKey = Tuple[str, str, int]


@dataclass
class Accounting:
    """Request-to-analysis reference counts, by stage."""

    requested: int = 0
    produced: int = 0
    analysed: int = 0
    parse_failures: int = 0
    dedup_removed: int = 0


@dataclass
class ParsedCorpus:
    """Analysed (parsed and deduplicated) references keyed by
    (model, topic, index), where the index is the citation's position in the
    model's split output."""

    refs: Dict[RefKey, ParsedReference]
    produced_counts: Dict[Tuple[str, str], int]
    accounting: Accounting
    failures: List[dict] = field(default_factory=list)


class FixtureMissBatch(RuntimeError):
    """All fixture misses for a verification run, reported together."""

    def __init__(self, misses: List[FixtureMiss]):
        lines = "\n".join(
            f"  {m.fingerprint}  {m.endpoint} {m.params!r}" for m in misses
        )
        super().__init__(f"{len(misses)} fixture miss(es):\n{lines}")
        self.misses = misses


def parse_corpus(dataset: Dataset) -> ParsedCorpus:
    """Split, parse, and deduplicate every generation in the dataset."""
    refs: Dict[RefKey, ParsedReference] = {}
    produced_counts: Dict[Tuple[str, str], int] = {}
    acct = Accounting()
    failures: List[dict] = []
    for gen in dataset.generations:
        acct.requested += gen.n_requested
        entries = split_reference_list(gen.raw_text)
        parsed: List[Tuple[int, ParsedReference]] = []
        for idx, entry in enumerate(entries):
            try:
                parsed.append((idx, parse_apa(entry)))
            except ParseFailure as err:
                acct.parse_failures += 1
                failures.append(
                    {"model": gen.model, "topic": gen.topic, "index": idx,
                     "raw": err.raw, "reason": err.reason}
                )
        produced_counts[(gen.model, gen.topic)] = len(parsed)
        acct.produced += len(parsed)
        kept = dedup_cell([r for _, r in parsed])
        kept_ids = {id(r) for r in kept}
        for idx, ref in parsed:
            if id(ref) in kept_ids:
                refs[(gen.model, gen.topic, idx)] = ref
        acct.dedup_removed += len(parsed) - len(kept)
        acct.analysed += len(kept)
    return ParsedCorpus(
        refs=refs, produced_counts=produced_counts,
        accounting=acct, failures=failures,
    )


def verify_corpus(
    corpus: ParsedCorpus,
    client: OpenAlexClient,
    stopwords: Set[str],
    overlap_threshold: float = 0.5,
    contradiction_penalty: float = -1.0,
) -> Dict[RefKey, VerificationResult]:
    """Verify every analysed reference.

    Only the top-ranked candidate is ever eligible (see ``match_work``), so
    only it is requested. In offline mode, fixture misses are collected
    across the whole corpus and raised as one batch so the operator sees
    every missing fingerprint at once.
    """
    results: Dict[RefKey, VerificationResult] = {}
    misses: List[FixtureMiss] = []
    seen_fingerprints: Set[str] = set()
    for key in sorted(corpus.refs):
        ref = corpus.refs[key]
        try:
            candidates = client.search_candidates(ref.title, max_n=1)
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


def score_corpus(
    dataset: Dataset,
    corpus: ParsedCorpus,
    results: Mapping[RefKey, VerificationResult],
    partial_weight: float = 0.50,
) -> Tuple[List[ObservationCell], List[Tuple[str, str]]]:
    """Aggregate verification results into observation cells."""
    return build_observations(
        dataset,
        results,
        partial_weight=partial_weight,
        produced_counts=corpus.produced_counts,
    )
