"""The stages from dataset to observation cells: split and parse raw
generations, collapse duplicates, verify against the metadata service, and
aggregate into cells. The CLI's commands call these and write the results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from .citations import ParseFailure, ParsedReference, parse_apa, split_reference_list
from .dataset import Dataset, ObservationCell, dedup_cell
from .openalex import FixtureMiss, OpenAlexClient
from .verification import (RefKey, RelevanceLabel, VerificationResult, relevance_value,
                           verify_reference)

__all__ = [
    "Accounting",
    "ParsedCorpus",
    "FixtureMissBatch",
    "CellRefs",
    "parse_corpus",
    "verify_corpus",
    "group_cells",
    "score_corpus",
]


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
    accounting: Accounting
    failures: List[dict] = field(default_factory=list)


@dataclass
class CellRefs:
    """One cell's analysed references, as (authenticity, label) pairs, at the
    cell's axes; an axis is None for a cell off the fit."""

    model: str
    log10_p: Optional[float]
    log10_s: Optional[float]
    refs: List[Tuple[float, RelevanceLabel]]


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
        acct.produced += len(parsed)
        kept = dedup_cell([r for _, r in parsed])
        kept_ids = {id(r) for r in kept}
        for idx, ref in parsed:
            if id(ref) in kept_ids:
                refs[(gen.model, gen.topic, idx)] = ref
        acct.dedup_removed += len(parsed) - len(kept)
        acct.analysed += len(kept)
    return ParsedCorpus(refs=refs, accounting=acct, failures=failures)


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


def group_cells(dataset: Dataset, results: Mapping[RefKey, VerificationResult],
                moe_convention: str = "total") -> Dict[Tuple[str, str], CellRefs]:
    """The analysed references of each (model, topic) with any, in key order,
    at the dataset's ``cell_axes``. Every reference needs a relevance label."""
    labels = dataset.relevance_labels
    missing = [key for key in results if key not in labels]
    if missing:
        ids = ", ".join(f"({m}, {t}, {i})" for m, t, i in sorted(missing)[:20])
        raise ValueError(f"missing relevance label for reference(s): {ids}")

    cells: Dict[Tuple[str, str], CellRefs] = {}
    for key in sorted(results):
        cell = cells.get(key[:2])
        if cell is None:
            cell = cells[key[:2]] = CellRefs(
                key[0], *dataset.cell_axes(*key[:2], moe_convention), [])
        cell.refs.append((results[key].authenticity, labels[key]))
    return cells


def score_corpus(dataset: Dataset, results: Mapping[RefKey, VerificationResult],
                 partial_weight: float = 0.50, moe_convention: str = "total"
                 ) -> Tuple[List[ObservationCell], List[Tuple[str, str]]]:
    """One cell per (model, topic) with analysed references, from
    ``group_cells``. Quality is the mean of authenticity x relevance over the
    cell's references. Returns (cells, omitted), where ``omitted`` lists the
    dataset's cells without references."""
    grouped = group_cells(dataset, results, moe_convention)
    cells: List[ObservationCell] = []
    omitted: List[Tuple[str, str]] = []
    for model, topic in sorted({(g.model, g.topic) for g in dataset.generations}):
        group = grouped.get((model, topic))
        if group is None:
            omitted.append((model, topic))
            continue
        quality = sum(a * relevance_value(label, partial_weight)
                      for a, label in group.refs) / len(group.refs)
        cells.append(ObservationCell(model, topic, group.log10_p, group.log10_s,
                                     quality=quality))
    return cells, omitted
