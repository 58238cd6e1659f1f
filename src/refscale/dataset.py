"""Domain data model, dataset ingestion, deduplication, and aggregation of
per-reference scores into model x topic observation cells.

The input dataset is a single JSON document with arrays ``models``,
``topics``, ``generations``, and optionally ``relevance_labels``. Reference
keys are (model_name, topic_name, reference_index), where the index is the
position of the citation in the model's split output for that topic.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .citations import ParsedReference, normalize_title
from .verification import RelevanceLabel, VerificationResult, relevance_value

__all__ = [
    "ModelSpec",
    "TopicSpec",
    "RawGeneration",
    "ObservationCell",
    "Dataset",
    "IngestError",
    "ingest_dataset",
    "dedup_cell",
    "build_observations",
    "model_quality",
    "cells_to_csv",
]

ARCHITECTURES = ("dense", "dense-cot", "moe", "moe-cot", "unknown")


class IngestError(ValueError):
    """Malformed or referentially inconsistent dataset record."""


# Accepted JSON types, and their description, for each field annotation of
# the record dataclasses below. A bool is never a number.
_FIELD_TYPES = {
    "str": ((str,), "a string"),
    "int": ((int,), "an integer"),
    "bool": ((bool,), "true or false"),
    "Optional[str]": ((str, type(None)), "a string or null"),
    "Optional[float]": ((int, float, type(None)), "a number or null"),
}


def _check_type(where: str, name: str, value, annotation: str) -> None:
    kinds, text = _FIELD_TYPES[annotation]
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise IngestError(f"{where}: {name} must be {text}, got {value!r}")


@dataclass
class ModelSpec:
    """Catalog entry for one model run.

    ``params`` is in decimal billions (active parameters for MoE);
    ``total_params`` is the MoE total, absent for dense models.
    """

    name: str
    family: str
    params: Optional[float] = None
    total_params: Optional[float] = None
    architecture: str = "unknown"
    fine_tune_of: Optional[str] = None

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise IngestError(f"{self.name}: unknown architecture {self.architecture!r}")
        if self.params is not None and self.params <= 0:
            raise IngestError(f"{self.name}: params must be positive")
        if self.total_params is not None and self.params is not None:
            if self.total_params < self.params:
                raise IngestError(f"{self.name}: total_params < params")
        if self.architecture.startswith("dense") and self.total_params is not None:
            raise IngestError(f"{self.name}: dense models carry no total_params")

    def fit_params(self, moe_convention: str = "total") -> Optional[float]:
        """Parameter count (billions) used on the P axis of fits.

        MoE models default to total parameters; ``moe_convention="active"``
        switches to the active count.
        """
        if self.architecture.startswith("moe") and moe_convention == "total":
            return self.total_params if self.total_params is not None else self.params
        return self.params


@dataclass
class TopicSpec:
    """One research topic with its scholarly-work count (the content axis)."""

    name: str
    group: str
    specificity_level: int
    works_count: int

    def __post_init__(self) -> None:
        if self.works_count < 0:
            raise IngestError(f"{self.name}: works_count must be non-negative")
        if not 1 <= self.specificity_level <= 4:
            raise IngestError(f"{self.name}: specificity_level must be 1-4")


@dataclass
class RawGeneration:
    """One model's full response to the fixed prompt for one topic."""

    model: str
    topic: str
    raw_text: str
    n_requested: int = 10
    refusal: bool = False

    def __post_init__(self) -> None:
        if not self.raw_text and not self.refusal:
            raise IngestError(
                f"({self.model}, {self.topic}): empty raw_text without refusal flag"
            )


@dataclass
class ObservationCell:
    """Aggregate scores for one (model, topic) cell."""

    model: str
    topic: str
    n_requested: int
    n_produced: int
    n_analysed: int
    authenticity_mean: float
    relevance_mean: float
    quality: float

    def __post_init__(self) -> None:
        if not self.n_analysed <= self.n_produced <= self.n_requested:
            raise ValueError(
                f"({self.model}, {self.topic}): "
                "need n_analysed <= n_produced <= n_requested"
            )
        if not 0.0 <= self.quality <= 1.0:
            raise ValueError(f"quality out of range: {self.quality}")


@dataclass
class Dataset:
    models: Dict[str, ModelSpec]
    topics: Dict[str, TopicSpec]
    generations: List[RawGeneration]
    relevance_labels: Dict[Tuple[str, str, int], RelevanceLabel] = field(
        default_factory=dict
    )

    def cell_counts(self) -> Dict[Tuple[str, str], int]:
        counts: Dict[Tuple[str, str], int] = {}
        for gen in self.generations:
            counts[(gen.model, gen.topic)] = counts.get((gen.model, gen.topic), 0) + 1
        return counts


def ingest_dataset(path) -> Dataset:
    """Load and validate a dataset JSON file.

    Every generation and relevance label must reference a known model and
    topic; violations name the offending record.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise IngestError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise IngestError(f"{path}: expected a JSON object with models, topics "
                          f"and generations, got a {type(doc).__name__}")

    models: Dict[str, ModelSpec] = {}
    for where, rec in _records(doc, "models"):
        spec = _build(ModelSpec, where, rec)
        if spec.name in models:
            raise IngestError(f"{where}: duplicate model name {spec.name!r}")
        models[spec.name] = spec

    topics: Dict[str, TopicSpec] = {}
    for where, rec in _records(doc, "topics"):
        spec = _build(TopicSpec, where, rec)
        if spec.name in topics:
            raise IngestError(f"{where}: duplicate topic name {spec.name!r}")
        topics[spec.name] = spec

    generations: List[RawGeneration] = []
    for where, rec in _records(doc, "generations"):
        gen = _build(RawGeneration, where, rec)
        if gen.model not in models:
            raise IngestError(f"{where}: unknown model key {gen.model!r}")
        if gen.topic not in topics:
            raise IngestError(f"{where}: unknown topic key {gen.topic!r}")
        generations.append(gen)

    labels: Dict[Tuple[str, str, int], RelevanceLabel] = {}
    for where, rec in _records(doc, "relevance_labels"):
        model, topic = rec.get("model"), rec.get("topic")
        if not isinstance(model, str) or model not in models:
            raise IngestError(f"{where}: unknown model key {model!r}")
        if not isinstance(topic, str) or topic not in topics:
            raise IngestError(f"{where}: unknown topic key {topic!r}")
        if "reference_index" not in rec:
            raise IngestError(f"{where}: missing field 'reference_index'")
        _check_type(where, "reference_index", rec["reference_index"], "int")
        try:
            label = RelevanceLabel(rec["label"])
        except (KeyError, ValueError) as err:
            raise IngestError(f"{where}: bad label: {err}") from err
        labels[(model, topic, rec["reference_index"])] = label

    return Dataset(models=models, topics=topics, generations=generations,
                   relevance_labels=labels)


def _records(doc: dict, section: str) -> Iterable[Tuple[str, dict]]:
    """(``section[i]``, record) for each object in one top-level array."""
    recs = doc.get(section, [])
    if not isinstance(recs, list):
        raise IngestError(f"{section}: expected a list of records, "
                          f"got a {type(recs).__name__}")
    for i, rec in enumerate(recs):
        where = f"{section}[{i}]"
        if not isinstance(rec, dict):
            raise IngestError(f"{where}: expected an object, got {rec!r}")
        yield where, rec


def _build(cls, where: str, rec: dict):
    """``cls(**rec)`` after checking each field's JSON type, with every fault
    prefixed by the record's position."""
    for f in fields(cls):
        if f.name in rec:
            _check_type(where, f.name, rec[f.name], f.type)
    try:
        return cls(**rec)
    except (TypeError, IngestError) as err:
        raise IngestError(f"{where}: {err}") from err


def dedup_cell(refs: Sequence[ParsedReference]) -> List[ParsedReference]:
    """Collapse normalized-title duplicates within one (model, topic) cell.

    First occurrence wins; surviving records are returned unaltered. The
    removal count is ``len(refs) - len(result)``. Idempotent.
    """
    seen = set()
    kept: List[ParsedReference] = []
    for ref in refs:
        key = normalize_title(ref.title)
        if key in seen:
            continue
        seen.add(key)
        kept.append(ref)
    return kept


def build_observations(
    dataset: Dataset,
    results: Mapping[Tuple[str, str, int], VerificationResult],
    relevance_labels: Optional[Mapping[Tuple[str, str, int], RelevanceLabel]] = None,
    partial_weight: float = 0.50,
    produced_counts: Optional[Mapping[Tuple[str, str], int]] = None,
    n_requested: int = 10,
) -> Tuple[List[ObservationCell], List[Tuple[str, str]]]:
    """Aggregate per-reference results into one cell per (model, topic).

    ``results`` holds a VerificationResult for every analysed reference.
    Cell quality is the mean over references of authenticity x relevance.
    Returns (cells, omitted) where ``omitted`` lists cells with zero
    analysed references.
    """
    labels = dataset.relevance_labels if relevance_labels is None else relevance_labels
    missing = [key for key in results if key not in labels]
    if missing:
        ids = ", ".join(f"({m}, {t}, {i})" for m, t, i in sorted(missing)[:20])
        raise ValueError(f"missing relevance label for reference(s): {ids}")

    by_cell: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for (model, topic, idx), res in results.items():
        rel = relevance_value(labels[(model, topic, idx)], partial_weight)
        by_cell.setdefault((model, topic), []).append((res.authenticity, rel))

    cell_keys = {(g.model, g.topic) for g in dataset.generations}
    cells: List[ObservationCell] = []
    omitted: List[Tuple[str, str]] = []
    for key in sorted(cell_keys):
        pairs = by_cell.get(key, [])
        if not pairs:
            omitted.append(key)
            continue
        n = len(pairs)
        produced = produced_counts.get(key, n) if produced_counts else n
        cells.append(
            ObservationCell(
                model=key[0],
                topic=key[1],
                n_requested=max(n_requested, produced),
                n_produced=produced,
                n_analysed=n,
                authenticity_mean=sum(a for a, _ in pairs) / n,
                relevance_mean=sum(r for _, r in pairs) / n,
                quality=sum(a * r for a, r in pairs) / n,
            )
        )
    return cells, omitted


def model_quality(cells: Iterable[ObservationCell]) -> Dict[str, float]:
    """Model-level quality: unweighted mean over that model's cells
    (equal topic weighting in the balanced design)."""
    sums: Dict[str, List[float]] = {}
    for cell in cells:
        sums.setdefault(cell.model, []).append(cell.quality)
    return {m: sum(v) / len(v) for m, v in sorted(sums.items())}


def cells_to_csv(
    cells: Sequence[ObservationCell],
    dataset: Dataset,
    path,
    moe_convention: str = "total",
) -> None:
    """CSV with columns model, topic, log10_params, log10_works, quality."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "topic", "log10_params", "log10_works", "quality"])
        for cell in cells:
            params = dataset.models[cell.model].fit_params(moe_convention)
            works = dataset.topics[cell.topic].works_count
            writer.writerow(
                [
                    cell.model,
                    cell.topic,
                    "" if params is None else f"{math.log10(params):.10g}",
                    "" if works <= 0 else f"{math.log10(works):.10g}",
                    f"{cell.quality:.10g}",
                ]
            )
