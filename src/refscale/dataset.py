"""Domain data model, dataset ingestion, deduplication, and the
``observations.csv`` writer for model x topic observation cells.

The input dataset is a single JSON document with arrays ``models``,
``topics``, ``generations``, and optionally ``relevance_labels``. Reference
keys are (model_name, topic_name, reference_index), where the index is the
position of the citation in the model's split output for that topic.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .citations import ParsedReference, normalize_title
from .records import IngestError, build_record
from .verification import RelevanceLabel

__all__ = [
    "ModelSpec",
    "TopicSpec",
    "RawGeneration",
    "ObservationCell",
    "Dataset",
    "ingest_dataset",
    "dedup_cell",
    "model_quality",
    "quality_matrix",
    "cells_to_csv",
    "rounded_cells",
]

ARCHITECTURES = ("dense", "dense-cot", "moe", "moe-cot", "unknown")


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
        if self.total_params is not None and self.total_params <= 0:
            raise IngestError(f"{self.name}: total_params must be positive")
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
        if self.n_requested < 0:
            raise IngestError(f"({self.model}, {self.topic}): n_requested must be non-negative")


_LABELS = {label.value: label for label in RelevanceLabel}


@dataclass
class LabelRecord:
    """One relevance label: the reference at ``reference_index`` of a cell."""

    model: str
    topic: str
    reference_index: int
    label: str

    def __post_init__(self) -> None:
        if self.label not in _LABELS:
            raise IngestError(f"label must be YES, PARTIAL or NO, got {self.label!r}")


@dataclass
class ObservationCell:
    """One (model, topic) cell: a row of ``observations.csv``.

    ``log10_p`` and ``log10_s`` are None for a cell off the fit: a model
    without a parameter count, or a topic without works.
    """

    model: str
    topic: str
    log10_p: Optional[float]
    log10_s: Optional[float]
    quality: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.quality <= 1.0:
            raise ValueError(f"quality out of range: {self.quality}")


@dataclass
class Dataset:
    models: Dict[str, ModelSpec]
    topics: Dict[str, TopicSpec]
    generations: List[RawGeneration]
    relevance_labels: Dict[Tuple[str, str, int], RelevanceLabel]

    def cell_axes(self, model: str, topic: str, moe_convention: str = "total"
                  ) -> Tuple[Optional[float], Optional[float]]:
        """The cell's exact (log10 P, log10 S), P under ``moe_convention``;
        None for an unknown P, or for S when the topic has no works."""
        params = self.models[model].fit_params(moe_convention)
        works = self.topics[topic].works_count
        return (None if params is None else math.log10(params),
                None if works <= 0 else math.log10(works))


def ingest_dataset(path) -> Dataset:
    """Load and validate a dataset JSON file; ``_section`` checks each record."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise IngestError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise IngestError(f"{path}: expected a JSON object with models, topics "
                          f"and generations, got a {type(doc).__name__}")
    models = _section(doc, "models", ModelSpec, ("name",))
    topics = _section(doc, "topics", TopicSpec, ("name",))
    known = (("model", models), ("topic", topics))
    generations = _section(doc, "generations", RawGeneration, ("model", "topic"), known)
    labels = _section(doc, "relevance_labels", LabelRecord,
                      ("model", "topic", "reference_index"), known)
    return Dataset(models=models, topics=topics, generations=list(generations.values()),
                   relevance_labels={k: _LABELS[r.label] for k, r in labels.items()})


def _section(doc: dict, section: str, cls, key: Tuple[str, ...],
             known: Sequence[Tuple[str, Mapping]] = ()) -> Dict:
    """One top-level array's records by their ``key`` fields, in file order. A
    record is refused if it names no entry of a ``known`` (field, mapping), or
    repeats an earlier record's key."""
    recs = doc.get(section, [])
    if not isinstance(recs, list):
        raise IngestError(f"{section}: expected a list of records, "
                          f"got a {type(recs).__name__}")
    get_key = attrgetter(*key)
    records: Dict = {}
    for i, rec in enumerate(recs):
        where = f"{section}[{i}]"
        record = build_record(cls, where, rec)
        for name, entries in known:
            if getattr(record, name) not in entries:
                raise IngestError(f"{where}: unknown {name} key {getattr(record, name)!r}")
        k = get_key(record)
        if k in records:
            # Each earlier record holds one entry, so a key's position is its index.
            raise IngestError(f"{where}: duplicate {', '.join(key)} {k!r} "
                              f"(first at {section}[{list(records).index(k)}])")
        records[k] = record
    return records


def dedup_cell(refs: Sequence[ParsedReference]) -> List[int]:
    """Collapse normalized-title duplicates within one (model, topic) cell:
    the positions in ``refs`` of each normalized title's first occurrence,
    ascending. The removal count is ``len(refs) - len(result)``.
    """
    seen = set()
    kept: List[int] = []
    for pos, ref in enumerate(refs):
        key = normalize_title(ref.title)
        if key in seen:
            continue
        seen.add(key)
        kept.append(pos)
    return kept


def model_quality(cells: Iterable[ObservationCell]) -> Dict[str, float]:
    """Model-level quality: unweighted mean over that model's cells
    (equal topic weighting in the balanced design)."""
    sums: Dict[str, List[float]] = {}
    for cell in cells:
        sums.setdefault(cell.model, []).append(cell.quality)
    return {m: sum(v) / len(v) for m, v in sorted(sums.items())}


def quality_matrix(cells: Sequence[ObservationCell]) -> Tuple[List[str], List[List[str]]]:
    """The model x topic quality table as (header, rows): topics by works
    count, largest first, and an empty field where the model has no cell."""
    quality = {(c.model, c.topic): c.quality for c in cells}
    log10_s = {c.topic: c.log10_s for c in cells}
    # Name breaks ties, so the order does not follow the hash seed.
    topics = sorted(log10_s, key=lambda t: (-log10_s[t], t))
    return ["model"] + topics, [
        [model] + [f"{quality[model, t]:.10g}" if (model, t) in quality else ""
                   for t in topics]
        for model in sorted({c.model for c in cells})]


_CELL_COLUMNS = ["model", "topic", "log10_params", "log10_works", "quality"]


def cells_to_csv(cells: Sequence[ObservationCell]) -> str:
    """The text of ``observations.csv``, with the csv module's CRLF row
    endings: numbers at ``.10g``, an axis off the fit as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_CELL_COLUMNS)
    for cell in cells:
        writer.writerow([cell.model, cell.topic,
                         "" if cell.log10_p is None else f"{cell.log10_p:.10g}",
                         "" if cell.log10_s is None else f"{cell.log10_s:.10g}",
                         f"{cell.quality:.10g}"])
    return buf.getvalue()


def rounded_cells(cells: Sequence[ObservationCell]) -> List[ObservationCell]:
    """The cells with each number at the 10 significant digits of ``cells_to_csv``:
    the values ``observations.csv`` holds, which ``fit`` is computed from."""
    return [ObservationCell(c.model, c.topic, *(None if x is None else float(f"{x:.10g}")
                                               for x in (c.log10_p, c.log10_s, c.quality)))
            for c in cells]
