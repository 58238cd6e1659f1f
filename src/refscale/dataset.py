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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .citations import ParsedReference, normalize_title
from .records import IngestError, build_record, check_type
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
    relevance_labels: Dict[Tuple[str, str, int], RelevanceLabel] = field(
        default_factory=dict
    )

    def cell_axes(self, model: str, topic: str, moe_convention: str = "total"
                  ) -> Tuple[Optional[float], Optional[float]]:
        """The cell's exact (log10 P, log10 S), P under ``moe_convention``;
        None for an unknown P, or for S when the topic has no works."""
        params = self.models[model].fit_params(moe_convention)
        works = self.topics[topic].works_count
        return (None if params is None else math.log10(params),
                None if works <= 0 else math.log10(works))


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
        spec = build_record(ModelSpec, where, rec)
        if spec.name in models:
            raise IngestError(f"{where}: duplicate model name {spec.name!r}")
        models[spec.name] = spec

    topics: Dict[str, TopicSpec] = {}
    for where, rec in _records(doc, "topics"):
        spec = build_record(TopicSpec, where, rec)
        if spec.name in topics:
            raise IngestError(f"{where}: duplicate topic name {spec.name!r}")
        topics[spec.name] = spec

    generations: List[RawGeneration] = []
    for where, rec in _records(doc, "generations"):
        gen = build_record(RawGeneration, where, rec)
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
        check_type(where, "reference_index", rec["reference_index"], "int")
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
