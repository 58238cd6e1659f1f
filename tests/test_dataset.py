import json

import pytest
from hypothesis import given, strategies as st

from refscale.citations import ParsedReference
from refscale.dataset import (
    Dataset,
    IngestError,
    ModelSpec,
    ObservationCell,
    RawGeneration,
    TopicSpec,
    build_observations,
    cells_to_csv,
    dedup_cell,
    ingest_dataset,
    model_quality,
)
from refscale.verification import FieldVerdict, RelevanceLabel, Status, VerificationResult


def _write_dataset(tmp_path, doc):
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(doc))
    return path


MINIMAL = {
    "models": [{"name": "m1", "family": "F", "params": 8.0, "architecture": "dense"}],
    "topics": [{"name": "t1", "group": "G", "specificity_level": 2,
                "works_count": 1000}],
    "generations": [{"model": "m1", "topic": "t1",
                     "raw_text": "A, B. (2000). Ti tle. Venue."}],
    "relevance_labels": [{"model": "m1", "topic": "t1", "reference_index": 0,
                          "label": "YES"}],
}


class TestIngest:
    def test_demo_dataset_loads(self, demo_dataset_path):
        ds = ingest_dataset(demo_dataset_path)
        assert len(ds.models) == 4
        assert len(ds.topics) == 6
        assert len(ds.generations) == 24
        assert ds.relevance_labels

    def test_minimal_roundtrip(self, tmp_path):
        ds = ingest_dataset(_write_dataset(tmp_path, MINIMAL))
        assert ds.models["m1"].params == 8.0
        assert ds.relevance_labels[("m1", "t1", 0)] is RelevanceLabel.YES

    def test_unknown_model_in_generation(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["generations"][0]["model"] = "ghost"
        with pytest.raises(IngestError, match="ghost"):
            ingest_dataset(_write_dataset(tmp_path, doc))

    def test_unknown_topic_in_label(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["relevance_labels"][0]["topic"] = "ghost"
        with pytest.raises(IngestError, match="ghost"):
            ingest_dataset(_write_dataset(tmp_path, doc))

    def test_duplicate_model_name(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["models"].append(dict(doc["models"][0]))
        with pytest.raises(IngestError, match="duplicate"):
            ingest_dataset(_write_dataset(tmp_path, doc))

    def test_bad_label_value(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["relevance_labels"][0]["label"] = "MAYBE"
        with pytest.raises(IngestError, match="label"):
            ingest_dataset(_write_dataset(tmp_path, doc))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(IngestError, match="invalid JSON"):
            ingest_dataset(path)


class TestModelSpec:
    def test_dense_rejects_total_params(self):
        with pytest.raises(IngestError):
            ModelSpec(name="m", family="F", params=8.0, total_params=30.0,
                      architecture="dense")

    def test_moe_fit_params_conventions(self):
        spec = ModelSpec(name="m", family="F", params=39.0, total_params=235.0,
                         architecture="moe")
        assert spec.fit_params("total") == 235.0
        assert spec.fit_params("active") == 39.0

    def test_dense_fit_params(self):
        spec = ModelSpec(name="m", family="F", params=8.0, architecture="dense")
        assert spec.fit_params("total") == 8.0

    def test_unknown_architecture(self):
        with pytest.raises(IngestError):
            ModelSpec(name="m", family="F", architecture="quantum")

    def test_total_below_active_rejected(self):
        with pytest.raises(IngestError):
            ModelSpec(name="m", family="F", params=100.0, total_params=50.0,
                      architecture="moe")


class TestSpecsValidation:
    def test_topic_specificity_bounds(self):
        with pytest.raises(IngestError):
            TopicSpec(name="t", group="G", specificity_level=5, works_count=1)

    def test_generation_needs_text_or_refusal(self):
        with pytest.raises(IngestError):
            RawGeneration(model="m", topic="t", raw_text="")
        gen = RawGeneration(model="m", topic="t", raw_text="", refusal=True)
        assert gen.refusal

    def test_cell_invariant(self):
        for quality in (-0.01, 1.01):
            with pytest.raises(ValueError, match="quality out of range"):
                ObservationCell(model="m", topic="t", n_analysed=5,
                                authenticity_mean=0.5, relevance_mean=0.5,
                                quality=quality)


def _pref(title):
    return ParsedReference(authors=["A, B."], year=2000, title=title,
                           venue=None, identifier=None, raw=title)


class TestDedup:
    def test_first_occurrence_wins(self):
        refs = [_pref("Solar Adoption"), _pref("solar adoption!"), _pref("Other")]
        kept = dedup_cell(refs)
        assert [r.title for r in kept] == ["Solar Adoption", "Other"]
        assert kept[0] is refs[0]

    @given(st.lists(st.sampled_from(["a", "b", "A!", "c d", "cd"]), max_size=12))
    def test_idempotent(self, titles):
        refs = [_pref(t) for t in titles]
        once = dedup_cell(refs)
        assert dedup_cell(once) == once


def _result(authenticity, status=Status.VERIFIED):
    return VerificationResult(
        verdicts={"title": FieldVerdict.MATCH},
        authenticity=authenticity,
        status=status,
        matched_candidate="W1",
    )


def _two_cell_dataset():
    models = {"m1": ModelSpec(name="m1", family="F", params=8.0,
                              architecture="dense")}
    topics = {"t1": TopicSpec(name="t1", group="G", specificity_level=1,
                              works_count=100),
              "t2": TopicSpec(name="t2", group="G", specificity_level=2,
                              works_count=10)}
    gens = [RawGeneration(model="m1", topic="t1", raw_text="x (2000) y"),
            RawGeneration(model="m1", topic="t2", raw_text="x (2000) y")]
    return Dataset(models=models, topics=topics, generations=gens)


class TestBuildObservations:
    def test_quality_is_mean_of_products(self):
        ds = _two_cell_dataset()
        results = {("m1", "t1", 0): _result(0.8), ("m1", "t1", 1): _result(0.4)}
        labels = {("m1", "t1", 0): RelevanceLabel.YES,
                  ("m1", "t1", 1): RelevanceLabel.PARTIAL}
        cells, omitted = build_observations(ds, results, relevance_labels=labels,
                                            partial_weight=0.5)
        assert omitted == [("m1", "t2")]
        (cell,) = cells
        assert cell.quality == pytest.approx((0.8 * 1.0 + 0.4 * 0.5) / 2)
        assert cell.authenticity_mean == pytest.approx(0.6)
        assert cell.relevance_mean == pytest.approx(0.75)
        assert cell.n_analysed == 2

    def test_missing_label_names_reference(self):
        ds = _two_cell_dataset()
        results = {("m1", "t1", 3): _result(0.8)}
        with pytest.raises(ValueError, match=r"\(m1, t1, 3\)"):
            build_observations(ds, results, relevance_labels={})

    def test_partial_weight_monotone(self):
        ds = _two_cell_dataset()
        results = {("m1", "t1", 0): _result(0.8)}
        labels = {("m1", "t1", 0): RelevanceLabel.PARTIAL}
        qs = []
        for w in (0.0, 0.25, 0.5, 0.75, 1.0):
            cells, _ = build_observations(ds, results, relevance_labels=labels,
                                          partial_weight=w)
            qs.append(cells[0].quality)
        assert qs == sorted(qs)

    def test_model_quality_unweighted_mean(self):
        cells = [
            ObservationCell(model="m", topic="a", n_analysed=5, authenticity_mean=0.5,
                            relevance_mean=1.0, quality=0.2),
            ObservationCell(model="m", topic="b", n_analysed=5, authenticity_mean=0.5,
                            relevance_mean=1.0, quality=0.6),
        ]
        assert model_quality(cells) == {"m": pytest.approx(0.4)}


class TestCellsCsv:
    def test_columns_and_logs(self, tmp_path):
        ds = _two_cell_dataset()
        cells = [ObservationCell(model="m1", topic="t1", n_analysed=5,
                                 authenticity_mean=0.5, relevance_mean=1.0,
                                 quality=0.5)]
        out = tmp_path / "cells.csv"
        cells_to_csv(cells, ds, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "model,topic,log10_params,log10_works,quality"
        fields = lines[1].split(",")
        assert fields[0] == "m1"
        assert float(fields[2]) == pytest.approx(0.903089987)
        assert float(fields[3]) == pytest.approx(2.0)
