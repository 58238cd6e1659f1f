import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from refscale.citations import ParsedReference
from refscale.dataset import (
    Dataset,
    ModelSpec,
    ObservationCell,
    RawGeneration,
    TopicSpec,
    cells_to_csv,
    dedup_cell,
    ingest_dataset,
    model_quality,
    rounded_cells,
)
from refscale.pipeline import group_cells, score_corpus
from refscale.records import IngestError
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
                ObservationCell(model="m", topic="t", log10_p=1.0, log10_s=2.0,
                                quality=quality)


def _pref(title):
    return ParsedReference(authors=["A, B."], year=2000, title=title,
                           venue=None, identifier=None, raw=title)


class TestDedup:
    def test_first_occurrence_wins(self):
        refs = [_pref("Solar Adoption"), _pref("solar adoption!"), _pref("Other")]
        assert dedup_cell(refs) == [0, 2]

    @given(st.lists(st.sampled_from(["a", "b", "A!", "c d", "cd"]), max_size=12))
    def test_idempotent(self, titles):
        refs = [_pref(t) for t in titles]
        once = [refs[pos] for pos in dedup_cell(refs)]
        assert dedup_cell(once) == list(range(len(once)))


def _result(authenticity, status=Status.VERIFIED):
    return VerificationResult(
        verdicts={"title": FieldVerdict.MATCH},
        authenticity=authenticity,
        status=status,
        matched_candidate="W1",
    )


def _two_cell_dataset(labels=None):
    models = {"m1": ModelSpec(name="m1", family="F", params=8.0,
                              architecture="dense")}
    topics = {"t1": TopicSpec(name="t1", group="G", specificity_level=1,
                              works_count=100),
              "t2": TopicSpec(name="t2", group="G", specificity_level=2,
                              works_count=10)}
    gens = [RawGeneration(model="m1", topic="t1", raw_text="x (2000) y"),
            RawGeneration(model="m1", topic="t2", raw_text="x (2000) y")]
    return Dataset(models=models, topics=topics, generations=gens,
                   relevance_labels=labels or {})


class TestBuildObservations:
    """Observation cells as `pipeline.score_corpus` builds them."""

    def test_quality_is_mean_of_products(self):
        ds = _two_cell_dataset({("m1", "t1", 0): RelevanceLabel.YES,
                                ("m1", "t1", 1): RelevanceLabel.PARTIAL})
        results = {("m1", "t1", 0): _result(0.8), ("m1", "t1", 1): _result(0.4)}
        cells, omitted = score_corpus(ds, group_cells(ds, results), partial_weight=0.5)
        assert omitted == [("m1", "t2")]
        (cell,) = cells
        assert cell.quality == pytest.approx((0.8 * 1.0 + 0.4 * 0.5) / 2)
        assert (cell.log10_p, cell.log10_s) == (math.log10(8.0), 2.0)

    def test_axes_follow_moe_convention(self):
        ds = _two_cell_dataset({("m1", "t1", 0): RelevanceLabel.YES})
        ds.models["m1"] = ModelSpec(name="m1", family="F", params=39.0,
                                    total_params=235.0, architecture="moe")
        results = {("m1", "t1", 0): _result(0.8)}
        for convention, params in (("total", 235.0), ("active", 39.0)):
            (cell,), _ = score_corpus(ds, group_cells(ds, results, convention))
            assert cell.log10_p == math.log10(params)

    def test_missing_label_names_reference(self):
        ds = _two_cell_dataset()
        results = {("m1", "t1", 3): _result(0.8)}
        with pytest.raises(ValueError, match=r"\(m1, t1, 3\)"):
            score_corpus(ds, group_cells(ds, results))

    def test_partial_weight_monotone(self):
        ds = _two_cell_dataset({("m1", "t1", 0): RelevanceLabel.PARTIAL})
        results = {("m1", "t1", 0): _result(0.8)}
        qs = []
        for w in (0.0, 0.25, 0.5, 0.75, 1.0):
            cells, _ = score_corpus(ds, group_cells(ds, results), partial_weight=w)
            qs.append(cells[0].quality)
        assert qs == sorted(qs)

    def test_model_quality_unweighted_mean(self):
        cells = [
            ObservationCell(model="m", topic="a", log10_p=1.0, log10_s=2.0, quality=0.2),
            ObservationCell(model="m", topic="b", log10_p=1.0, log10_s=1.0, quality=0.6),
        ]
        assert model_quality(cells) == {"m": pytest.approx(0.4)}


class TestCellsCsv:
    def test_columns_and_logs(self):
        ds = _two_cell_dataset()
        cells = [ObservationCell("m1", "t1", *ds.cell_axes("m1", "t1"), quality=0.5)]
        lines = cells_to_csv(cells).split("\r\n")
        assert lines[2:] == [""]
        assert lines[0] == "model,topic,log10_params,log10_works,quality"
        fields = lines[1].split(",")
        assert fields[0] == "m1"
        assert float(fields[2]) == pytest.approx(0.903089987)
        assert float(fields[3]) == pytest.approx(2.0)

    def test_empty_axis_for_cell_off_the_fit(self):
        ds = _two_cell_dataset()
        ds.models["m1"].params = None
        ds.topics["t1"].works_count = 0
        assert ds.cell_axes("m1", "t1") == (None, None)
        cells = [ObservationCell("m1", "t1", *ds.cell_axes("m1", "t1"), quality=0.5)]
        assert cells_to_csv(cells).split("\r\n")[1] == "m1,t1,,,0.5"


# log10 of a positive finite double lies in about [-323.3, 308.3].
_AXIS = st.one_of(st.none(), st.floats(min_value=-324, max_value=309))


class TestCellsRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.builds(ObservationCell, model=st.text(), topic=st.text(),
                              log10_p=_AXIS, log10_s=_AXIS,
                              quality=st.floats(min_value=0, max_value=1)),
                    max_size=8))
    def test_load_inverts_csv_at_ten_digits(self, cells):
        # fit takes the rounded cells; they are the cells that score's
        # observations.csv reads back to.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "observations.csv"
            path.write_text(cells_to_csv(cells), encoding="utf-8", newline="")
            assert rounded_cells(cells) == oracles.load_cells(path)
        assert ([f"{c.quality:.10g}" for c in rounded_cells(cells)]
                == [f"{c.quality:.10g}" for c in cells])
