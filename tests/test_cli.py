import csv
import json
import math
import os
import pkgutil
import shutil
import stat
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import refscale
from refscale import cli, pipeline, stats
from refscale.cli import main
from refscale.openalex import FixtureCache

from conftest import DEMO_DATASET, DEMO_FIXTURES, REPO
from test_golden import PATHS, set_up


def _args(out, *extra):
    return ["--dataset", str(DEMO_DATASET), "--fixtures", str(DEMO_FIXTURES),
            "--output-dir", str(out), *extra]


def _top_with(**fields):
    """A fixture corruption that sets fields of the entry's top-ranked result."""
    return lambda entry: json.dumps({**entry, "body": {"results": [
        {**entry["body"]["results"][0], **fields}]}})


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    assert main(["verify", *_args(out)]) == 0
    assert main(["score", *_args(out)]) == 0
    assert main(["fit", *_args(out)]) == 0
    assert main(["theory", *_args(out)]) == 0
    assert main(["citetail", *_args(out), "--min-n", "10"]) == 0
    assert main(["report", *_args(out), "--min-n", "10"]) == 0
    return out


class TestPipelineArtifacts:
    def test_expected_files(self, pipeline_out):
        expected = [
            "verification.jsonl", "accounting.json", "parse_failures.jsonl",
            "observations.csv", "model_quality.csv", "fit_report.json",
            "per_model_spearman.csv", "regimes.csv", "sigmoid_curve.csv",
            "partial_weight_sweep.csv", "theory_report.json", "sim_sweep.csv",
            "citation_gradient.csv", "citetail_report.json",
            "quality_matrix.csv", "summary.txt",
        ]
        for name in expected:
            assert (pipeline_out / name).exists(), name

    def test_accounting_arithmetic(self, pipeline_out):
        acct = json.loads((pipeline_out / "accounting.json").read_text())["accounting"]
        assert acct["analysed"] == (acct["produced"] - acct["parse_failures"]
                                    - acct["dedup_removed"])
        assert acct["produced"] <= acct["requested"]

    def test_json_outputs_stamped(self, pipeline_out):
        for name in ("accounting.json", "fit_report.json", "theory_report.json"):
            doc = json.loads((pipeline_out / name).read_text())
            assert set(doc["meta"]) == {"config_hash", "seed"}
            assert len(doc["meta"]["config_hash"]) == 16

    def test_csv_outputs_stamped(self, pipeline_out):
        for name in ("model_quality.csv", "regimes.csv", "citation_gradient.csv"):
            first = (pipeline_out / name).read_text().splitlines()[0]
            assert first.startswith("# config=") and "seed=" in first

    def test_fit_report_shape(self, pipeline_out):
        doc = json.loads((pipeline_out / "fit_report.json").read_text())
        sig = doc["sigmoid"]
        assert sig["converged"] is True
        assert 0.0 < sig["r2"] <= 1.0
        assert doc["incremental_f"]["f"] > 0
        assert doc["n_cells_fit"] == 23  # one refusal cell omitted

    def test_refusal_cell_omitted(self, pipeline_out):
        doc = json.loads((pipeline_out / "omitted_cells.json").read_text())
        assert doc["omitted"] == [["nano-1b", "Biometric voter registration"]]

    def test_gradient_is_negative_on_demo(self, pipeline_out):
        doc = json.loads((pipeline_out / "citetail_report.json").read_text())
        assert doc["weighted_fit"]["coefficients"][1] < 0
        assert doc["spearman_rho"] < 0

    def test_quality_increases_with_size_on_demo(self, pipeline_out):
        lines = (pipeline_out / "model_quality.csv").read_text().splitlines()[2:]
        quality = {name: float(q) for name, q in
                   (line.split(",") for line in lines)}
        assert quality["nano-1b"] < quality["mid-8b"] < quality["big-70b"] \
            < quality["huge-405b"]


class TestExitCodes:
    def test_missing_required_config(self, tmp_path):
        assert main(["verify", "--output-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command", ["ingest", "verify", "score", "fit", "citetail",
                                         "report"])
    def test_missing_dataset_is_a_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--fixtures", str(DEMO_FIXTURES), "--output-dir", str(out)]) == 1
        assert "missing required config value(s): dataset" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_without_fixtures_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["verify", "--dataset", str(DEMO_DATASET), "--output-dir", str(out)]) == 1
        assert "missing required config value(s): fixtures" in capsys.readouterr().err
        assert not out.exists()

    def test_theory_needs_only_the_output_dir(self, tmp_path, pipeline_out):
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(pipeline_out / "fit_report.json", out)
        assert main(["theory", "--output-dir", str(out)]) == 0
        doc, ref = (json.loads((d / "theory_report.json").read_text())
                    for d in (out, pipeline_out))
        assert {**doc, "meta": None} == {**ref, "meta": None}

    def test_unknown_flag(self, tmp_path):
        assert main(["verify", *_args(tmp_path), "--nonsense"]) == 1

    def test_unknown_command(self, tmp_path):
        assert main(["nonsense", *_args(tmp_path)]) == 1

    def test_fixture_miss_exit_code(self, tmp_path):
        empty = tmp_path / "no_fixtures"
        empty.mkdir()
        code = main(["verify", "--dataset", str(DEMO_DATASET),
                     "--fixtures", str(empty),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3

    def test_bad_dataset_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(["verify", "--dataset", str(bad),
                     "--fixtures", str(DEMO_FIXTURES),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("command, missing", [
        ("score", "verification.jsonl"),
        ("fit", "verification.jsonl"),
        ("theory", "fit_report.json"),
        ("report", "verification.jsonl"),
    ], ids=["score", "fit", "theory", "report"])
    def test_stage_before_upstream(self, tmp_path, capsys, command, missing):
        out = tmp_path / "fresh"
        assert main([command, *_args(out)]) == 2
        err = capsys.readouterr().err
        assert str(out / missing) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag", [
        ("verify", "--dataset"),
        ("zipf", "--counts"),
    ])
    def test_missing_input_file(self, tmp_path, capsys, command, flag):
        missing = str(tmp_path / "no-such-file")
        args = _args(tmp_path / "out")
        if flag in args:
            args[args.index(flag) + 1] = missing
        else:
            args += [flag, missing]
        assert main([command, *args]) == 2
        assert missing in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("verify", "--dataset"),
        ("zipf", "--counts"),
        ("verify", "--config"),
    ])
    def test_input_path_is_a_directory(self, tmp_path, capsys, command, flag):
        directory = tmp_path / "a-directory"
        directory.mkdir()
        args = _args(tmp_path / "out")
        if flag in args:
            args[args.index(flag) + 1] = str(directory)
        else:
            args += [flag, str(directory)]
        assert main([command, *args]) == 2
        err = capsys.readouterr().err
        assert str(directory) in err
        assert "Traceback" not in err

    def test_fixture_entry_is_a_directory(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(DEMO_FIXTURES, fixtures)
        path = next(p for p in sorted(fixtures.glob("*.json"))
                    if json.loads(p.read_text())["request"]["endpoint"] == "works_search")
        path.unlink()
        path.mkdir()
        code = main(["verify", "--dataset", str(DEMO_DATASET),
                     "--fixtures", str(fixtures), "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert f"corrupt fixture {path}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, below", [
        ("ingest", ""), ("verify", ""), ("report", ""), ("zipf", ""), ("verify", "out")])
    def test_output_dir_is_a_file(self, tmp_path, capsys, monkeypatch, command, below):
        outfile = tmp_path / "outfile"
        outfile.write_text("")
        counts = tmp_path / "counts.csv"
        counts.write_text("concept,count\nc1,100\nc2,50\nc3,33\nc4,25\n")

        def untouched(*args):
            raise AssertionError("an input was read before the output path was checked")

        monkeypatch.setattr(cli, "ingest_dataset", untouched)
        monkeypatch.setattr(cli, "parse_corpus", untouched)
        extra = ["--counts", str(counts)] if command == "zipf" else []
        assert main([command, *_args(outfile / below), *extra]) == 2
        assert capsys.readouterr().err == (
            f"error: output_dir {outfile / below}: {outfile} is not a directory\n")

    def test_fixtures_path_is_a_file(self, tmp_path, capsys, monkeypatch):
        lookups = []
        monkeypatch.setattr(FixtureCache, "get",
                            lambda self, fingerprint: lookups.append(fingerprint))
        code = main(["verify", "--dataset", str(DEMO_DATASET),
                     "--fixtures", str(DEMO_DATASET), "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: fixture path {DEMO_DATASET} is not a directory\n")
        assert lookups == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("corrupt", [
        lambda entry: json.dumps(entry)[:7],
        lambda entry: json.dumps({k: v for k, v in entry.items() if k != "body"}),
        lambda entry: json.dumps({**entry, "body": {}}),
        lambda entry: json.dumps({**entry, "body": {"results": [{"title": "x"}]}}),
        _top_with(title=5),
        _top_with(authors=[1, 2]),
        _top_with(authors="Okafor, M."),
        _top_with(year="n.d."),
        _top_with(cited_by_count=663.9),
        _top_with(cited_by_count=True),
        _top_with(cited_by_count="663"),
        _top_with(venue=7),
        _top_with(doi=["x"]),
    ], ids=["truncated", "no-body", "no-results", "top-result-without-id",
            "title-number", "authors-numbers", "authors-string", "year-string",
            "cited-by-count-float", "cited-by-count-bool", "cited-by-count-string",
            "venue-number", "doi-list"])
    def test_corrupt_fixture_exit_code(self, tmp_path, capsys, corrupt):
        self._verify_with_corrupt_fixture(tmp_path, capsys, corrupt)

    def test_top_result_not_an_object(self, tmp_path, capsys):
        err = self._verify_with_corrupt_fixture(
            tmp_path, capsys,
            lambda entry: json.dumps({**entry, "body": {"results": ["identity"]}}))
        assert "results[0]: must be an object, got str" in err

    @staticmethod
    def _verify_with_corrupt_fixture(tmp_path, capsys, corrupt) -> str:
        """Run verify with the first non-empty works_search fixture rewritten
        by ``corrupt``; check exit 3 naming that fixture and return stderr."""
        fixtures = tmp_path / "fixtures"
        shutil.copytree(DEMO_FIXTURES, fixtures)
        path, entry = next((p, e) for p in sorted(fixtures.glob("*.json"))
                           for e in [json.loads(p.read_text())]
                           if e["request"]["endpoint"] == "works_search"
                           and e["body"]["results"])
        path.write_text(corrupt(entry))
        code = main(["verify", "--dataset", str(DEMO_DATASET),
                     "--fixtures", str(fixtures),
                     "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert path.name in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "verification.jsonl").exists()
        return err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [doc], "expected a JSON object with models, topics and "
         "generations, got a list"),
        (lambda doc: {**doc, "relevance_labels": [
            {k: v for k, v in doc["relevance_labels"][0].items()
             if k != "reference_index"}]},
         "relevance_labels[0]: missing field 'reference_index'"),
        (lambda doc: {**doc, "relevance_labels": [
            {**doc["relevance_labels"][0], "reference_index": "3"}]},
         "relevance_labels[0]: reference_index must be an integer, got '3'"),
        (lambda doc: {**doc, "models": [{**doc["models"][0], "params": "seven"},
                                        *doc["models"][1:]]},
         "models[0]: params must be a number or null, got 'seven'"),
        (lambda doc: {**doc, "models": [{**doc["models"][0], "params": math.nan},
                                        *doc["models"][1:]]},
         "models[0]: params must be a number or null, got nan"),
        (lambda doc: {**doc, "models": [{**doc["models"][0], "params": math.inf},
                                        *doc["models"][1:]]},
         "models[0]: params must be a number or null, got inf"),
        (lambda doc: {**doc, "models": {}},
         "models: expected a list of records, got a dict"),
        (lambda doc: {**doc, "topics": [None]},
         "topics[0]: must be an object, got NoneType"),
        (lambda doc: {**doc, "generations": [
            {**doc["generations"][0], "model": ["nano-1b"]}]},
         "generations[0]: model must be a string, got ['nano-1b']"),
        (lambda doc: {**doc, "generations": [
            {**doc["generations"][0], "n_requested": -7}, *doc["generations"][1:]]},
         "generations[0]: (nano-1b, Climate change): n_requested must be non-negative"),
        (lambda doc: {**doc, "models": [
            {"name": "nano-1b", "family": "Alpha", "architecture": "moe",
             "total_params": -5}, *doc["models"][1:]]},
         "models[0]: nano-1b: total_params must be positive"),
        (lambda doc: {**doc, "models": [{**doc["models"][0], "params": 0},
                                        *doc["models"][1:]]},
         "models[0]: nano-1b: params must be positive"),
        (lambda doc: {**doc, "models": [{k: v for k, v in doc["models"][0].items()
                                         if k != "family"}, *doc["models"][1:]]},
         "models[0]: missing field 'family'"),
        (lambda doc: {**doc, "topics": [{**doc["topics"][0], "works_count": -1},
                                        *doc["topics"][1:]]},
         "topics[0]: Climate change: works_count must be non-negative"),
        (lambda doc: {**doc, "topics": [*doc["topics"], doc["topics"][0]]},
         "topics[6]: duplicate name 'Climate change' (first at topics[0])"),
        (lambda doc: {**doc, "generations": [
            {**doc["generations"][0], "topic": "Ghost topic"}, *doc["generations"][1:]]},
         "generations[0]: unknown topic key 'Ghost topic'"),
        (lambda doc: {**doc, "generations": [*doc["generations"], doc["generations"][0]]},
         "generations[24]: duplicate model, topic ('nano-1b', 'Climate change') "
         "(first at generations[0])"),
        (lambda doc: {**doc, "relevance_labels": [
            {**doc["relevance_labels"][0], "model": "ghost-9b"}]},
         "relevance_labels[0]: unknown model key 'ghost-9b'"),
        (lambda doc: {**doc, "relevance_labels": [
            *doc["relevance_labels"], {**doc["relevance_labels"][1], "label": "NO"}]},
         "relevance_labels[230]: duplicate model, topic, reference_index "
         "('nano-1b', 'Climate change', 1) (first at relevance_labels[1])"),
        (lambda doc: {**doc, "relevance_labels": [
            {**doc["relevance_labels"][0], "label": "MAYBE"}]},
         "relevance_labels[0]: label must be YES, PARTIAL or NO, got 'MAYBE'"),
    ], ids=["top-level-list", "label-without-index", "label-index-string",
            "params-string", "params-nan", "params-infinity", "models-object",
            "topic-null", "model-list", "n-requested-negative", "total-params-negative",
            "params-zero", "model-without-family", "works-count-negative", "duplicate-topic",
            "generation-unknown-topic", "duplicate-generation", "label-unknown-model",
            "duplicate-label", "label-value"])
    def test_malformed_dataset(self, tmp_path, capsys, edit, message):
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps(edit(json.loads(DEMO_DATASET.read_text()))))
        code = main(["verify", "--dataset", str(path),
                     "--fixtures", str(DEMO_FIXTURES),
                     "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda rec: {k: v for k, v in rec.items() if k != "cited_by_count"},
         "KeyError('cited_by_count')"),
        (lambda rec: json.dumps(rec)[:20], "JSONDecodeError"),
        (lambda rec: {**rec, "verdicts": None}, "verdicts must map title"),
        (lambda rec: {**rec, "verdicts": {**rec["verdicts"], "title": "close"}},
         "verdicts: unknown verdict"),
        (lambda rec: {**rec, "status": "verified-ish"},
         "status: unknown value 'verified-ish'"),
        (lambda rec: {**rec, "authenticity": "0.5"},
         "authenticity must be a number, got '0.5'"),
        (lambda rec: {**rec, "authenticity": True},
         "authenticity must be a number, got True"),
        (lambda rec: {**rec, "authenticity": math.nan},
         "authenticity must be a number, got nan"),
        (lambda rec: {**rec, "authenticity": -math.inf},
         "authenticity must be a number, got -inf"),
        (lambda rec: {**rec, "authenticity": 1.8},
         "authenticity must be in [0, 1], got 1.8"),
        (lambda rec: {**rec, "authenticity": -0.5},
         "authenticity must be in [0, 1], got -0.5"),
        (lambda rec: {**rec, "cited_by_count": "12"},
         "cited_by_count must be an integer or null, got '12'"),
        (lambda rec: {**rec, "matched_candidate": 7},
         "matched_candidate must be a string or null, got 7"),
        (lambda rec: {**rec, "model": 5}, "model must be a string, got 5"),
        (lambda rec: {**rec, "topic": None}, "topic must be a string, got None"),
        (lambda rec: {**rec, "index": "0"}, "index must be an integer, got '0'"),
        (lambda rec: {**rec, "index": 0.0}, "index must be an integer, got 0.0"),
        (lambda rec: {**rec, "index": True}, "index must be an integer, got True"),
    ], ids=["no-cited-by-count", "malformed", "verdicts-null", "unknown-verdict",
            "unknown-status", "authenticity-string", "authenticity-bool",
            "authenticity-nan", "authenticity-infinity", "authenticity-above-1",
            "authenticity-below-0",
            "cited-by-count-string", "matched-candidate-number", "model-number",
            "topic-null", "index-string", "index-float", "index-bool"])
    def test_unreadable_verification_record(self, tmp_path, capsys, edit, message):
        out = tmp_path / "out"
        assert main(["verify", *_args(out)]) == 0
        path = out / "verification.jsonl"
        lines = path.read_text().splitlines()
        edited = edit(json.loads(lines[1]))
        lines[1] = edited if isinstance(edited, str) else json.dumps(edited)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["citetail", *_args(out), "--min-n", "10"]) == 2
        err = capsys.readouterr().err
        assert f"{path}: line 2" in err
        assert message in err
        assert "re-run verify" in err


    def test_observations_without_works_count(self, tmp_path, capsys):
        doc = json.loads(DEMO_DATASET.read_text())
        topic = doc["topics"][2]["name"]
        doc["topics"][2]["works_count"] = 0
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(doc))
        args = ["--dataset", str(dataset), "--fixtures", str(DEMO_FIXTURES),
                "--output-dir", str(tmp_path / "out")]
        assert main(["verify", *args]) == 0
        capsys.readouterr()
        assert main(["fit", *args]) == 2
        err = capsys.readouterr().err
        assert f"cells missing works count for topic(s): {topic}\n" in err
        assert not (tmp_path / "out" / "fit_report.json").exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: {**doc, "sigmoid": [1, 2]},
        lambda doc: {k: v for k, v in doc.items() if k != "sigmoid"},
        lambda doc: {**doc, "sigmoid": {k: v for k, v in doc["sigmoid"].items()
                                        if k != "rss"}},
        lambda doc: {**doc, "sigmoid": {**doc["sigmoid"], "delta": 0.0}},
        lambda doc: {**doc, "sigmoid": {**doc["sigmoid"], "alpha": "1.2"}},
        lambda doc: {**doc, "sigmoid": {**doc["sigmoid"], "n": 23.5}},
    ], ids=["sigmoid-list", "no-sigmoid", "no-rss", "extra-key", "alpha-string",
            "n-float"])
    def test_malformed_fit_report(self, tmp_path, capsys, pipeline_out, edit):
        out = tmp_path / "out"
        out.mkdir()
        path = out / "fit_report.json"
        path.write_text(json.dumps(edit(json.loads(
            (pipeline_out / path.name).read_text()))))
        assert main(["theory", *_args(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "re-run fit" in err
        assert "Traceback" not in err

    def test_fit_report_with_nan_standard_errors(self, tmp_path, pipeline_out):
        # fit_sigmoid writes NaN standard errors where the covariance is
        # singular; the report stays readable.
        out = tmp_path / "out"
        out.mkdir()
        doc = json.loads((pipeline_out / "fit_report.json").read_text())
        doc["sigmoid"].update(se_alpha=math.nan, se_beta=math.nan, se_gamma=math.nan)
        (out / "fit_report.json").write_text(json.dumps(doc))
        assert main(["theory", *_args(out)]) == 0


class TestTheoryRefusals:
    @pytest.mark.parametrize("field, value, message", [
        ("converged", False, "fit did not converge (converged is false)"),
        ("alpha", -0.5, "requires a positive size slope (alpha = -0.5)"),
        ("beta", -0.25, "requires a positive content slope (beta = -0.25)"),
        ("alpha", 1e-6, "size slope too small for a finite size (alpha = 1e-06)"),
        ("alpha", 5e-324, "size slope too small for a finite size (alpha = 4.94066e-324)"),
        ("beta", 1e-310, "content slope too small for a finite threshold (beta = 1e-310)"),
    ])
    def test_theory_names_fit_report_and_field(self, tmp_path, capsys, pipeline_out,
                                               field, value, message):
        out = tmp_path / "out"
        out.mkdir()
        path = out / "fit_report.json"
        doc = json.loads((pipeline_out / path.name).read_text())
        doc["sigmoid"][field] = value
        path.write_text(json.dumps(doc))
        assert main(["theory", *_args(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: {message}" in err
        assert "Traceback" not in err
        assert not (out / "theory_report.json").exists()

    def test_report_names_fit_report(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        assert main(["verify", *_args(out)]) == 0
        real = stats.fit_sigmoid
        monkeypatch.setattr(stats, "fit_sigmoid",
                            lambda *a, **k: replace(real(*a, **k), converged=False))
        capsys.readouterr()
        assert main(["report", *_args(out), "--min-n", "10"]) == 2
        err = capsys.readouterr().err
        assert f"error: {out / 'fit_report.json'}: fit did not converge" in err
        assert "Traceback" not in err


class TestHashSeed:
    def test_tied_work_counts_give_one_bundle(self, tmp_path):
        # Two topics with the same works count: under the two hash seeds
        # below, their set order differs, and quality_matrix.csv must not.
        set_up("demo", tmp_path)
        path = tmp_path / "dataset.json"
        doc = json.loads(path.read_text())
        for topic in doc["topics"]:
            if topic["name"] == "Malaria prevention":
                topic["works_count"] = 48258  # as "Democratic elections"
        path.write_text(json.dumps(doc))
        code = (
            "import refscale.cli\n"
            f"assert refscale.cli.main({['verify', *PATHS]!r}) == 0\n"
            f"assert refscale.cli.main({['report', *PATHS, '--min-n', '10']!r}) == 0\n"
        )
        bundles = []
        for seed in ("1", "3"):
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                                  env={**_src_env(), "PYTHONHASHSEED": seed},
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            bundles.append({p.name: p.read_bytes()
                            for p in sorted((tmp_path / "out").iterdir())})
        assert bundles[0] == bundles[1]

class TestOnePass:
    # The loaders RunContext calls. build_record reads fit_report.json's
    # sigmoid, and the config, so its calls are counted per record type.
    LOADERS = ("ingest_dataset", "parse_corpus", "results_from_jsonl", "score_corpus",
               "build_record", "group_cells")

    def test_report_loads_each_input_once(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert main(["verify", *_args(out)]) == 0
        calls = Counter()
        for name in self.LOADERS:
            def counted(*args, _name=name, _real=getattr(cli, name), **kwargs):
                calls[f"{_name}({args[0].__name__})" if _name == "build_record"
                      else _name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        # A grouping inside the pipeline module is counted too.
        monkeypatch.setattr(pipeline, "group_cells", cli.group_cells)
        assert main(["report", *_args(out), "--min-n", "10"]) == 0
        # No parse_corpus: scoring needs only the dataset and the results,
        # grouped once for scoring and the sweep, and scored once for score and fit.
        assert calls == {"ingest_dataset": 1, "results_from_jsonl": 1,
                         "score_corpus": 1, "build_record(SigmoidFit)": 1,
                         "build_record(RunConfig)": 1, "group_cells": 1}


FIT_ARTIFACTS = ("fit_report.json", "per_model_spearman.csv", "regimes.csv",
                 "sigmoid_curve.csv", "partial_weight_sweep.csv")


def _big_70b_moe(doc):
    doc["models"][2].update(architecture="moe", total_params=235.0)
    return doc


class TestFitScoresItsOwnCells:
    """fit scores the cells it fits from its own config, so its artifacts do
    not depend on whether score ran before it, or with what config."""

    @pytest.mark.parametrize("edit, score_flags", [
        (lambda doc: doc, ["--partial-weight", "0.0"]),
        (_big_70b_moe, ["--moe-convention", "active"]),
    ], ids=["partial-weight", "moe-convention"])
    def test_fit_does_not_depend_on_score(self, tmp_path, monkeypatch, edit, score_flags):
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(edit(json.loads(DEMO_DATASET.read_text()))))
        # The same relative output directory in each run directory, so that
        # every run has the same config hash.
        args = ["--dataset", str(dataset), "--fixtures", str(DEMO_FIXTURES),
                "--output-dir", "out"]
        bundles = {}
        for run, score in (("other-score", ["score", *score_flags]),
                           ("default-score", ["score"]), ("no-score", None)):
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            assert main(["verify", *args]) == 0
            if score:
                assert main([*score, *args]) == 0
            assert main(["fit", *args]) == 0
            bundles[run] = {name: Path("out", name).read_bytes() for name in FIT_ARTIFACTS}
        assert bundles["other-score"] == bundles["default-score"] == bundles["no-score"]

        r2 = json.loads(bundles["no-score"]["fit_report.json"])["sigmoid"]["r2"]
        rows = list(csv.reader(bundles["no-score"]["partial_weight_sweep.csv"]
                               .decode().splitlines()[1:]))
        assert [f"{r2:.8g}"] == [row[1] for row in rows if row[0] == "0.5"]


    @pytest.mark.parametrize("params, message", [
        (None, "error: no cell is on the fit: no model has a parameter count"),
        (8.0, "error: the 23 cell(s) on the fit share one P (log10 P = 0.90309); "
              "the fit needs two distinct values"),
    ], ids=["no-params", "equal-params"])
    def test_population_that_cannot_be_fitted(self, tmp_path, capsys, params, message):
        doc = json.loads(DEMO_DATASET.read_text())
        for model in doc["models"]:
            model.update(params=params, architecture="dense")
            model.pop("total_params", None)
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(doc))
        out = tmp_path / "out"
        args = ["--dataset", str(dataset), "--fixtures", str(DEMO_FIXTURES),
                "--output-dir", str(out)]
        assert main(["verify", *args]) == 0
        capsys.readouterr()
        assert main(["fit", *args]) == 2
        assert message in capsys.readouterr().err
        assert not any((out / name).exists() for name in FIT_ARTIFACTS)


class TestAtomicArtifacts:
    def test_mode_follows_umask(self, tmp_path, umask):
        out = tmp_path / "out"
        assert main(["verify", *_args(out)]) == 0
        assert main(["score", *_args(out)]) == 0
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
        assert "observations.csv" in modes
        assert modes == dict.fromkeys(modes, 0o666 & ~umask)

    def test_leftover_tmp_directory(self, tmp_path):
        out = tmp_path / "out"
        for name in ("verification.jsonl.tmp", "accounting.json.tmp"):
            (out / name).mkdir(parents=True)
        assert main(["verify", *_args(out)]) == 0
        assert (out / "accounting.json").is_file()


class TestConfigFile:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": str(DEMO_DATASET),
            "fixtures": str(DEMO_FIXTURES),
            "output_dir": str(tmp_path / "a"),
            "seed": 5,
        }))
        out_b = tmp_path / "b"
        assert main(["ingest", "--config", str(cfg),
                     "--output-dir", str(out_b)]) == 0
        doc = json.loads((out_b / "ingest_report.json").read_text())
        assert doc["meta"]["seed"] == 5
        assert doc["n_models"] == 4


    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "expected a JSON object of config fields, got a list"),
        ('{"datasett": "dataset.json"}', "unexpected keyword argument 'datasett'"),
        ('{"seed": "3"}', "seed must be an integer, got '3'"),
        ('{"offline": "yes"}', "offline must be true or false, got 'yes'"),
        ('{"partial_weight": null}', "partial_weight must be a number, got None"),
        ("{broken", "invalid JSON"),
        ('{"overlap_threshold": 2}', "overlap_threshold must be in [0, 1]"),
        ('{"overlap_threshold": -0.1}', "overlap_threshold must be in [0, 1]"),
        ('{"contradiction_penalty": 5}', "contradiction_penalty must be at most 0"),
        ('{"seed": -1}', "seed must be at least 0"),
        ('{"partial_weight": 2}', "partial_weight must be in [0, 1]"),
        ('{"moe_convention": "median"}', "moe_convention must be 'total' or 'active'"),
    ], ids=["list", "unknown-key", "seed-string", "offline-string",
            "partial-weight-null", "not-json", "overlap-threshold-above-1",
            "overlap-threshold-below-0", "contradiction-penalty-positive",
            "seed-negative", "partial-weight-above-1", "moe-convention-median"])
    def test_malformed_config_file(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(cfg), *_args(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: " in err and message in err
        assert "Traceback" not in err
        assert not out.exists()


class TestStaleArtifacts:
    """A rerun that writes less than an earlier run leaves no file of that run
    beside its own, under its stamp."""

    def _demo(self, tmp_path):
        doc = json.loads(DEMO_DATASET.read_text())
        (tmp_path / "dataset.json").write_text(json.dumps(doc))
        return doc, ["--dataset", str(tmp_path / "dataset.json"),
                     "--fixtures", str(DEMO_FIXTURES),
                     "--output-dir", str(tmp_path / "out")]

    def test_score_without_omitted_cells_removes_earlier_list(self, tmp_path, capsys):
        doc, args = self._demo(tmp_path)
        assert main(["verify", *args]) == 0
        assert main(["score", *args]) == 0
        omitted = tmp_path / "out" / "omitted_cells.json"
        assert json.loads(omitted.read_text())["omitted"] == [
            ["nano-1b", "Biometric voter registration"]]
        doc["generations"] = [g for g in doc["generations"] if not g.get("refusal")]
        (tmp_path / "dataset.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["score", *args]) == 0
        assert "(0 omitted)" in capsys.readouterr().out
        assert not omitted.exists()

    def test_fit_with_missing_label_exits_2_before_writing(self, tmp_path, capsys):
        doc, args = self._demo(tmp_path)
        for command in ("verify", "score", "fit"):
            assert main([command, *args]) == 0
        out = tmp_path / "out"
        last = json.loads((out / "verification.jsonl").read_text().splitlines()[-1])
        key = (last["model"], last["topic"], last["index"])
        doc["relevance_labels"] = [
            r for r in doc["relevance_labels"]
            if (r["model"], r["topic"], r["reference_index"]) != key]
        (tmp_path / "dataset.json").write_text(json.dumps(doc))
        before = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        capsys.readouterr()
        assert main(["fit", *args, "--seed", "5"]) == 2
        err = capsys.readouterr().err
        assert "missing relevance label for reference(s): ({}, {}, {})".format(*key) in err
        assert {p.name: p.read_bytes() for p in sorted(out.iterdir())} == before


class TestOneWriter:
    def test_every_output_file_passes_through_write_artifacts(self, tmp_path, monkeypatch):
        written = set()

        def recording(config, artifacts, _real=cli.write_artifacts):
            written.update(name for name, content in artifacts.items() if content is not None)
            return _real(config, artifacts)

        monkeypatch.setattr(cli, "write_artifacts", recording)
        out = tmp_path / "out"
        for command in ("verify", "score", "fit", "theory"):
            assert main([command, *_args(out)]) == 0
        for command in ("citetail", "report"):
            assert main([command, *_args(out), "--min-n", "10"]) == 0
        assert {p.name for p in out.iterdir()} == written


class TestCitetailErrors:
    def test_zero_median_fails_citetail_and_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["verify", *_args(out)]) == 0
        path = out / "verification.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for rec in records:
            if rec["model"] == "big-70b" and rec["cited_by_count"] is not None:
                rec["cited_by_count"] = 0
        path.write_text("".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))
        capsys.readouterr()
        for command in ("citetail", "report"):
            assert main([command, *_args(out), "--min-n", "10"]) == 2
            err = capsys.readouterr().err
            assert "big-70b: citation medians must be positive for the log fit" in err
            assert "Traceback" not in err
        assert not (out / "citetail_report.json").exists()

    @pytest.mark.parametrize("command", ["citetail", "report"])
    def test_min_n_below_2_exits_2_before_writing(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main(["verify", *_args(out)]) == 0
        before = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        capsys.readouterr()
        for min_n in ("1", "-3"):
            assert main([command, *_args(out), "--min-n", min_n]) == 2
            assert f"--min-n {min_n} is below 2" in capsys.readouterr().err
            assert {p.name: p.read_bytes() for p in sorted(out.iterdir())} == before


class TestZipfCommand:
    def test_zipf_outputs(self, tmp_path):
        counts = tmp_path / "counts.csv"
        k = np.arange(1, 300)
        rows = "\n".join(f"concept{i},{f:.15g}"
                         for i, f in enumerate(1000.0 * k ** -1.23))
        counts.write_text(rows + "\n")
        out = tmp_path / "out"
        code = main(["zipf", *_args(out), "--counts", str(counts),
                     "--window", "50"])
        assert code == 0
        doc = json.loads((out / "zipf_report.json").read_text())
        assert doc["alpha_ols"] == pytest.approx(1.23, abs=1e-6)
        assert (out / "zipf_rolling.csv").exists()

    def test_zipf_needs_only_the_output_dir_and_counts(self, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("a,50\nb,20\nc,9\nd,4\n")
        assert main(["zipf", "--output-dir", str(tmp_path / "out"),
                     "--counts", str(counts)]) == 0
        assert (tmp_path / "out" / "zipf_report.json").exists()

    @pytest.mark.parametrize("text, code, message", [
        ("concept,count\nsolo\na,5\n", 2, "line 2 has no count column: 'solo'"),
        ("a,5\nb,3\n# note\nc\n", 2, "line 4 has no count column: 'c'"),
        ("concept,count\n", 2, "no (concept, count) rows found"),
        ("", 2, "no (concept, count) rows found"),
        ("# note\na,5\n\nb,3\nc,1\n", 0, ""),
        ("a,1e3\nb,500\nc,-1\nd,20\ne,3\n", 2,
         "line 3 has no finite non-negative count: '-1'"),
        ("concept,count\na,5\nb,x\nc,1\n", 2,
         "line 3 has no finite non-negative count: 'x'"),
        ("concept,count\nname,count\na,5\n", 2,
         "line 2 has no finite non-negative count: 'count'"),
        ("a,5\nb,inf\nc,1\n", 2, "line 2 has no finite non-negative count: 'inf'"),
        ("a,5\nb,nan\nc,1\n", 2, "line 2 has no finite non-negative count: 'nan'"),
        ("concept,count\na,1e3\nb,2.5e2\nc,20\n", 0, ""),
        ("a,5\nb,3\nc,0\nd,1\n", 2, "line 3 has count 0; counts must be positive"),
    ])
    def test_counts_table(self, tmp_path, capsys, text, code, message):
        counts = tmp_path / "counts.csv"
        counts.write_text(text)
        got = main(["zipf", *_args(tmp_path / "out"), "--counts", str(counts)])
        err = capsys.readouterr().err
        assert got == code
        assert message in err
        assert "Traceback" not in err

    def test_window_outside_range_exits_2_before_writing(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("a,9\nb,5\nc,3\nd,2\ne,1\n")
        out = tmp_path / "out"
        for window in ("50", "-4", "2", "6"):
            assert main(["zipf", *_args(out), "--counts", str(counts),
                         "--window", window]) == 2
            assert f"--window {window} is outside [3, 5]" in capsys.readouterr().err
            assert not out.exists() or not any(out.iterdir())

    def test_run_without_window_removes_earlier_profile(self, tmp_path):
        # window is not a config field, so an earlier profile would carry
        # the later run's stamp.
        counts = tmp_path / "counts.csv"
        counts.write_text("a,9\nb,5\nc,3\nd,2\ne,1\n")
        out = tmp_path / "out"
        args = ["zipf", *_args(out), "--counts", str(counts)]
        assert main([*args, "--window", "3"]) == 0
        assert len((out / "zipf_rolling.csv").read_text().splitlines()) == 2 + 3
        assert main(args) == 0
        assert (out / "zipf_report.json").exists()
        assert not (out / "zipf_rolling.csv").exists()

    def test_every_count_row_is_used(self, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("concept,count\na,1e3\nb,500\nc,2.5e1\nd,20\ne,3\n")
        out = tmp_path / "out"
        assert main(["zipf", *_args(out), "--counts", str(counts)]) == 0
        assert json.loads((out / "zipf_report.json").read_text())["n"] == 5


class TestStartup:
    def test_each_module_imports_first_and_alone(self):
        # An import cycle fails only when one of its modules is imported
        # first, so each module gets a fresh interpreter. The record-type
        # module is a leaf: nothing from refscale, nothing outside the
        # standard library.
        names = sorted(m.name for m in pkgutil.iter_modules(refscale.__path__))
        assert "records" in names
        for name in names:
            code = (
                "import sys\n"
                "before = set(sys.modules)\n"
                f"import refscale.{name}\n"
                "new = set(sys.modules) - before\n"
            )
            if name == "records":
                code += (
                    "ours = {m for m in new if m.partition('.')[0] == 'refscale'}\n"
                    "assert ours == {'refscale', 'refscale.records'}, ours\n"
                    "other = {m.partition('.')[0] for m in new - ours}\n"
                    "assert other <= sys.stdlib_module_names, other\n"
                )
            proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                                  capture_output=True, text=True)
            assert proc.returncode == 0, (name, proc.stderr)

    def test_verify_does_not_import_scipy(self, tmp_path):
        # No command loads scipy; it is a test dependency only.
        code = (
            "import sys\n"
            "import refscale.cli\n"
            "assert 'scipy' not in sys.modules, 'import refscale.cli'\n"
            f"assert refscale.cli.main({['verify', *_args(tmp_path / 'out')]!r}) == 0\n"
            "assert 'scipy' not in sys.modules, 'refscale verify'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_ingest_verify_score_import_no_numpy(self, tmp_path):
        # Parsing, verification and scoring are text and JSON work; numpy
        # is loaded only by the numeric commands.
        args = _args(tmp_path / "out")
        code = (
            "import sys\n"
            "def numeric(): return sorted(m for m in sys.modules\n"
            "                             if m.split('.')[0] in ('numpy', 'scipy'))\n"
            "import refscale.cli\n"
            "assert not numeric(), ('import refscale.cli', numeric())\n"
            f"for command in {['ingest', 'verify', 'score']!r}:\n"
            f"    assert refscale.cli.main([command, *{args!r}]) == 0\n"
            "    assert not numeric(), (command, numeric())\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_demo_citetail_and_report_import_no_scipy(self, tmp_path):
        # Demo's Spearman calls all take the exact n <= 9 path, and the
        # median CIs need no special functions: no scipy module is loaded.
        args = _args(tmp_path / "out")
        code = (
            "import sys\n"
            "import refscale.cli\n"
            f"assert refscale.cli.main({['verify', *args]!r}) == 0\n"
            f"assert refscale.cli.main({['citetail', *args, '--min-n', '10']!r}) == 0\n"
            f"assert refscale.cli.main({['report', *args, '--min-n', '10']!r}) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_report_imports_no_scipy_stats(self, tmp_path):
        # ttail's per-model and citetail Spearman calls take the t-tail,
        # which is computed in closed form; no scipy module is loaded, and
        # an offline run never loads the live client's network stack.
        set_up("ttail", tmp_path)
        code = (
            "import json, sys\n"
            "import refscale.cli\n"
            f"assert refscale.cli.main({['verify', *PATHS]!r}) == 0\n"
            f"assert refscale.cli.main({['report', *PATHS, '--min-n', '10']!r}) == 0\n"
            "doc = json.load(open('out/citetail_report.json'))\n"
            "assert len(doc['included_models']) == 12, doc['included_models']\n"
            "assert 0.0 < doc['spearman_p'] < 1.0, 'no t-tail was reached'\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "assert not loaded, loaded\n"
            "assert 'urllib.request' not in sys.modules, 'urllib.request'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                              cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_no_resource_warnings(self, tmp_path):
        out = tmp_path / "out"
        assert main(["verify", *_args(out)]) == 0
        for command in ("score", "fit"):
            proc = subprocess.run(
                [sys.executable, "-X", "dev", "-m", "refscale.cli", command,
                 *_args(out)], env=_src_env(), capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert "ResourceWarning" not in proc.stderr, command


def _src_env():
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
