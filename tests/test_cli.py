import csv
import json
import os
import shutil
import stat
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from refscale import cli
from refscale.cli import main

from conftest import DEMO_DATASET, DEMO_FIXTURES, REPO
from test_golden import PATHS, set_up


def _args(out, *extra):
    return ["--dataset", str(DEMO_DATASET), "--fixtures", str(DEMO_FIXTURES),
            "--output-dir", str(out), *extra]


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
        ("fit", "observations.csv"),
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

    @pytest.mark.parametrize("corrupt", [
        lambda entry: json.dumps(entry)[:7],
        lambda entry: json.dumps({k: v for k, v in entry.items() if k != "body"}),
        lambda entry: json.dumps({**entry, "body": {}}),
        lambda entry: json.dumps({**entry, "body": {"results": [{"title": "x"}]}}),
    ], ids=["truncated", "no-body", "no-results", "top-result-without-id"])
    def test_corrupt_fixture_exit_code(self, tmp_path, capsys, corrupt):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(DEMO_FIXTURES, fixtures)
        path = next(p for p in sorted(fixtures.glob("*.json"))
                    if json.loads(p.read_text())["request"]["endpoint"]
                    == "works_search")
        path.write_text(corrupt(json.loads(path.read_text())))
        code = main(["verify", "--dataset", str(DEMO_DATASET),
                     "--fixtures", str(fixtures),
                     "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert path.name in err
        assert "Traceback" not in err

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
        (lambda doc: {**doc, "models": {}},
         "models: expected a list of records, got a dict"),
        (lambda doc: {**doc, "topics": [None]},
         "topics[0]: expected an object, got None"),
        (lambda doc: {**doc, "generations": [
            {**doc["generations"][0], "model": ["nano-1b"]}]},
         "generations[0]: model must be a string, got ['nano-1b']"),
    ], ids=["top-level-list", "label-without-index", "label-index-string",
            "params-string", "models-object", "topic-null", "model-list"])
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
        (lambda rec: {**rec, "cited_by_count": "12"},
         "cited_by_count must be an integer or null, got '12'"),
        (lambda rec: {**rec, "matched_candidate": 7},
         "matched_candidate must be a string or null, got 7"),
    ], ids=["no-cited-by-count", "malformed", "verdicts-null", "unknown-verdict",
            "unknown-status", "authenticity-string", "authenticity-bool",
            "cited-by-count-string", "matched-candidate-number"])
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


    @pytest.mark.parametrize("edit, message", [
        (lambda rows: [["model", "topic", "log10_params", "log10_works", "q"],
                       *rows[1:]], "line 1: expected columns"),
        (lambda rows: [rows[0], rows[1][:4], *rows[2:]],
         "line 2: not enough values to unpack (expected 5, got 4)"),
        (lambda rows: [rows[0], [*rows[1][:2], "many", *rows[1][3:]], *rows[2:]],
         "line 2: could not convert string to float: 'many'"),
        (lambda rows: [rows[0], [*rows[1][:4], "1.5"], *rows[2:]],
         "line 2: quality out of range: 1.5"),
    ], ids=["header", "short-row", "non-numeric", "quality-above-1"])
    def test_malformed_observations(self, tmp_path, capsys, pipeline_out, edit, message):
        out = tmp_path / "out"
        out.mkdir()
        path = out / "observations.csv"
        with (pipeline_out / path.name).open(newline="") as handle:
            rows = list(csv.reader(handle))
        with path.open("w", newline="") as handle:
            csv.writer(handle).writerows(edit(rows))
        assert main(["fit", *_args(out)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: {message}" in err
        assert "re-run score" in err
        assert "Traceback" not in err

    def test_observations_without_works_count(self, tmp_path, capsys, pipeline_out):
        out = tmp_path / "out"
        out.mkdir()
        lines = (pipeline_out / "observations.csv").read_text().splitlines()
        model, topic, params, _, quality = lines[1].split(",")
        lines[1] = ",".join([model, topic, params, "", quality])
        (out / "observations.csv").write_text("\n".join(lines) + "\n")
        assert main(["fit", *_args(out)]) == 2
        assert f"cells missing works count for topic(s): {topic}" in capsys.readouterr().err

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
    LOADERS = ("ingest_dataset", "parse_corpus", "results_from_jsonl", "load_cells",
               "build_record")

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
        assert main(["report", *_args(out), "--min-n", "10"]) == 0
        # No parse_corpus: scoring needs only the dataset and the results.
        assert calls == {"ingest_dataset": 1, "results_from_jsonl": 1,
                         "load_cells": 1, "build_record(SigmoidFit)": 1,
                         "build_record(RunConfig)": 1}


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
    ], ids=["list", "unknown-key", "seed-string", "offline-string",
            "partial-weight-null", "not-json"])
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
