import json
import shutil

import numpy as np
import pytest

from refscale.citetail import CitationSample, build_citation_samples, citation_gradient
from refscale.cli import main
from refscale.verification import FieldVerdict, Status, VerificationResult

from conftest import DEMO_DATASET, DEMO_FIXTURES


def _result(status, cited=None):
    return VerificationResult(verdicts={"title": FieldVerdict.MATCH},
                              authenticity=1.0, status=status,
                              matched_candidate=None if cited is None else "W1",
                              cited_by_count=cited)


class TestBuildSamples:
    def test_accounting_buckets(self):
        # three matched across both verified buckets, one excluded
        results = {
            ("m", "t", 0): _result(Status.VERIFIED, 5),
            ("m", "t", 1): _result(Status.VERIFIED_WITH_ERROR, 10),
            ("m", "t", 2): _result(Status.VERIFIED, 15),
            ("m", "t", 3): _result(Status.UNVERIFIED),
        }
        (sample,) = build_citation_samples(results)
        assert sample.model == "m"
        assert sorted(sample.counts) == [5, 10, 15]
        assert sample.n_excluded_status == 1
        assert len(sample.matched) + sample.n_excluded_status == 4


class TestCommand:
    def test_no_fixture_reads_after_verify(self, tmp_path, monkeypatch):
        # citetail reads the citation counts verify recorded, so emptying
        # the fixture directory after verify changes nothing.
        shutil.copy(DEMO_DATASET, tmp_path / "dataset.json")
        shutil.copytree(DEMO_FIXTURES, tmp_path / "fixtures")
        monkeypatch.chdir(tmp_path)
        args = ["--dataset", "dataset.json", "--fixtures", "fixtures",
                "--output-dir", "out"]
        assert main(["verify", *args]) == 0
        assert main(["citetail", *args, "--min-n", "10"]) == 0
        with_fixtures = (tmp_path / "out" / "citation_gradient.csv").read_bytes()
        for fixture in (tmp_path / "fixtures").iterdir():
            fixture.unlink()
        assert main(["citetail", *args, "--min-n", "10"]) == 0
        got = (tmp_path / "out" / "citation_gradient.csv").read_bytes()
        assert got == with_fixtures

    def test_skipped_report_removes_stale_gradient(self, tmp_path):
        # min_n is not a config field, so a table left by an earlier run
        # would carry the same stamp as the skipped run's report.
        args = ["--dataset", str(DEMO_DATASET), "--fixtures", str(DEMO_FIXTURES),
                "--output-dir", str(tmp_path / "out")]
        assert main(["verify", *args]) == 0
        assert main(["report", *args, "--min-n", "10"]) == 0
        assert (tmp_path / "out" / "citation_gradient.csv").exists()
        report_path = tmp_path / "out" / "citetail_report.json"
        meta = json.loads(report_path.read_text())["meta"]
        assert main(["report", *args, "--min-n", "1000"]) == 0
        assert json.loads(report_path.read_text()) == {
            "skipped": "need at least 3 qualifying models, have 0", "meta": meta}
        assert not (tmp_path / "out" / "citation_gradient.csv").exists()


def _synthetic_samples(slope=-0.35, scale=2000.0, n=240, sigma=0.6, base=100):
    params, samples, truth = {}, [], {}
    for i, p in enumerate(np.logspace(0, 3, 10)):
        name = f"m{i:02d}"
        params[name] = float(p)
        median = scale * p ** slope
        truth[name] = median
        rng = np.random.default_rng(base + i)
        counts = np.maximum(
            1, np.round(median * np.exp(rng.normal(0, sigma, n)))).astype(int)
        samples.append(CitationSample(
            model=name,
            matched=[((name, "t", j), int(c)) for j, c in enumerate(counts)]))
    return params, samples, truth


class TestGradient:
    def test_slope_and_rank_recovered(self):
        params, samples, _ = _synthetic_samples()
        report = citation_gradient(samples, params, min_n=50)
        assert report.fit.slopes[0] == pytest.approx(-0.35, abs=0.05)
        assert report.spearman_rho == pytest.approx(-1.0)
        assert report.included_models == sorted(params)
        assert report.excluded_models == []

    def test_exclusions(self):
        params, samples, _ = _synthetic_samples()
        params["tiny"] = 0.5
        samples.append(CitationSample(
            model="tiny", matched=[(("tiny", "t", j), 3) for j in range(5)]))
        params["mystery"] = None
        samples.append(CitationSample(
            model="mystery",
            matched=[(("mystery", "t", j), 3) for j in range(100)]))
        report = citation_gradient(samples, params, min_n=50)
        assert report.excluded_models == ["mystery", "tiny"]
        assert "tiny" not in report.medians

    def test_too_few_models(self):
        params, samples, _ = _synthetic_samples()
        with pytest.raises(ValueError, match="3 qualifying"):
            citation_gradient(samples[:2], params, min_n=50)

    def test_seed_determinism(self):
        params, samples, _ = _synthetic_samples()
        a = citation_gradient(samples, params, min_n=50)
        b = citation_gradient(samples, params, min_n=50)
        assert a.fit.slopes[0] == b.fit.slopes[0]
        for model in a.medians:
            assert (a.medians[model].lower, a.medians[model].upper) == \
                (b.medians[model].lower, b.medians[model].upper)
