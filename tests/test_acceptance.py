"""Acceptance gate: thirteen numbered checks covering the published-table
reproductions, the estimator recovery properties, the simulator oracle, and
pipeline determinism. One test per criterion; the terminal summary prints a
pass/fail line for each."""

import itertools
import json
import math
import shutil
import time

import numpy as np
import pytest

from refscale.citetail import build_citation_samples, citation_gradient
from refscale.cli import main
from refscale.stats import (
    ConfusionMatrix2x2,
    SigmoidFit,
    cohen_kappa,
    confusion_stats,
    fit_ols,
    fit_sigmoid,
    sigmoid,
    spearman,
)
from refscale.theory import (
    SimConfig,
    TheoryExponents,
    efficiency,
    interference_floor,
    recall_fraction,
    reference_slope,
    required_params,
    simulate_recall,
)
from refscale.verification import (
    FIELD_KINDS,
    FIELD_WEIGHTS,
    VERDICT_SCORES,
    FieldVerdict,
    Status,
    VerificationResult,
    authenticity_score,
)
from refscale.zipflaw import bootstrap_alpha_ci, fit_zipf_mle, fit_zipf_ols, \
    rank_frequencies, sample_power_law

import oracles
from conftest import DEMO_DATASET, DEMO_FIXTURES

# Published per-model quality for the 16 dense non-reasoning models:
# (family, params in billions, quality).
DENSE_16 = [
    ("Llama", 1, 0.078), ("Llama", 8, 0.322), ("Llama", 70, 0.607),
    ("Llama", 70, 0.446), ("Llama", 405, 0.638), ("Llama", 405, 0.703),
    ("Gemma", 4, 0.082), ("Gemma", 12, 0.113), ("Gemma", 27, 0.220),
    ("Gemma", 31, 0.326),
    ("Mistral", 24, 0.309), ("Mistral", 123, 0.364), ("Mistral", 250, 0.560),
    ("Qwen", 8, 0.054), ("Qwen", 14, 0.227), ("Qwen", 32, 0.285),
]

REPORTED_FIT = SigmoidFit(alpha=1.48, beta=0.46, gamma=-5.19, se_alpha=0.09,
                          se_beta=0.04, se_gamma=0.31, r2=0.599, n=384,
                          converged=True, iterations=0, rss=0.0)


def test_criterion_01_cross_family_loglinear_r2():
    start = time.perf_counter()
    x = [math.log10(p) for _, p, _ in DENSE_16]
    q = [quality for _, _, quality in DENSE_16]
    fit = fit_ols(x, q)
    assert fit.r2 == pytest.approx(0.794, abs=0.01)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_within_family_slopes():
    start = time.perf_counter()
    expected = {"Llama": 0.224, "Gemma": 0.238, "Mistral": 0.218,
                "Qwen": 0.366}
    for family, slope in expected.items():
        rows = [(math.log10(p), q) for f, p, q in DENSE_16 if f == family]
        fit = fit_ols([x for x, _ in rows], [q for _, q in rows])
        assert fit.slopes[0] == pytest.approx(slope, abs=0.005), family
    assert time.perf_counter() - start < 1.0


def test_criterion_03_reference_slope_table():
    m_max = {a: round(reference_slope(a), 3) for a in (1.00, 1.23, 1.24)}
    assert m_max == {1.00: 0.500, 1.23: 0.407, 1.24: 0.403}
    assert round(efficiency(0.224, 0.500), 3) == 0.448
    assert round(efficiency(0.224, 0.407), 3) == 0.550
    assert round(efficiency(0.224, 0.403), 3) == 0.556


def test_criterion_04_agreement_statistics():
    # Reconstruction from the published status buckets: the two verified
    # buckets (75 + 61) are all real with no false positives; of 99
    # unverified references 96 are not real; of 66 grey-zone references 52
    # are not real. Real-but-missed = 3 + 14.
    verified, with_error = 75, 61
    unverified, unverified_not_real = 99, 96
    grey, grey_not_real = 66, 52
    tp = verified + with_error
    fp = 0
    fn = (unverified - unverified_not_real) + (grey - grey_not_real)
    tn = unverified_not_real + grey_not_real
    assert (tp, fp, fn, tn) == (136, 0, 17, 148)
    assert tp + fp + fn + tn == 301

    cm = ConfusionMatrix2x2(tp=tp, fp=fp, fn=fn, tn=tn)
    accuracy, precision, recall, specificity = confusion_stats(cm)
    assert accuracy == pytest.approx(0.944, abs=0.001)
    assert precision == pytest.approx(1.000, abs=0.001)
    assert specificity == pytest.approx(1.000, abs=0.001)
    assert recall == pytest.approx(0.889, abs=0.001)
    assert cohen_kappa(cm) == pytest.approx(0.887, abs=0.001)


def test_criterion_05_spearman_p_consistency():
    # Rank permutation with sum of squared rank differences 296, the
    # realizable value closest to rho = -0.79 at n = 10.
    y = [10, 8, 9, 6, 4, 2, 5, 7, 3, 1]
    rho, p = spearman(list(range(1, 11)), y)
    assert rho == pytest.approx(-0.79, abs=0.005)
    assert p == pytest.approx(0.007, abs=0.002)


def test_criterion_06_extrapolation_order():
    p_billions = required_params(0.90, 32.0, REPORTED_FIT)
    params = p_billions * 1e9
    assert 1e13 <= params <= 1e14
    # Frozen from an independent hand evaluation of
    # (logit(0.9) - 0.46*log10(32) + 5.19) / 1.48.
    assert math.log10(p_billions) == pytest.approx(4.523551072506124, abs=1e-6)


def test_criterion_07_authenticity_scoring_suite():
    start = time.perf_counter()
    V = FieldVerdict
    assert authenticity_score({k: V.MATCH for k in FIELD_KINDS}) \
        == pytest.approx(1.0, abs=1e-9)
    mixed = {"title": V.MATCH, "identifier": V.ABSENT, "authors": V.ABBREV,
             "year": V.MATCH, "venue": V.CONTRADICTION}
    assert authenticity_score(mixed) == pytest.approx(8.0 / 15.0, abs=1e-9)
    assert authenticity_score({k: V.CONTRADICTION for k in FIELD_KINDS}) \
        == pytest.approx(0.0, abs=1e-9)

    # Brute-force oracle over all 6^5 verdict assignments: agreement with an
    # independent weighted-mean computation, plus monotonicity under any
    # single-field verdict upgrade.
    order = [V.CONTRADICTION, V.UNCONFIRMED, V.CONTAINS, V.ABBREV, V.MATCH]
    rank = {v: i for i, v in enumerate(order)}
    scores = {}
    for combo in itertools.product(list(V), repeat=5):
        verdicts = dict(zip(FIELD_KINDS, combo))
        if all(v is V.ABSENT for v in combo):
            with pytest.raises(ValueError):
                authenticity_score(verdicts)
            continue
        got = authenticity_score(verdicts)
        num = sum(FIELD_WEIGHTS[k] * VERDICT_SCORES[v]
                  for k, v in verdicts.items() if v is not V.ABSENT)
        den = sum(FIELD_WEIGHTS[k] for k, v in verdicts.items()
                  if v is not V.ABSENT)
        assert got == pytest.approx(max(0.0, num / den), abs=1e-12)
        scores[combo] = got
    for combo, score in scores.items():
        for i, v in enumerate(combo):
            if v is V.ABSENT or rank[v] == len(order) - 1:
                continue
            upgraded = combo[:i] + (order[rank[v] + 1],) + combo[i + 1:]
            assert scores[upgraded] >= score - 1e-12
    assert time.perf_counter() - start < 10.0


def _ramp_design():
    """Synthetic 384-cell (16 x 24) design spanning the logistic ramp."""
    truth = np.array([1.48, 0.46, -5.19])
    x = np.repeat(np.linspace(0.0, math.log10(405), 16), 24)
    z = np.tile(np.linspace(-1.5, 1.5, 24), 16)
    s = (z - truth[0] * x - truth[2]) / truth[1]
    q = sigmoid(truth[0] * x + truth[1] * s + truth[2])
    return truth, x, s, q


def test_criterion_08_sigmoid_fit_recovery():
    truth, x, s, q = _ramp_design()
    clean = fit_sigmoid(np.column_stack([x, s, q]))
    assert np.max(np.abs(np.array([clean.alpha, clean.beta, clean.gamma]) - truth)) < 1e-6
    assert clean.r2 == pytest.approx(1.0, abs=1e-9)

    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = np.clip(q + rng.normal(0.0, 0.15, q.size), 0.0, 1.0)
        fit = fit_sigmoid(np.column_stack([x, s, noisy]))
        params = np.array([fit.alpha, fit.beta, fit.gamma])
        ses = np.array([fit.se_alpha, fit.se_beta, fit.se_gamma])
        if all(abs(params[i] - truth[i]) < 2.0 * ses[i] for i in range(3)):
            hits += 1
    assert hits >= 90


def test_criterion_09_theory_oracle_equivalence():
    start = time.perf_counter()
    m = 1_000_000
    for az, bs, ge, d in [(1.23, 1, 1, 1), (1.23, 1, 0.4, 0.7),
                          (2, 0.5, 1, 1)]:
        grid_exps = TheoryExponents(alpha_z=az, beta_s=bs, gamma_e=ge,
                                    delta=d, c0=10.0).calibrated(m)
        for p in np.logspace(1, 3, 5):
            for s in np.logspace(1.5, 3.5, 5):
                cfg = SimConfig(m=m, p=p, s=s, exponents=grid_exps)
                k_star, q_sim = oracles.simulate_recall_scan(cfg)
                assert simulate_recall(cfg) == (k_star, q_sim)
                assert 0 < k_star < m
                gap = abs(q_sim - recall_fraction(p, s, grid_exps))
                assert gap <= (1.0 / m) * (1.0 + 1e-9)

        slope_exps = TheoryExponents(alpha_z=az, beta_s=bs, gamma_e=ge,
                                     delta=d, c0=1000.0).calibrated(m)
        ps = np.logspace(1, 3, 9)
        q_p = [simulate_recall(SimConfig(m=m, p=p, s=100.0,
                                         exponents=slope_exps))[1] for p in ps]
        slope_p = fit_ols(np.log10(ps), np.log10(q_p)).slopes[0]
        assert slope_p == pytest.approx(slope_exps.p_exponent(), rel=0.05)

        ss = np.logspace(1.5, 3, 9)
        q_s = [simulate_recall(SimConfig(m=m, p=100.0, s=s,
                                         exponents=slope_exps))[1] for s in ss]
        slope_s = fit_ols(np.log10(ss), np.log10(q_s)).slopes[0]
        assert slope_s == pytest.approx(slope_exps.s_exponent(), rel=0.05)
    assert time.perf_counter() - start < 30.0


def test_criterion_10_interference_floor_scaling():
    start = time.perf_counter()
    dims = [100, 1000, 10000]
    floors = [interference_floor(n, 64, trials=5, seed=3) for n in dims]
    slope = fit_ols(np.log10(dims), np.log10(floors)).slopes[0]
    assert slope == pytest.approx(-0.5, abs=0.05)
    assert time.perf_counter() - start < 30.0


def test_criterion_11_zipf_estimators():
    mle_samples = sample_power_law(1.23, 1.0, 10_000, seed=7)
    assert fit_zipf_mle(mle_samples, 1.0) == pytest.approx(1.23, abs=0.05)

    # Sorted draws with density exponent 1 + 1/1.23 follow a rank-frequency
    # law with exponent 1.23.
    rank_samples = sample_power_law(1.0 + 1.0 / 1.23, 1.0, 10_000, seed=11)
    alpha_ols, _, _ = fit_zipf_ols(rank_frequencies(rank_samples))
    assert alpha_ols == pytest.approx(1.23, abs=0.05)

    assert fit_zipf_mle(np.full(50, math.e * 3.0), 3.0) \
        == pytest.approx(2.0, abs=1e-12)
    assert fit_zipf_mle([2.0], 1.0) \
        == pytest.approx(1.0 + 1.0 / math.log(2.0), abs=1e-12)

    covered = 0
    for trial in range(200):
        xs = sample_power_law(1.23, 1.0, 500, seed=1000 + trial)
        ci = bootstrap_alpha_ci(xs, 1.0, resamples=500, seed=trial)
        if ci.lower <= 1.23 <= ci.upper:
            covered += 1
    assert covered >= 186  # 93% of 200


def _verified(cited):
    return VerificationResult(verdicts={"title": FieldVerdict.MATCH},
                              authenticity=1.0, status=Status.VERIFIED,
                              matched_candidate="W1", cited_by_count=cited)


def test_criterion_12_citation_gradient_recovery():
    true_slope, scale = -0.35, 2000.0
    results, params, truth = {}, {}, {}
    model_ps = list(enumerate(np.logspace(0, 3, 10)))
    for i, p in model_ps:
        name = f"m{i:02d}"
        params[name] = float(p)
        median = scale * p ** true_slope
        truth[name] = median
        rng = np.random.default_rng(100 + i)
        counts = np.maximum(
            1, np.round(median * np.exp(rng.normal(0, 0.6, 240)))).astype(int)
        for j, c in enumerate(counts):
            results[(name, "topic", j)] = _verified(int(c))
        for j in range(240, 245):  # fabricated references stay excluded
            results[(name, "topic", j)] = VerificationResult(
                verdicts={"title": FieldVerdict.UNCONFIRMED}, authenticity=0.0,
                status=Status.UNVERIFIED)

    # One model under the inclusion floor and one with unknown size.
    for extra, p in (("tiny", 0.5), ("mystery", None)):
        params[extra] = p
        for j in range(10):
            results[(extra, "topic", j)] = _verified(3)

    samples = build_citation_samples(results)
    by_model = {s.model: s for s in samples}
    for i, _ in model_ps:
        sample = by_model[f"m{i:02d}"]
        assert len(sample.matched) == 240
        assert sample.n_excluded_status == 5
        assert len(sample.matched) + sample.n_excluded_status == 245

    report = citation_gradient(samples, params, min_n=50)
    assert report.fit.slopes[0] == pytest.approx(true_slope, abs=0.05)
    assert report.excluded_models == ["mystery", "tiny"]
    assert report.included_models == sorted(truth)
    for name, median in truth.items():
        ci = report.medians[name]
        assert ci.lower <= median <= ci.upper, name


def test_criterion_13_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "run"

    def run():
        args = ["--dataset", str(DEMO_DATASET),
                "--fixtures", str(DEMO_FIXTURES),
                "--output-dir", str(out), "--seed", "0"]
        assert main(["verify", *args]) == 0
        assert main(["score", *args]) == 0
        assert main(["fit", *args]) == 0
        assert main(["theory", *args]) == 0
        assert main(["citetail", *args, "--min-n", "10"]) == 0
        assert main(["report", *args, "--min-n", "10"]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                if p.is_file()}

    first = run()
    shutil.rmtree(out)
    second = run()
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    assert time.perf_counter() - start < 300.0
