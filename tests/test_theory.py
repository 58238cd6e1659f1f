import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from refscale.scalinglaw import classify_regime
from refscale.stats import SigmoidFit, sigmoid
from refscale.theory import (
    QualityLink,
    SimConfig,
    TheoryExponents,
    efficiency,
    interference_floor,
    linearize,
    quality_from_Q,
    recall_fraction,
    reference_slope,
    required_content,
    required_params,
    simulate_recall,
)


def _fit(alpha=1.48, beta=0.46, gamma=-5.19, converged=True):
    return SigmoidFit(alpha=alpha, beta=beta, gamma=gamma, se_alpha=0.09,
                      se_beta=0.04, se_gamma=0.31, r2=0.599, n=384,
                      converged=converged, iterations=10, rss=1.0)


class TestExponents:
    def test_validation(self):
        with pytest.raises(ValueError):
            TheoryExponents(alpha_z=1.0)
        with pytest.raises(ValueError):
            TheoryExponents(alpha_z=1.23, beta_s=0.0)

    def test_derived_exponents(self):
        e = TheoryExponents(alpha_z=1.23, beta_s=1.0, gamma_e=1.0, delta=1.0)
        assert e.p_exponent() == pytest.approx(1 / 2.46)
        assert e.s_exponent() == pytest.approx(1 / 1.23)

    def test_beta_s_cancels_in_s_exponent(self):
        a = TheoryExponents(alpha_z=1.23, beta_s=1.0)
        b = TheoryExponents(alpha_z=1.23, beta_s=0.4)
        assert a.s_exponent() == b.s_exponent()


class TestSimulator:
    def test_hand_checkable_prefix(self):
        # f_k = 10 * k^-2, floor = 4^-0.5 = 0.5: ranks 1..4 pass (f_4 = 0.625).
        e = TheoryExponents(alpha_z=2.0, c0=10.0, delta=1.0, gamma_e=1.0,
                            beta_s=1.0)
        k_star, q = simulate_recall(SimConfig(m=10, p=4.0, s=1.0, exponents=e))
        assert k_star == 4
        assert q == pytest.approx(0.4)

    def test_calibrated_matches_closed_form(self):
        m = 50_000
        e = TheoryExponents(alpha_z=1.23, c0=10.0).calibrated(m)
        for p, s in [(10, 100), (100, 100), (100, 1000)]:
            _, q_sim = simulate_recall(SimConfig(m=m, p=p, s=s, exponents=e))
            assert q_sim == pytest.approx(recall_fraction(p, s, e), abs=1 / m)

    def test_chunked_scan_consistent(self):
        # Inventories larger than the oracle's scan chunk: the prefix ends in
        # the first chunk, in the second, and at m itself.
        m = (1 << 20) + 100
        e = TheoryExponents(alpha_z=1.5, c0=100.0)
        # f_k = 1e4 * k^-1.5 meets the floor p^-0.5 at k = (1e8 p)^(1/3).
        for p, in_first_chunk in [(100.0, True), (((1 << 20) + 50) ** 3 / 1e8, False)]:
            cfg = SimConfig(m=m, p=p, s=100.0, exponents=e)
            k_star, _ = oracles.simulate_recall_scan(cfg)
            assert (k_star <= 1 << 20) is in_first_chunk and k_star < m
            assert simulate_recall(cfg) == (k_star, k_star / m)
        everything = SimConfig(m=m, p=1e12, s=100.0, exponents=e)
        assert simulate_recall(everything) == oracles.simulate_recall_scan(everything) \
            == (m, 1.0)

    def test_config_validation(self):
        e = TheoryExponents(alpha_z=1.23)
        with pytest.raises(ValueError):
            SimConfig(m=0, p=1.0, s=1.0, exponents=e)
        with pytest.raises(ValueError):
            SimConfig(m=10, p=-1.0, s=1.0, exponents=e)


@st.composite
def sim_configs(draw):
    """Exponents, inventory size m (up to just past the oracle's scan chunk),
    P and S. Half the draws place the threshold on a concept k0 <= m + 1,
    where the float rounding of the signal decides whether k0 is recalled."""
    alpha_z = draw(st.floats(1.01, 4.0))
    beta_s = draw(st.floats(0.1, 3.0))
    gamma_e = draw(st.floats(0.1, 3.0))
    delta = draw(st.floats(0.1, 2.0))
    m = draw(st.one_of(st.integers(1, 5000), st.integers(1, (1 << 20) + 64)))
    p = 10 ** draw(st.floats(-2.0, 6.0))
    s = 10 ** draw(st.floats(0.0, 8.0))
    if draw(st.booleans()):
        c0 = 10 ** draw(st.floats(-3.0, 3.0))
    else:
        k0 = draw(st.integers(1, m + 1))
        c0 = k0 ** alpha_z * p ** (-gamma_e / (2 * beta_s)) / s ** delta
    return SimConfig(m=m, p=p, s=s, exponents=TheoryExponents(
        alpha_z=alpha_z, beta_s=beta_s, gamma_e=gamma_e, delta=delta, c0=c0))


class TestSimulatorOracle:
    """The closed-form prefix against the scan of every concept."""

    @settings(max_examples=300, deadline=None)
    @given(sim_configs())
    def test_equals_scan(self, cfg):
        assert simulate_recall(cfg) == oracles.simulate_recall_scan(cfg)

    def test_nothing_recalled(self):
        # f_1 = 0.5 is below the floor 1^-0.5 = 1; the sweep writes quality 0.
        cfg = SimConfig(m=10, p=1.0, s=1.0,
                        exponents=TheoryExponents(alpha_z=2.0, c0=0.5))
        assert simulate_recall(cfg) == oracles.simulate_recall_scan(cfg) == (0, 0.0)

    def test_everything_recalled(self):
        # f_10 = 1e4 * 10^-2 = 100 clears the floor 4^-0.5 = 0.5.
        cfg = SimConfig(m=10, p=4.0, s=1.0,
                        exponents=TheoryExponents(alpha_z=2.0, c0=1e4))
        assert simulate_recall(cfg) == oracles.simulate_recall_scan(cfg) == (10, 1.0)

    @pytest.mark.parametrize("c0, expected", [(10.0, (1, 1.0)), (0.1, (0, 0.0))])
    def test_single_concept(self, c0, expected):
        cfg = SimConfig(m=1, p=4.0, s=1.0,
                        exponents=TheoryExponents(alpha_z=2.0, c0=c0))
        assert simulate_recall(cfg) == oracles.simulate_recall_scan(cfg) == expected

    def test_floor_underflows(self):
        # 1e300^-1.5 underflows to 0.0, so an estimate that divided by the
        # floor in linear space would fail; every concept clears it.
        e = TheoryExponents(alpha_z=1.23, gamma_e=3.0)
        assert 1e300 ** (-e.gamma_e / 2.0) == 0.0
        cfg = SimConfig(m=100_000, p=1e300, s=100.0, exponents=e)
        assert simulate_recall(cfg) == oracles.simulate_recall_scan(cfg) == (100_000, 1.0)


class TestInterference:
    def test_scales_inverse_sqrt(self):
        lo = interference_floor(100, 32, trials=3, seed=0)
        hi = interference_floor(400, 32, trials=3, seed=0)
        assert lo / hi == pytest.approx(2.0, rel=0.15)

    def test_seed_determinism(self):
        a = interference_floor(200, 16, trials=2, seed=5)
        b = interference_floor(200, 16, trials=2, seed=5)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            interference_floor(0, 10)
        with pytest.raises(ValueError):
            interference_floor(10, 1)


class TestQualityLink:
    def test_logistic_link(self):
        link = QualityLink(a=2.0, b=0.5)
        assert quality_from_Q(1.0, link) == pytest.approx(float(sigmoid(0.5)))

    def test_positive_Q_required(self):
        with pytest.raises(ValueError):
            quality_from_Q(0.0, QualityLink(a=1.0, b=0.0))

    def test_slope_must_be_positive(self):
        with pytest.raises(ValueError):
            QualityLink(a=0.0, b=0.0)


class TestLinearization:
    def test_tangent_coefficients(self):
        lin = linearize(_fit())
        assert lin.m == pytest.approx(0.37)
        assert lin.n == pytest.approx(0.115)
        assert lin.c == pytest.approx(-0.7975)
        assert lin.m_ceiling == pytest.approx(1.48 / math.log(10))
        assert lin.n_ceiling == pytest.approx(0.46 / math.log(10))

    def test_unconverged_fit_rejected(self):
        with pytest.raises(ValueError):
            linearize(_fit(converged=False))


class TestSlopesAndRegimes:
    def test_reference_slope(self):
        assert reference_slope(1.0) == 0.5
        assert reference_slope(1.23) == pytest.approx(1 / 2.46)

    def test_efficiency(self):
        assert efficiency(0.224, 0.407) == pytest.approx(0.224 / 0.407)
        with pytest.raises(ValueError):
            efficiency(0.2, 0.0)

    def test_regime_boundaries(self):
        assert classify_regime(-2.5) == "floor"
        assert classify_regime(-2.0) == "ramp"
        assert classify_regime(0.0) == "ramp"
        assert classify_regime(2.0) == "ramp"
        assert classify_regime(2.5) == "ceiling"


class TestExtrapolation:
    def test_required_params_inverts_fit(self):
        fit = _fit()
        p = required_params(0.90, 32.0, fit)
        q = float(sigmoid(fit.alpha * math.log10(p)
                          + fit.beta * math.log10(32.0) + fit.gamma))
        assert q == pytest.approx(0.90, abs=1e-10)

    def test_required_content_crosses_half(self):
        fit = _fit()
        log_s = required_content(405.0, fit)
        q = float(sigmoid(fit.alpha * math.log10(405.0)
                          + fit.beta * log_s + fit.gamma))
        assert q == pytest.approx(0.5, abs=1e-10)

    def test_target_bounds(self):
        with pytest.raises(ValueError):
            required_params(1.0, 32.0, _fit())
        with pytest.raises(ValueError):
            required_params(0.9, 32.0, _fit(alpha=-1.0))
        with pytest.raises(ValueError):
            required_content(405.0, _fit(beta=-0.1))
