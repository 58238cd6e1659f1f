import math

import numpy as np
import pytest

from refscale.stats import SigmoidFit, classify_regime, sigmoid
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
        # Inventory larger than one scan chunk still returns the same prefix.
        e = TheoryExponents(alpha_z=1.5, c0=100.0)
        big = simulate_recall(SimConfig(m=(1 << 20) + 100, p=100.0, s=100.0,
                                        exponents=e))
        small = simulate_recall(SimConfig(m=1 << 20, p=100.0, s=100.0,
                                          exponents=e))
        assert big[0] == small[0]

    def test_config_validation(self):
        e = TheoryExponents(alpha_z=1.23)
        with pytest.raises(ValueError):
            SimConfig(m=0, p=1.0, s=1.0, exponents=e)
        with pytest.raises(ValueError):
            SimConfig(m=10, p=-1.0, s=1.0, exponents=e)


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
