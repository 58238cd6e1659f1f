"""The superposition signal-to-noise recall model: closed-form recall-
fraction scaling, a threshold simulator whose recalled prefix comes from a
closed-form estimate confirmed by the threshold test (the brute-force scan
it replaced is its oracle in ``tests/oracles.py``), random-vector
interference estimation, the logistic quality link with its three regimes,
tangent-line linearization, reference-slope/efficiency arithmetic, and the
capacity extrapolation formulas.

Unit contract: model parameter counts P are in decimal billions throughout;
the fitted coefficients are only meaningful under that convention.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import Dict, Tuple

import numpy as np

from .stats import SigmoidFit, logit, sigmoid

__all__ = [
    "TheoryExponents",
    "SimConfig",
    "QualityLink",
    "LinearizedForm",
    "recall_fraction",
    "simulate_recall",
    "interference_floor",
    "quality_from_Q",
    "linearize",
    "reference_slope",
    "efficiency",
    "required_params",
    "required_content",
    "theory_artifacts",
]


@dataclass
class TheoryExponents:
    """Exponents of the threshold model.

    alpha_z: Zipf exponent of concept rank-frequency (> 1).
    beta_s: signal strength exponent, s(f) = f^beta_s.
    gamma_e: capacity exponent, N_eff ~ P^gamma_e.
    delta: topic-frequency exponent, f ~ S^delta.
    c0: base frequency scale of the rank-frequency law.
    q_scale: proportionality constant of the closed-form recall fraction.
    """

    alpha_z: float
    beta_s: float = 1.0
    gamma_e: float = 1.0
    delta: float = 1.0
    c0: float = 1.0
    q_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha_z <= 1:
            raise ValueError("alpha_z must exceed 1")
        for name in ("beta_s", "gamma_e", "delta", "c0", "q_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def p_exponent(self) -> float:
        """Log-slope of the recall fraction in P."""
        return self.gamma_e / (2.0 * self.alpha_z * self.beta_s)

    def s_exponent(self) -> float:
        """Log-slope of the recall fraction in S (beta_s cancels)."""
        return self.delta / self.alpha_z

    def calibrated(self, m: int) -> "TheoryExponents":
        """Copy with q_scale set so the closed form tracks the threshold
        simulator at inventory size ``m`` (see :func:`simulate_recall`)."""
        return TheoryExponents(
            alpha_z=self.alpha_z,
            beta_s=self.beta_s,
            gamma_e=self.gamma_e,
            delta=self.delta,
            c0=self.c0,
            q_scale=self.c0 ** (1.0 / self.alpha_z) / m,
        )


@dataclass
class SimConfig:
    """Inputs to the threshold simulator."""

    m: int  # concept inventory size
    p: float  # parameters, billions
    s: float  # topic works count
    exponents: TheoryExponents

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.p <= 0 or self.s <= 0:
            raise ValueError("p and s must be positive")


@dataclass
class QualityLink:
    """Logistic link quality = sigma(a * log10(Q) + b)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ValueError("link slope a must be positive")


@dataclass
class LinearizedForm:
    """Tangent-line and ceiling-regime coefficients of a fitted sigmoid."""

    m: float
    n: float
    c: float
    m_ceiling: float
    n_ceiling: float


def recall_fraction(p: float, s: float, exps: TheoryExponents) -> float:
    """Closed-form recall fraction Q = C * P^(ge/(2*az*bs)) * S^(d/az).

    Values above 1 indicate saturation and are returned as-is.
    """
    if p <= 0 or s <= 0:
        raise ValueError("p and s must be positive")
    return exps.q_scale * p ** exps.p_exponent() * s ** exps.s_exponent()


def simulate_recall(cfg: SimConfig) -> Tuple[int, float]:
    """Threshold recall over the concept inventory.

    Concept k (rank-frequency f_k = c0 * S^delta * k^-alpha_z) is recalled
    when its signal f_k^beta_s exceeds the interference floor P^(-gamma_e/2).
    The signal is decreasing in k, so recalled concepts form a prefix. Its
    length k_star is estimated in closed form, in logs so that an extreme P
    or exponent cannot overflow the estimate, and then confirmed by the
    threshold test: k_star steps up while concept k_star + 1 passes and
    down while concept k_star fails. ``tests/oracles.py`` keeps the scan of
    every concept as this function's oracle. Returns (k_star, Q = k_star / m).
    """
    e = cfg.exponents
    floor = cfg.p ** (-e.gamma_e / 2.0)
    base = e.c0 * cfg.s ** e.delta

    def recalled(k: int) -> bool:
        # The scan's expression through numpy's pow, whose last bit Python's
        # ** does not always share.
        signal = (base * np.array([k], dtype=float) ** (-e.alpha_z)) ** e.beta_s
        return bool(signal[0] > floor)

    log_k = (math.log(e.c0) + e.delta * math.log(cfg.s)
             + e.gamma_e / (2.0 * e.beta_s) * math.log(cfg.p)) / e.alpha_z
    k_star = min(int(math.exp(min(log_k, math.log(cfg.m + 1)))), cfg.m)
    while k_star < cfg.m and recalled(k_star + 1):
        k_star += 1
    while k_star > 0 and not recalled(k_star):
        k_star -= 1
    return k_star, k_star / cfg.m


def interference_floor(
    n_dims: int, m_concepts: int, trials: int = 10, seed: int = 0
) -> float:
    """Monte Carlo mean absolute pairwise overlap of random unit vectors.

    Samples ``m_concepts`` uniform unit vectors in ``n_dims`` dimensions per
    trial and averages |<v_i, v_j>| over all pairs; scales as 1/sqrt(N).
    """
    if n_dims < 1:
        raise ValueError("n_dims must be at least 1")
    if m_concepts < 2:
        raise ValueError("need at least 2 concepts")
    rng = np.random.default_rng(seed)
    total = 0.0
    count = 0
    iu = np.triu_indices(m_concepts, k=1)
    for _ in range(trials):
        v = rng.standard_normal((m_concepts, n_dims))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        gram = v @ v.T
        total += float(np.abs(gram[iu]).sum())
        count += len(iu[0])
    return total / count


def quality_from_Q(q_latent: float, link: QualityLink) -> float:
    """Logistic of a * log10(Q) + b; defined only for positive Q."""
    if q_latent <= 0:
        raise ValueError("recall fraction must be positive")
    return float(sigmoid(link.a * math.log10(q_latent) + link.b))


def linearize(fit: SigmoidFit) -> LinearizedForm:
    """Tangent-line coefficients at the inflection (slope 1/4) and the
    ceiling-regime distortion exponents (factor 1/ln 10)."""
    if not fit.converged:
        raise ValueError("fit did not converge (converged is false)")
    return LinearizedForm(
        m=fit.alpha / 4.0,
        n=fit.beta / 4.0,
        c=0.5 + fit.gamma / 4.0,
        m_ceiling=fit.alpha / math.log(10.0),
        n_ceiling=fit.beta / math.log(10.0),
    )


def reference_slope(alpha_z: float) -> float:
    """Benchmark log-slope 1/(2*alpha_z) at unit signal/capacity exponents."""
    if alpha_z <= 0:
        raise ValueError("alpha_z must be positive")
    return 1.0 / (2.0 * alpha_z)


def efficiency(m: float, m_max: float) -> float:
    """Measured slope as a fraction of the benchmark slope."""
    if m_max <= 0:
        raise ValueError("m_max must be positive")
    return m / m_max


def required_params(
    quality_target: float, s: float, fit: SigmoidFit
) -> float:
    """Parameters (billions) needed to hit a quality target at works count s.

    log10(P) = (logit(target) - beta * log10(S) - gamma) / alpha.
    """
    if not 0.0 < quality_target < 1.0:
        raise ValueError("quality target must be strictly inside (0, 1)")
    if fit.alpha <= 0:
        raise ValueError(f"requires a positive size slope (alpha = {fit.alpha:g})")
    log10_p = (logit(quality_target) - fit.beta * math.log10(s) - fit.gamma) / fit.alpha
    if not log10_p <= sys.float_info.max_10_exp:
        raise ValueError(f"size slope too small for a finite size (alpha = {fit.alpha:g})")
    return 10.0 ** log10_p


def required_content(p: float, fit: SigmoidFit) -> float:
    """log10 of the works count at which quality crosses 0.5 for size p.

    Delta log10(S) = -(alpha * log10(P) + gamma) / beta.
    """
    if fit.beta <= 0:
        raise ValueError(f"requires a positive content slope (beta = {fit.beta:g})")
    if p <= 0:
        raise ValueError("p must be positive")
    log10_s = -(fit.alpha * math.log10(p) + fit.gamma) / fit.beta
    if not math.isfinite(log10_s):
        raise ValueError(f"content slope too small for a finite threshold (beta = {fit.beta:g})")
    return log10_s


def theory_artifacts(fit: SigmoidFit) -> Dict[str, object]:
    """The theory stage's artifacts by file name: the report of the fit's
    linearization, reference slopes and extrapolations, and the simulator
    sweep of recall fraction and linked quality, for plotting."""
    lin = linearize(fit)
    slope_table = []
    for alpha_z in (1.00, 1.23, 1.24):
        m_max = round(reference_slope(alpha_z), 3)
        slope_table.append({"alpha_z": alpha_z, "m_max": m_max,
                            "efficiency_at_m": round(efficiency(lin.m, m_max), 4)})
    exps = TheoryExponents(alpha_z=1.23).calibrated(100_000)
    link = QualityLink(a=1.0, b=0.0)
    rows = []
    for log_p in np.linspace(0, 4, 17):
        for log_s in (2.0, 4.0, 6.0):
            _, q_frac = simulate_recall(SimConfig(
                m=100_000, p=10 ** log_p, s=10 ** log_s, exponents=exps))
            quality = quality_from_Q(q_frac, link) if q_frac > 0 else 0.0
            rows.append((f"{log_p:.6g}", f"{log_s:.6g}", f"{q_frac:.8g}", f"{quality:.8g}"))
    return {
        "theory_report.json": {
            "fit": asdict(fit),
            "linearized": asdict(lin),
            "reference_slopes": slope_table,
            "required_params_q90_s32_billions": required_params(0.90, 32, fit),
            "recall_threshold_log10_s_at_405b": required_content(405, fit),
        },
        "sim_sweep.csv": (["log10_P", "log10_S", "Q", "quality"], rows),
    }
