"""The fit stage: quality = sigma(alpha*log10(P) + beta*log10(S) + gamma) and
its log-linear rivals fitted over a population of observation cells, the
floor / ramp / ceiling regimes, and the stage's artifacts."""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from . import stats  # traced functions are called through the module
from .dataset import ObservationCell
from .pipeline import CellRefs
from .records import IngestError

__all__ = ["REGIME_CUTOFF", "classify_regime", "fit_population", "fit_artifacts"]

REGIME_CUTOFF = 2.0  # sigma(+-2) is within ~12% of the asymptotes


def classify_regime(z: float) -> str:
    """floor / ramp / ceiling by the linear predictor z."""
    if z < -REGIME_CUTOFF:
        return "floor"
    if z > REGIME_CUTOFF:
        return "ceiling"
    return "ramp"


def fit_population(cells: Sequence[ObservationCell]) -> Dict[str, object]:
    """The fits over a population of cells on the fit, as ``fit_report.json``
    holds them: the sigmoid, the cell-level OLS of quality on log10 P and
    log10 S and on log10 P alone, the incremental F of S, the model-level OLS
    of mean quality on log10 P (None under 3 models), and the cell count."""
    arr = np.array([(c.log10_p, c.log10_s, c.quality) for c in cells])
    sig = stats.fit_sigmoid(arr)
    two = stats.fit_ols(arr[:, :2], arr[:, 2])
    one = stats.fit_ols(arr[:, 0], arr[:, 2])
    f_stat, dof = stats.incremental_f(two, one)
    # A model-level point (log10 P, mean quality) per model; P is the model's own.
    models = np.array([c.model for c in cells])
    pts = np.array([(arr[models == m][0, 0], np.mean(arr[models == m, 2]))
                    for m in np.unique(models)])
    return {
        "sigmoid": asdict(sig),
        "ols_cells_two_predictor": two.as_dict(),
        "ols_cells_size_only": one.as_dict(),
        "incremental_f": {"f": f_stat, "dof": list(dof)},
        "ols_model_level_size_only": stats.fit_ols(*pts.T).as_dict() if len(pts) >= 3 else None,
        "n_cells_fit": len(cells),
    }


def fit_artifacts(cells: Sequence[ObservationCell],
                  grouped: Mapping[Tuple[str, str], CellRefs],
                  baseline: float) -> Dict[str, object]:
    """The fit stage's artifacts by file name, from the scored ``cells`` and the
    ``grouped`` references they were scored from: the fits and the sweep around
    the ``baseline`` PARTIAL weight over the cells on the fit (those with P),
    per-model Spearman, regimes, and the fitted curve. A cell without S fails, and
    so do cells on the fit that are none, or share one P or one S."""
    missing_s = sorted({c.topic for c in cells if c.log10_s is None})
    if missing_s:
        raise IngestError("cells missing works count for topic(s): " + ", ".join(missing_s))
    fitted = [c for c in cells if c.log10_p is not None]
    if not fitted:
        raise IngestError("no cell is on the fit: no model has a parameter count")
    for axis, values in (("P", {c.log10_p for c in fitted}), ("S", {c.log10_s for c in fitted})):
        if len(values) < 2:
            raise IngestError(f"the {len(fitted)} cell(s) on the fit share one {axis} (log10 "
                              f"{axis} = {min(values):g}); the fit needs two distinct values")
    population = fit_population(fitted)
    by_model: Dict[str, List[ObservationCell]] = {}
    for cell in cells:
        by_model.setdefault(cell.model, []).append(cell)
    per_model = []
    for model, sub in sorted(by_model.items()):
        # Rank correlation of quality with content representation.
        s_vals, q_vals = [c.log10_s for c in sub], [c.quality for c in sub]
        if len(sub) >= 3 and np.ptp(s_vals) > 0 and np.ptp(q_vals) > 0:
            rho, p = stats.spearman(s_vals, q_vals)
            per_model.append((model, f"{rho:.6g}", f"{p:.6g}"))

    sig = population["sigmoid"]
    zs = [sig["alpha"] * c.log10_p + sig["beta"] * c.log10_s + sig["gamma"] for c in fitted]
    return {
        "fit_report.json": {**population, "n_cells_total": len(cells)},
        "per_model_spearman.csv": (
            ["model", "rho_quality_vs_log10_works", "p_two_sided"], per_model),
        "regimes.csv": (["model", "topic", "z", "regime"], [
            (c.model, c.topic, f"{z:.6g}", classify_regime(z)) for c, z in zip(fitted, zs)]),
        "sigmoid_curve.csv": (["z", "quality"], [
            (f"{z:.6g}", f"{float(stats.sigmoid(z)):.8g}") for z in np.linspace(-8, 8, 161)]),
        "partial_weight_sweep.csv": (
            ["partial_weight", "sigmoid_r2", "loglinear_r2", "rank_rho_vs_baseline"],
            [(f"{r['partial_weight']:.4g}", f"{r['sigmoid_r2']:.8g}",
              f"{r['loglinear_r2']:.8g}", f"{r['rank_rho_vs_baseline']:.8g}")
             for r in stats.partial_weight_sweep(
                 [grouped[c.model, c.topic] for c in fitted], baseline=baseline)]),
    }
