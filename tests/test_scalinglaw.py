import math
import re
from dataclasses import replace

import pytest

from refscale.dataset import ObservationCell
from refscale.pipeline import CellRefs
from refscale.records import IngestError
from refscale.scalinglaw import fit_artifacts, fit_population
from refscale.stats import sigmoid
from refscale.verification import RelevanceLabel

TRUTH = (1.2, 0.5, -4.0)


def _law_corpus(works=(1e3, 1e4, 1e5, 1e6, 1e7)):
    """Cells whose quality follows sigma(1.2 log10 P + 0.5 log10 S - 4) to the
    nearest 1/100, each scored from 100 YES references of authenticity 0 or 1,
    as ``score`` would; "unsized" has no P, so its cells are off the fit."""
    cells, grouped = [], {}
    sizes = {"m1": 1.0, "m3": 3.0, "m8": 8.0, "m27": 27.0, "m70": 70.0, "m405": 405.0,
             "unsized": None}
    for model, p in sorted(sizes.items()):
        for k, s in enumerate(works):
            topic = f"t{k}"
            x = None if p is None else math.log10(p)
            z = TRUTH[0] * (math.log10(8.0) if x is None else x) \
                + TRUTH[1] * math.log10(s) + TRUTH[2]
            hits = round(100 * float(sigmoid(z)))
            refs = [(float(i < hits), RelevanceLabel.YES) for i in range(100)]
            grouped[model, topic] = CellRefs(model, x, math.log10(s), refs)
            cells.append(ObservationCell(model, topic, x, math.log10(s), hits / 100))
    return cells, grouped


def test_fit_report_holds_the_population_fit():
    cells, grouped = _law_corpus()
    report = fit_artifacts(cells, grouped, baseline=0.5)["fit_report.json"]
    population = fit_population([c for c in cells if c.log10_p is not None])
    assert report == {**population, "n_cells_total": 35}
    assert population["n_cells_fit"] == 30
    sig = population["sigmoid"]
    assert sig["converged"] and sig["r2"] > 0.99
    assert [sig["alpha"], sig["beta"], sig["gamma"]] == pytest.approx(TRUTH, abs=0.1)
    assert population["ols_model_level_size_only"]["n"] == 6


def test_cell_without_works_count_is_refused():
    cells, grouped = _law_corpus(works=(1e3, 1e4, 1e5, 1e6))
    cells.append(ObservationCell("m8", "no-works", math.log10(8.0), None, 0.5))
    with pytest.raises(IngestError, match=r"^cells missing works count for topic\(s\): no-works$"):
        fit_artifacts(cells, grouped, baseline=0.5)


@pytest.mark.parametrize("edit, message", [
    (lambda c: replace(c, log10_p=None), "no cell is on the fit: no model has a parameter count"),
    (lambda c: replace(c, log10_p=1.0),
     "the 35 cell(s) on the fit share one P (log10 P = 1); the fit needs two distinct values"),
    (lambda c: replace(c, log10_s=4.0) if c.log10_p is not None else c,
     "the 30 cell(s) on the fit share one S (log10 S = 4); the fit needs two distinct values"),
], ids=["no-p", "one-p", "one-s"])
def test_population_that_cannot_be_fitted_is_refused(edit, message):
    cells, grouped = _law_corpus()
    with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
        fit_artifacts([edit(c) for c in cells], grouped, baseline=0.5)
