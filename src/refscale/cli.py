"""Command-line pipeline: ingest -> verify -> score -> fit -> theory ->
citetail -> report.

Every artifact is stamped with the config hash and seed, outputs are written
atomically, and a rerun with identical (dataset, fixtures, config, seed)
produces byte-identical files.

Exit codes: 0 success, 1 usage, 2 data error, 3 fixture/network error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

# numpy and the numeric modules (stats, theory, citetail, zipflaw) are
# imported by the commands that use them, so ingest, verify and score do not
# load numpy. Their functions are called through the module, where
# perfbench's tracer patches them, and never bound into this module's globals.
from .atomic import atomic_write, atomic_write_jsonl
from .citations import load_stopwords
from .dataset import (Dataset, IngestError, ObservationCell, build_record, cells_to_csv,
                      ingest_dataset, load_cells, model_quality)
from .openalex import FixtureMiss, OpenAlexClient
from .pipeline import FixtureMissBatch, group_cells, parse_corpus, score_corpus, verify_corpus
from .verification import VerificationResult, results_from_jsonl, results_to_jsonl

if TYPE_CHECKING:
    from .stats import SigmoidFit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_FIXTURE = 3

ZIPF_RESAMPLES = 1000


@dataclass
class RunConfig:
    dataset: str
    fixtures: str
    output_dir: str
    offline: bool = True
    partial_weight: float = 0.50
    contradiction_penalty: float = -1.0
    seed: int = 0
    moe_convention: str = "total"  # "total" or "active" for MoE P axis
    overlap_threshold: float = 0.5
    rate_limit: float = 5.0
    mailto: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.partial_weight <= 1.0:
            raise IngestError("partial_weight must be in [0, 1]")
        if self.moe_convention not in ("total", "active"):
            raise IngestError("moe_convention must be 'total' or 'active'")

    def hash(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def stamp(self) -> dict:
        return {"config_hash": self.hash(), "seed": self.seed}


def load_config(args: argparse.Namespace) -> RunConfig:
    """The config file's values, overridden by flags, checked field by field
    against ``RunConfig``: a fault names the file and the key."""
    values: dict = {}
    where = getattr(args, "config", None)
    if where:
        try:
            values = json.loads(Path(where).read_text())
        except json.JSONDecodeError as err:
            raise IngestError(f"{where}: invalid JSON: {err}") from err
        if not isinstance(values, dict):
            raise IngestError(f"{where}: expected a JSON object of config fields, "
                              f"got a {type(values).__name__}")
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    if values.get("mailto") is None:
        values["mailto"] = os.environ.get("REFSCALE_MAILTO")
    missing = [k for k in ("dataset", "fixtures", "output_dir") if not values.get(k)]
    if missing:
        raise UsageError(f"missing required config value(s): {', '.join(missing)}")
    return build_record(RunConfig, where or "flags", values)


class UsageError(Exception):
    pass


# -- stamped output helpers ----------------------------------------------------

def write_json(path: Path, payload: dict, config: RunConfig) -> None:
    payload = dict(payload)
    payload["meta"] = config.stamp()
    atomic_write(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def write_csv(path: Path, header: List[str], rows, config: RunConfig) -> None:
    import io

    buf = io.StringIO()
    buf.write(f"# config={config.hash()} seed={config.seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, buf.getvalue())


def _fmt(x: float, digits: int = 10) -> str:
    return f"{x:.{digits}g}"


class RunContext:
    """One command's inputs. Each is loaded on first use, through its loader
    and that loader's checks, and then shared by every stage the command runs."""

    def __init__(self, config: RunConfig):
        self.config = config

    def _upstream(self, name: str) -> Path:
        path = Path(self.config.output_dir) / name
        if not path.exists():
            raise IngestError(f"missing upstream artifact: {path}")
        return path

    @cached_property
    def dataset(self) -> Dataset:
        return ingest_dataset(self.config.dataset)

    @cached_property
    def results(self) -> Dict[Tuple[str, str, int], VerificationResult]:
        return results_from_jsonl(self._upstream("verification.jsonl"))

    @cached_property
    def cells(self) -> List[ObservationCell]:
        cells = load_cells(self._upstream("observations.csv"))
        missing_s = sorted({c.topic for c in cells if c.log10_s is None})
        if missing_s:
            raise IngestError("cells missing works count for topic(s): "
                              + ", ".join(missing_s))
        return cells

    @cached_property
    def fit(self) -> SigmoidFit:
        from .stats import SigmoidFit

        path = self._upstream("fit_report.json")
        try:
            return build_record(SigmoidFit, "sigmoid",
                                json.loads(path.read_text())["sigmoid"])
        except (KeyError, TypeError, ValueError) as err:
            raise IngestError(f"{path}: unreadable fit ({err!r}); re-run fit") from err


# -- subcommands ----------------------------------------------------------------

def cmd_ingest(ctx: RunContext) -> int:
    config, dataset = ctx.config, ctx.dataset
    counts = dataset.cell_counts()
    write_json(
        Path(config.output_dir) / "ingest_report.json",
        {
            "n_models": len(dataset.models),
            "n_topics": len(dataset.topics),
            "n_generations": len(dataset.generations),
            "n_cells": len(counts),
            "n_relevance_labels": len(dataset.relevance_labels),
        },
        config,
    )
    print(f"ingested {len(dataset.models)} models, {len(dataset.topics)} topics, "
          f"{len(counts)} populated cells")
    return EXIT_OK


def cmd_verify(ctx: RunContext) -> int:
    config = ctx.config
    corpus = parse_corpus(ctx.dataset)
    stopwords = load_stopwords()
    client = OpenAlexClient(fixtures=Path(config.fixtures), offline=config.offline,
                            rate_limit=config.rate_limit, mailto=config.mailto)
    results = verify_corpus(
        corpus, client, stopwords,
        overlap_threshold=config.overlap_threshold,
        contradiction_penalty=config.contradiction_penalty,
    )
    out = Path(config.output_dir)
    results_to_jsonl(results, corpus.refs, out / "verification.jsonl")
    acct = corpus.accounting
    write_json(out / "accounting.json",
               {"accounting": asdict(acct), "status_counts": _status_counts(results)},
               config)
    atomic_write_jsonl(out / "parse_failures.jsonl", corpus.failures)
    print(f"accounting: requested {acct.requested} / produced {acct.produced} "
          f"/ analysed {acct.analysed}")
    return EXIT_OK


def _status_counts(results) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for res in results.values():
        counts[res.status.value] = counts.get(res.status.value, 0) + 1
    return dict(sorted(counts.items()))


def cmd_score(ctx: RunContext) -> int:
    config, results, dataset = ctx.config, ctx.results, ctx.dataset
    cells, omitted = score_corpus(dataset, results, config.partial_weight,
                                  config.moe_convention)
    out = Path(config.output_dir)
    cells_to_csv(cells, out / "observations.csv")
    mq = model_quality(cells)
    write_csv(out / "model_quality.csv", ["model", "quality"],
              [(m, _fmt(q)) for m, q in mq.items()], config)
    if omitted:
        write_json(out / "omitted_cells.json",
                   {"omitted": [list(c) for c in omitted]}, config)
    else:
        # An earlier run's list would sit beside this run's cells.
        (out / "omitted_cells.json").unlink(missing_ok=True)
    print(f"scored {len(cells)} cells ({len(omitted)} omitted)")
    return EXIT_OK


def cmd_fit(ctx: RunContext) -> int:
    import numpy as np

    from . import stats, theory

    config, cells = ctx.config, ctx.cells
    # The sweep's per-reference inputs; a missing label fails before any write.
    sweep_cells = [c for c in group_cells(ctx.dataset, ctx.results,
                                          config.moe_convention).values()
                   if c.log10_p is not None and c.log10_s is not None]
    fitted = [c for c in cells if c.log10_p is not None]
    triples = [(c.log10_p, c.log10_s, c.quality) for c in fitted]
    sig = stats.fit_sigmoid(triples)
    arr = np.asarray(triples)
    two = stats.fit_ols(arr[:, :2], arr[:, 2])
    one = stats.fit_ols(arr[:, 0], arr[:, 2])
    f_stat, dof = stats.incremental_f(two, one)

    # Model-level log-linear fit (one point per model on the fit)
    by_model: Dict[str, List[ObservationCell]] = {}
    for cell in cells:
        by_model.setdefault(cell.model, []).append(cell)
    pts = [(on_fit[0].log10_p, float(np.mean([c.quality for c in on_fit])))
           for on_fit in ([c for c in by_model[m] if c.log10_p is not None]
                          for m in sorted(by_model)) if on_fit]
    model_fit = None
    if len(pts) >= 3:
        model_fit = stats.fit_ols([p for p, _ in pts], [q for _, q in pts])

    report = {
        "sigmoid": asdict(sig),
        "ols_cells_two_predictor": _ols_dict(two),
        "ols_cells_size_only": _ols_dict(one),
        "incremental_f": {"f": f_stat, "dof": list(dof)},
        "ols_model_level_size_only": _ols_dict(model_fit) if model_fit else None,
        "n_cells_fit": len(triples),
        "n_cells_total": len(cells),
    }
    out = Path(config.output_dir)
    write_json(out / "fit_report.json", report, config)

    # Per-model rank correlation of quality with content representation.
    per_model = []
    for model in sorted(by_model):
        sub = by_model[model]
        if len(sub) < 3:
            continue
        s_vals = [c.log10_s for c in sub]
        q_vals = [c.quality for c in sub]
        if np.ptp(s_vals) == 0 or np.ptp(q_vals) == 0:
            continue
        rho, p = stats.spearman(s_vals, q_vals)
        per_model.append((model, _fmt(rho, 6), _fmt(p, 6)))
    write_csv(out / "per_model_spearman.csv",
              ["model", "rho_quality_vs_log10_works", "p_two_sided"],
              per_model, config)

    # Regime classification per cell under the fitted parameters.
    regimes = []
    for c in fitted:
        z = sig.alpha * c.log10_p + sig.beta * c.log10_s + sig.gamma
        regimes.append((c.model, c.topic, _fmt(z, 6), theory.classify_regime(z)))
    write_csv(out / "regimes.csv", ["model", "topic", "z", "regime"],
              regimes, config)

    # Fitted-curve samples for external plotting.
    zs = np.linspace(-8, 8, 161)
    write_csv(out / "sigmoid_curve.csv", ["z", "quality"],
              [(_fmt(z, 6), _fmt(float(stats.sigmoid(z)), 8)) for z in zs], config)

    # Relevance-weight robustness sweep over the same cells, from their references.
    sweep_rows = stats.partial_weight_sweep(sweep_cells, baseline=config.partial_weight)
    write_csv(out / "partial_weight_sweep.csv",
              ["partial_weight", "sigmoid_r2", "loglinear_r2", "rank_rho_vs_baseline"],
              [(_fmt(r["partial_weight"], 4), _fmt(r["sigmoid_r2"], 8),
                _fmt(r["loglinear_r2"], 8), _fmt(r["rank_rho_vs_baseline"], 8))
               for r in sweep_rows],
              config)
    print(f"sigmoid fit: alpha={sig.alpha:.3f} beta={sig.beta:.3f} "
          f"gamma={sig.gamma:.3f} r2={sig.r2:.3f} (n={sig.n})")
    return EXIT_OK


def _ols_dict(fit) -> dict:
    return {
        "coefficients": list(map(float, fit.coefficients)),
        "standard_errors": list(map(float, fit.standard_errors)),
        "r2": fit.r2, "rss": fit.rss, "n": fit.n,
    }


def cmd_zipf(config: RunConfig, counts_path: str, window: int) -> int:
    from . import zipflaw

    counts = []
    n_rows = 0
    with open(counts_path, newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            n_rows += 1
            if len(row) < 2:
                raise IngestError(f"{counts_path}: line {reader.line_num} has no "
                                  f"count column: {','.join(row)!r}")
            try:
                count = float(row[1])
            except ValueError:
                if n_rows == 1:
                    continue  # a header, allowed only as the first row
                count = math.nan
            if not 0 <= count < math.inf:
                raise IngestError(f"{counts_path}: line {reader.line_num} has no "
                                  f"finite non-negative count: {row[1]!r}")
            if count == 0:
                raise IngestError(f"{counts_path}: line {reader.line_num} has "
                                  f"count {row[1]}; counts must be positive")
            counts.append(count)
    if not counts:
        raise IngestError(f"{counts_path}: no (concept, count) rows found")
    if window and not 3 <= window <= len(counts):
        raise IngestError(f"{counts_path}: --window {window} is outside "
                          f"[3, {len(counts)}], the number of counts")
    rf = zipflaw.rank_frequencies(counts)
    alpha_ols, se, r2 = zipflaw.fit_zipf_ols(rf)
    x_min = float(min(rf.frequencies))
    alpha_mle = zipflaw.fit_zipf_mle(rf.frequencies, x_min)
    ci = zipflaw.bootstrap_alpha_ci(rf.frequencies, x_min, resamples=ZIPF_RESAMPLES,
                                    seed=config.seed)
    out = Path(config.output_dir)
    write_json(out / "zipf_report.json", {
        "alpha_ols": alpha_ols, "alpha_ols_se": se, "ols_r2": r2,
        "alpha_mle": alpha_mle, "x_min": x_min,
        "bootstrap_ci": [ci.lower, ci.upper], "resamples": ZIPF_RESAMPLES,
        "n": len(rf),
    }, config)
    if window:
        profile = zipflaw.rolling_window_alpha(rf, window)
        write_csv(out / "zipf_rolling.csv", ["center_rank", "alpha_local"],
                  [(_fmt(c, 8), _fmt(a, 8)) for c, a in profile], config)
    else:
        # window is not a config field: an earlier run's profile would carry
        # this run's stamp.
        (out / "zipf_rolling.csv").unlink(missing_ok=True)
    print(f"zipf: OLS alpha={alpha_ols:.3f} (r2={r2:.3f}), MLE alpha={alpha_mle:.3f}")
    return EXIT_OK


def cmd_theory(ctx: RunContext) -> int:
    import numpy as np

    from . import theory

    config, fit = ctx.config, ctx.fit
    out = Path(config.output_dir)
    lin = theory.linearize(fit)
    slope_table = []
    for alpha_z in (1.00, 1.23, 1.24):
        m_max = theory.reference_slope(alpha_z)
        slope_table.append({
            "alpha_z": alpha_z,
            "m_max": round(m_max, 3),
            "efficiency_at_m": round(
                theory.efficiency(lin.m, round(m_max, 3)), 4),
        })
    report = {
        "fit": asdict(fit),
        "linearized": {"m": lin.m, "n": lin.n, "c": lin.c,
                       "m_ceiling": lin.m_ceiling, "n_ceiling": lin.n_ceiling},
        "reference_slopes": slope_table,
        "required_params_q90_s32_billions": theory.required_params(0.90, 32, fit),
        "recall_threshold_log10_s_at_405b": theory.required_content(405, fit),
    }
    write_json(out / "theory_report.json", report, config)

    # Simulator sweep for plotting: recall fraction and linked quality.
    exps = theory.TheoryExponents(alpha_z=1.23).calibrated(100_000)
    link = theory.QualityLink(a=1.0, b=0.0)
    rows = []
    for log_p in np.linspace(0, 4, 17):
        for log_s in (2.0, 4.0, 6.0):
            cfg_sim = theory.SimConfig(
                m=100_000, p=10 ** log_p, s=10 ** log_s, exponents=exps)
            _, q_frac = theory.simulate_recall(cfg_sim)
            quality = (theory.quality_from_Q(q_frac, link)
                       if q_frac > 0 else 0.0)
            rows.append((_fmt(log_p, 6), _fmt(log_s, 6),
                         _fmt(q_frac, 8), _fmt(quality, 8)))
    write_csv(out / "sim_sweep.csv",
              ["log10_P", "log10_S", "Q", "quality"], rows, config)
    print(f"theory: m={lin.m:.3f} n={lin.n:.3f} c={lin.c:.4f}")
    return EXIT_OK


def cmd_citetail(ctx: RunContext, min_n: int) -> int:
    from . import citetail

    config = ctx.config
    samples = citetail.build_citation_samples(ctx.results)
    params = {name: spec.fit_params(config.moe_convention)
              for name, spec in ctx.dataset.models.items()}
    report = citetail.citation_gradient(samples, params, min_n=min_n)
    out = Path(config.output_dir)
    rows = []
    for model in report.included_models:
        ci = report.medians[model]
        n_matched = len(next(s for s in samples if s.model == model).matched)
        rows.append((model, _fmt(float(params[model]), 8), n_matched,
                     _fmt(ci.point, 8), _fmt(ci.lower, 8), _fmt(ci.upper, 8)))
    write_csv(out / "citation_gradient.csv",
              ["model", "params_billions", "n_matched", "median",
               "ci_low", "ci_high"], rows, config)
    write_json(out / "citetail_report.json", {
        "weighted_fit": _ols_dict(report.fit),
        "spearman_rho": report.spearman_rho,
        "spearman_p": report.spearman_p,
        "included_models": report.included_models,
        "excluded_models": report.excluded_models,
        "min_n": min_n,
        "accounting": {
            s.model: {"n_matched": len(s.matched),
                      "n_excluded_status": s.n_excluded_status}
            for s in samples
        },
    }, config)
    print(f"citetail: slope={report.fit.slopes[0]:.3f} "
          f"rho={report.spearman_rho:.3f} over {len(report.included_models)} models")
    return EXIT_OK


def cmd_report(ctx: RunContext, min_n: int) -> int:
    config = ctx.config
    out = Path(config.output_dir)
    # Each stage by its module-level name, which perfbench's tracer patches.
    cmd_score(ctx)
    cmd_fit(ctx)
    cmd_theory(ctx)
    try:
        cmd_citetail(ctx, min_n=min_n)
    except ValueError as err:
        # min_n is not a config field: an earlier run's table would carry
        # this run's stamp.
        (out / "citation_gradient.csv").unlink(missing_ok=True)
        write_json(out / "citetail_report.json",
                   {"skipped": str(err)}, config)

    # Model x topic quality matrix.
    cells = ctx.cells
    quality = {(c.model, c.topic): c.quality for c in cells}
    log10_s = {c.topic: c.log10_s for c in cells}
    # Name breaks ties, so the order does not follow the hash seed.
    topics = sorted(log10_s, key=lambda t: (-log10_s[t], t))
    matrix = [[model] + [_fmt(quality[model, t]) if (model, t) in quality else ""
                         for t in topics]
              for model in sorted({c.model for c in cells})]
    write_csv(out / "quality_matrix.csv", ["model"] + topics, matrix, config)

    summary = [
        f"run config hash: {config.hash()}  seed: {config.seed}",
        f"artifacts in: {out}",
    ]
    sig = ctx.fit
    summary.append(f"sigmoid: alpha={sig.alpha:.3f} beta={sig.beta:.3f} "
                   f"gamma={sig.gamma:.3f} r2={sig.r2:.3f} n={sig.n}")
    atomic_write(out / "summary.txt", "\n".join(summary) + "\n")
    print("\n".join(summary))
    return EXIT_OK


# -- entry point ----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="refscale",
                     description="Scholarly-reference recall measurement pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override")
        p.add_argument("--dataset")
        p.add_argument("--fixtures")
        p.add_argument("--output-dir", dest="output_dir")
        p.add_argument("--offline", dest="offline", action="store_true",
                       default=None)
        p.add_argument("--live", dest="offline", action="store_false")
        p.add_argument("--partial-weight", dest="partial_weight", type=float)
        p.add_argument("--contradiction-penalty", dest="contradiction_penalty",
                       type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--moe-convention", dest="moe_convention",
                       choices=("total", "active"))
        p.add_argument("--overlap-threshold", dest="overlap_threshold", type=float)
        p.add_argument("--rate-limit", dest="rate_limit", type=float)
        p.add_argument("--mailto")

    for name in ("ingest", "verify", "score", "fit", "theory"):
        common(sub.add_parser(name))
    p_zipf = sub.add_parser("zipf")
    common(p_zipf)
    p_zipf.add_argument("--counts", required=True,
                        help="CSV of (concept, count) rows")
    p_zipf.add_argument("--window", type=int, default=0)
    for name in ("citetail", "report"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--min-n", dest="min_n", type=int, default=50)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = load_config(args)
        ctx = RunContext(config)
        run = {
            "ingest": lambda: cmd_ingest(ctx),
            "verify": lambda: cmd_verify(ctx),
            "score": lambda: cmd_score(ctx),
            "fit": lambda: cmd_fit(ctx),
            "zipf": lambda: cmd_zipf(config, args.counts, args.window),
            "theory": lambda: cmd_theory(ctx),
            "citetail": lambda: cmd_citetail(ctx, args.min_n),
            "report": lambda: cmd_report(ctx, args.min_n),
        }[args.command]
        return run()
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, IngestError, ValueError) as err:
        # A missing input file is a data error; other I/O failures are the
        # fixture store's or the network's.
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (FixtureMissBatch, FixtureMiss, IOError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FIXTURE


if __name__ == "__main__":
    sys.exit(main())
