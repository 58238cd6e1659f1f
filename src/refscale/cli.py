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
import io
import json
import os
import sys
from collections import Counter
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

# numpy and stats, scalinglaw, theory, citetail and zipflaw are imported by
# the commands that use them, so ingest, verify and score do not load numpy.
# Their functions are called through the module, where perfbench's tracer
# patches them, and never bound into this module's globals.
from .atomic import atomic_write
from .citations import load_stopwords
from .dataset import (Dataset, ObservationCell, cells_to_csv, ingest_dataset, model_quality,
                      quality_matrix, rounded_cells)
from .openalex import OpenAlexClient
from .pipeline import (CellRefs, FixtureMissBatch, group_cells, parse_corpus, score_corpus,
                       verify_corpus)
from .records import IngestError, build_record
from .verification import VerificationResult, results_from_jsonl, results_to_jsonl

if TYPE_CHECKING:
    from .stats import SigmoidFit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_FIXTURE = 3


@dataclass
class RunConfig:
    output_dir: str
    dataset: Optional[str] = None
    fixtures: Optional[str] = None
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
        if not 0.0 <= self.overlap_threshold <= 1.0:
            raise IngestError("overlap_threshold must be in [0, 1]")
        if self.contradiction_penalty > 0.0:
            raise IngestError("contradiction_penalty must be at most 0")
        if self.seed < 0:
            raise IngestError("seed must be at least 0")
        if self.moe_convention not in ("total", "active"):
            raise IngestError("moe_convention must be 'total' or 'active'")

    def hash(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_config(args: argparse.Namespace) -> RunConfig:
    """The config file's values, overridden by flags, checked field by field
    against ``RunConfig``: a fault names the file and the key. A path the
    command reads, or the output directory, missing is a usage error."""
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
    reads = {"verify": ("dataset", "fixtures"), "zipf": (), "theory": ()}
    missing = [k for k in ("output_dir", *reads.get(args.command, ("dataset",)))
               if not values.get(k)]
    if missing:
        raise UsageError(f"missing required config value(s): {', '.join(missing)}")
    return build_record(RunConfig, where or "flags", values)


class UsageError(Exception):
    pass


# -- the one writer -------------------------------------------------------------

def write_artifacts(config: RunConfig, artifacts: Dict[str, object]) -> None:
    """Write a stage's artifacts, by file name, into the output directory; the
    only code that writes there. The content's type sets the format:

    - a dict: JSON, stamped with the config hash and seed under a "meta" key;
    - a (header, rows) tuple: CSV under a "# config=... seed=..." stamp line;
    - a str: written as given, unstamped;
    - any other iterable of dicts: one sorted-key JSON line per record,
      unstamped.

    None removes the file: an artifact its stage did not produce this run would
    otherwise sit beside this run's, and --window and --min-n, which decide
    some of them, are not in the stamp."""
    out = Path(config.output_dir)
    for name, content in artifacts.items():
        if content is None:
            (out / name).unlink(missing_ok=True)
        elif isinstance(content, dict):
            meta = {"config_hash": config.hash(), "seed": config.seed}
            atomic_write(out / name, json.dumps({**content, "meta": meta},
                                                indent=1, sort_keys=True) + "\n")
        elif isinstance(content, str):
            atomic_write(out / name, content)
        elif isinstance(content, tuple):
            header, rows = content
            buf = io.StringIO()
            buf.write(f"# config={config.hash()} seed={config.seed}\n")
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            atomic_write(out / name, buf.getvalue())
        else:
            atomic_write(out / name, "".join(json.dumps(rec, sort_keys=True) + "\n"
                                             for rec in content))


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
    def grouped(self) -> Dict[Tuple[str, str], CellRefs]:
        """The results grouped by cell, for scoring and the sweep; a missing
        relevance label fails here."""
        return group_cells(self.dataset, self.results, self.config.moe_convention)

    @cached_property
    def scored(self) -> Tuple[List[ObservationCell], List[Tuple[str, str]]]:
        """(cells, omitted cells) of the one scoring pass over the grouping."""
        return score_corpus(self.dataset, self.grouped, self.config.partial_weight)

    @cached_property
    def cells(self) -> List[ObservationCell]:
        """The scored cells as ``observations.csv`` holds them, for the fit."""
        return rounded_cells(self.scored[0])

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
    write_artifacts(config, {"ingest_report.json": {
        "n_models": len(dataset.models),
        "n_topics": len(dataset.topics),
        "n_generations": len(dataset.generations),
        "n_cells": len(dataset.generations),  # one generation per cell
        "n_relevance_labels": len(dataset.relevance_labels),
    }})
    print(f"ingested {len(dataset.models)} models, {len(dataset.topics)} topics, "
          f"{len(dataset.generations)} populated cells")
    return EXIT_OK


def cmd_verify(ctx: RunContext) -> int:
    config = ctx.config
    corpus = parse_corpus(ctx.dataset)
    client = OpenAlexClient(fixtures=Path(config.fixtures), offline=config.offline,
                            rate_limit=config.rate_limit, mailto=config.mailto)
    results = verify_corpus(
        corpus, client, load_stopwords(),
        overlap_threshold=config.overlap_threshold,
        contradiction_penalty=config.contradiction_penalty,
    )
    acct = corpus.accounting
    status_counts = Counter(res.status.value for res in results.values())
    write_artifacts(config, {
        "verification.jsonl": results_to_jsonl(results, corpus.refs),
        "parse_failures.jsonl": corpus.failures,
        "accounting.json": {"accounting": asdict(acct),
                            "status_counts": dict(sorted(status_counts.items()))}})
    print(f"accounting: requested {acct.requested} / produced {acct.produced} "
          f"/ analysed {acct.analysed}")
    return EXIT_OK


def cmd_score(ctx: RunContext) -> int:
    config = ctx.config
    cells, omitted = ctx.scored
    write_artifacts(config, {
        "observations.csv": cells_to_csv(cells),
        "model_quality.csv": (["model", "quality"], [
            (m, f"{q:.10g}") for m, q in model_quality(cells).items()]),
        "omitted_cells.json": {"omitted": [list(c) for c in omitted]} if omitted else None,
    })
    print(f"scored {len(cells)} cells ({len(omitted)} omitted)")
    return EXIT_OK


def cmd_fit(ctx: RunContext) -> int:
    from . import scalinglaw

    # One grouping for the cells and the sweep; a missing label fails before any write.
    artifacts = scalinglaw.fit_artifacts(ctx.cells, ctx.grouped, ctx.config.partial_weight)
    write_artifacts(ctx.config, artifacts)
    print("sigmoid fit: alpha={alpha:.3f} beta={beta:.3f} gamma={gamma:.3f} "
          "r2={r2:.3f} (n={n})".format(**artifacts["fit_report.json"]["sigmoid"]))
    return EXIT_OK


def cmd_zipf(config: RunConfig, counts_path: str, window: int) -> int:
    from . import zipflaw

    counts = zipflaw.read_counts(counts_path)
    if window and not 3 <= window <= len(counts):
        raise IngestError(f"{counts_path}: --window {window} is outside "
                          f"[3, {len(counts)}], the number of counts")
    artifacts = zipflaw.zipf_artifacts(counts, window, config.seed)
    write_artifacts(config, artifacts)
    print("zipf: OLS alpha={alpha_ols:.3f} (r2={ols_r2:.3f}), "
          "MLE alpha={alpha_mle:.3f}".format(**artifacts["zipf_report.json"]))
    return EXIT_OK


def cmd_theory(ctx: RunContext) -> int:
    from . import theory

    try:
        artifacts = theory.theory_artifacts(ctx.fit)
    except ValueError as err:
        # Every value the theory refuses comes from the fit it reads.
        raise IngestError(f"{ctx._upstream('fit_report.json')}: {err}") from err
    write_artifacts(ctx.config, artifacts)
    print("theory: m={m:.3f} n={n:.3f} c={c:.4f}".format(
        **artifacts["theory_report.json"]["linearized"]))
    return EXIT_OK


def cmd_citetail(ctx: RunContext, min_n: int) -> int:
    from . import citetail

    config = ctx.config
    params = {name: spec.fit_params(config.moe_convention)
              for name, spec in ctx.dataset.models.items()}
    artifacts = citetail.citetail_artifacts(ctx.results, params, min_n)
    write_artifacts(config, artifacts)
    report = artifacts["citetail_report.json"]
    print(f"citetail: slope={report['weighted_fit']['coefficients'][1]:.3f} "
          f"rho={report['spearman_rho']:.3f} over {len(report['included_models'])} models")
    return EXIT_OK


def cmd_report(ctx: RunContext, min_n: int) -> int:
    from . import citetail

    config = ctx.config
    # Each stage by its module-level name, which perfbench's tracer patches.
    cmd_score(ctx)
    cmd_fit(ctx)
    cmd_theory(ctx)
    try:
        cmd_citetail(ctx, min_n=min_n)
    except citetail.TooFewModels as err:
        write_artifacts(config, {"citation_gradient.csv": None,
                                 "citetail_report.json": {"skipped": str(err)}})
    sig = ctx.fit
    summary = "\n".join([
        f"run config hash: {config.hash()}  seed: {config.seed}",
        f"artifacts in: {Path(config.output_dir)}",
        f"sigmoid: alpha={sig.alpha:.3f} beta={sig.beta:.3f} "
        f"gamma={sig.gamma:.3f} r2={sig.r2:.3f} n={sig.n}",
    ])
    write_artifacts(config, {"quality_matrix.csv": quality_matrix(ctx.cells),
                             "summary.txt": summary + "\n"})
    print(summary)
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
        out = Path(config.output_dir)
        found = next(p for p in (out, *out.parents) if p.exists())
        if not found.is_dir():
            raise IngestError(f"output_dir {out}: {found} is not a directory")
        if getattr(args, "min_n", 2) < 2:
            raise IngestError(f"--min-n {args.min_n} is below 2, the fewest "
                              "references a median's bootstrap CI needs")
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
    except (FileNotFoundError, IsADirectoryError, IngestError, ValueError) as err:
        # A missing input file, or a directory in its place, is a data error;
        # other I/O failures are the fixture store's or the network's.
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (FixtureMissBatch, IOError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FIXTURE


if __name__ == "__main__":
    sys.exit(main())
