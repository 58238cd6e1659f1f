"""In-process span tracer for the per-layer benchmark run.

Wrappers are installed around the public functions of each refscale module
from outside the package: every module namespace that holds a target (the
CLI imports most functions by name) gets the wrapper, and everything is
restored on exit. Each call records a span (name, start, end, parent) in
flat arrays held in memory; self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Tuple

# (span name, module, attribute path). Span names are the per-layer metric
# prefixes in BENCHMARK.json; each comment names the end-to-end metric and
# workload the layer is expected to move.
TARGETS: List[Tuple[str, str, str]] = [
    # Stage bodies, without interpreter start-up (cli.import_s, measured in a
    # fresh interpreter, is most of pipeline_s on demo).
    *[(f"cli.cmd_{c}", "refscale.cli", f"cmd_{c}")
      for c in ("verify", "score", "fit", "theory", "citetail", "report", "zipf")],
    # report_s on scale10k: report ingests three times and parses twice.
    ("dataset.ingest_dataset", "refscale.dataset", "ingest_dataset"),
    ("pipeline.parse_corpus", "refscale.pipeline", "parse_corpus"),
    # verify_s on scale10k.
    ("pipeline.verify_corpus", "refscale.pipeline", "verify_corpus"),
    ("pipeline.score_corpus", "refscale.pipeline", "score_corpus"),
    ("verification.verify_reference", "refscale.verification", "verify_reference"),
    # verify_s and report_s on scale10k, where titles repeat about 3 times.
    ("citations.normalize_title", "refscale.citations", "normalize_title"),
    ("citations.parse_apa", "refscale.citations", "parse_apa"),
    ("openalex.search_candidates", "refscale.openalex", "OpenAlexClient.search_candidates"),
    ("openalex.FixtureCache.get", "refscale.openalex", "FixtureCache.get"),
    # report_s on panel9, where per-model and sweep Spearman take the exact
    # n=9 permutation path.
    ("stats.spearman", "refscale.stats", "spearman"),
    ("stats.fit_sigmoid", "refscale.stats", "fit_sigmoid"),
    ("stats.partial_weight_sweep", "refscale.stats", "partial_weight_sweep"),
    # report_s and peak_rss_mb on scale10k.
    ("stats.bootstrap_median_ci", "refscale.stats", "bootstrap_median_ci"),
    ("citetail.build_citation_samples", "refscale.citetail", "build_citation_samples"),
    ("citetail.citation_gradient", "refscale.citetail", "citation_gradient"),
    # A fixed 51-point sweep in every workload; dominates none.
    ("theory.simulate_recall", "refscale.theory", "simulate_recall"),
    # pipeline_s and peak_rss_mb on panel9, the only workload running zipf.
    ("zipflaw.bootstrap_alpha_ci", "refscale.zipflaw", "bootstrap_alpha_ci"),
    ("zipflaw.rolling_window_alpha", "refscale.zipflaw", "rolling_window_alpha"),
]

# Spans whose tracemalloc peak is recorded as <name>.peak_mb.
PEAK_MEMORY = {"stats.bootstrap_median_ci", "zipflaw.bootstrap_alpha_ci"}

FIXTURE_GET = "openalex.FixtureCache.get"


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.peak_bytes: Dict[str, int] = {}
        self.fixture_bytes = 0
        self.fingerprints = set()

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        peak = name in PEAK_MEMORY
        fixture_get = name == FIXTURE_GET
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(0)
            self.end.append(0)
            self._stack.append(idx)
            if peak:
                tracemalloc.start()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                if peak:
                    _, top = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), top)
            if fixture_get and result is not None:
                cache, fingerprint = args[0], args[1]
                self.fingerprints.add(fingerprint)
                self.fixture_bytes += cache._path(fingerprint).stat().st_size
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every refscale namespace holding a target; restore on exit."""
        undo: List[Tuple[object, str, object]] = []
        try:
            for name, module_name, attr in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapper = self._span_wrapper(name, original)
                holders = [owner] + [
                    mod for key, mod in list(sys.modules.items())
                    if (key == "refscale" or key.startswith("refscale."))
                    and mod is not owner
                ]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            undo.append((holder, key, value))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, value in reversed(undo):
                setattr(holder, key, value)

    # -- aggregation ------------------------------------------------------------

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, total ms, self ms, and calls per root span."""
        n = len(self.start)
        child_ns = [0] * n
        root = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
                root[i] = root[p]  # parents precede their children
            else:
                root[i] = i
        out: Dict[str, dict] = {
            name: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "calls_by_root": {}}
            for name in self.names
        }
        for i in range(n):
            rec = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["ms"] += dur / 1e6
            rec["self_ms"] += (dur - child_ns[i]) / 1e6
            root_name = self.names[self.name_id[root[i]]]
            rec["calls_by_root"][root_name] = rec["calls_by_root"].get(root_name, 0) + 1
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
        }))
