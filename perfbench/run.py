"""Cold-CLI benchmark for the refscale pipeline.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 30 --trace 0

Untraced (``--trace 0``): builds the workload's inputs from the seed, then
runs the workload's command sequence through ``python -m refscale.cli`` as
cold child processes, one at a time (a closed loop with one client: the next
command starts when the previous one exits), repeating the sequence with a
fresh output directory for as many whole repetitions as fit in ``--seconds``
(at least two). It checks every command's outputs and prints the end-to-end
metrics.

Traced (``--trace 1``): one cold repetition for reference, a fault-injection
case, then the same sequence in this process: an untraced warm-up, then
pairs of an untraced pass and a pass with span wrappers installed around
each module's public functions (see ``tracing.py``), in alternating order,
for at least two pairs and as many as fit in ``--seconds``. It prints the
per-layer metrics of the first traced pass, the self-checks and the tracing
overhead (the median over pairs of traced against untraced wall time).

Every command runs from the workload root with relative paths
(``--dataset dataset.json --fixtures fixtures --output-dir out``), because
the config hash stamped into every artifact includes the path strings; the
bundle sha256 printed here is therefore comparable across checkouts.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Metric names and units come from
``BENCHMARK.json`` at the repository root. Work files go under
``.bench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DEMO = ROOT / "data" / "demo"
WORK = ROOT / ".bench_work"
# Deleting thousands of files makes file creation on the same file system
# several times slower for tens of seconds, and a run that deleted its last
# tree made the next run's set-up up to ten times slower. Old work trees are
# therefore moved here and deleted together once TRASH_TREES have gathered.
TRASH = WORK / "trash"
TRASH_TREES = 10
COMMAND_TIMEOUT_S = 150
IMPORT_PROBES = 3

PATHS = ["--dataset", "dataset.json", "--fixtures", "fixtures", "--output-dir", "out"]

# Workload -> (command sequence, set-up samples, set-ups per sample). Each
# sample times a batch of set-ups into fresh directories; setup_s is the
# median over samples of the time per set-up. The demo copy takes only
# milliseconds, so several copies make one sample.
WORKLOADS = {
    "demo": ([["verify"], ["score"], ["fit"], ["theory"],
              ["citetail", "--min-n", "10"], ["report", "--min-n", "10"]], 7, 4),
    "scale10k": ([["verify"], ["report"]], 3, 1),
    "panel9": ([["verify"], ["report"],
                ["zipf", "--counts", "counts.csv", "--window", "50"]], 5, 1),
}

# Artifacts each stage writes, from the README's pipeline-stage table.
# omitted_cells.json is written only when a cell has no analysed reference.
VERIFY_ARTIFACTS = ["verification.jsonl", "accounting.json", "parse_failures.jsonl"]
SCORE_ARTIFACTS = ["observations.csv", "model_quality.csv"]
FIT_ARTIFACTS = ["fit_report.json", "per_model_spearman.csv", "regimes.csv",
                 "sigmoid_curve.csv", "partial_weight_sweep.csv"]
THEORY_ARTIFACTS = ["theory_report.json", "sim_sweep.csv"]
CITETAIL_ARTIFACTS = ["citation_gradient.csv", "citetail_report.json"]
ARTIFACTS = {
    "verify": VERIFY_ARTIFACTS,
    "score": SCORE_ARTIFACTS,
    "fit": FIT_ARTIFACTS,
    "theory": THEORY_ARTIFACTS,
    "citetail": CITETAIL_ARTIFACTS,
    "report": SCORE_ARTIFACTS + FIT_ARTIFACTS + THEORY_ARTIFACTS
    + CITETAIL_ARTIFACTS + ["quality_matrix.csv", "summary.txt"],
    "zipf": ["zipf_report.json", "zipf_rolling.csv"],
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program or inputs)."""


@dataclass
class CommandRun:
    name: str
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    stderr: str
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def count(self, run: CommandRun) -> None:
        self.attempted += 1
        if not run.ok:
            self.failed += 1
            self.problems += run.problems or [f"{run.name}: exit {run.exit_code}"]

    def check(self, ok: bool, problem: str) -> None:
        """A correctness condition that is not a command of its own."""
        if not ok:
            self.problems.append(problem)


# -- inputs ----------------------------------------------------------------------

def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode() + b"\0")
            h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def set_up(workload: str, seed: int, dest: Path) -> None:
    """Write the workload's dataset and fixtures into ``dest``."""
    if workload == "demo":
        dest.mkdir(parents=True)
        shutil.copyfile(DEMO / "dataset.json", dest / "dataset.json")
        shutil.copytree(DEMO / "fixtures", dest / "fixtures")
    else:
        import corpus

        corpus.generate(workload, seed, dest)


def corpus_shape(root: Path) -> dict:
    doc = json.loads((root / "dataset.json").read_text())
    fixtures = list((root / "fixtures").glob("*.json"))
    return {
        "models": len(doc["models"]),
        "topics": len(doc["topics"]),
        "fixtures": len(fixtures),
        "fixture_mb": sum(p.stat().st_size for p in fixtures) / 1e6,
        # One works_count fixture per topic; the rest are title searches.
        "distinct_titles": len(fixtures) - len(doc["topics"]),
    }


# -- cold child processes ----------------------------------------------------------

def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env.pop("REFSCALE_MAILTO", None)  # part of the stamped config hash
    return env


def run_child(name: str, argv: List[str], cwd: Path, logs: Path) -> CommandRun:
    """Run one child to completion; peak RSS comes from this child's own
    rusage (``wait4``), not the running maximum over all children."""
    logs.mkdir(parents=True, exist_ok=True)
    err_path = logs / "stderr.txt"
    with open(logs / "stdout.txt", "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=child_env(),
                                stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandRun(name=name, exit_code=proc.returncode, wall_s=wall,
                      peak_rss_mb=usage.ru_maxrss / 1024.0,
                      stderr=err_path.read_text(errors="replace"))


def cli_argv(command: List[str]) -> List[str]:
    return ["-m", "refscale.cli", *command, *PATHS]


def check_outputs(command: str, out: Path) -> List[str]:
    problems = [f"{command}: missing {name}" for name in ARTIFACTS[command]
                if not (out / name).is_file()]
    if command == "verify" and not problems:
        problems += check_funnel(out)
    return problems


def check_funnel(out: Path) -> List[str]:
    doc = json.loads((out / "accounting.json").read_text())
    acct, statuses = doc["accounting"], doc["status_counts"]
    problems = []
    if not acct["requested"] >= acct["produced"] >= acct["analysed"] > 0:
        problems.append(f"funnel violated: {acct}")
    if sum(statuses.values()) != acct["analysed"]:
        problems.append(f"status counts {statuses} do not sum to "
                        f"analysed {acct['analysed']}")
    lines = (out / "verification.jsonl").read_text().count("\n")
    if lines != acct["analysed"]:
        problems.append(f"verification.jsonl has {lines} records, "
                        f"analysed is {acct['analysed']}")
    return problems


def analysed(out: Path) -> int:
    """Analysed references from verify's accounting, 0 if verify failed."""
    path = out / "accounting.json"
    if not path.is_file():
        return 0
    return json.loads(path.read_text())["accounting"]["analysed"]


@dataclass
class Repetition:
    runs: List[CommandRun]
    bundle: str

    @property
    def wall_s(self) -> float:
        """The commands' own wall times, without the checks between them."""
        return sum(run.wall_s for run in self.runs)


def run_sequence(commands: List[List[str]], root: Path, tally: Tally,
                 expected_bundle: Optional[str] = None) -> Repetition:
    """One cold repetition of the workload's commands into a fresh ``out``."""
    out = root / "out"
    shutil.rmtree(out, ignore_errors=True)
    runs = []
    for command in commands:
        run = run_child(command[0], cli_argv(command), root, root / "logs")
        if run.exit_code == 0:
            run.problems = check_outputs(command[0], out)
        runs.append(run)
    return Repetition(runs, settle(runs, out, tally, expected_bundle))


def settle(runs: List[CommandRun], out: Path, tally: Tally,
           expected_bundle: Optional[str]) -> str:
    """Count the runs; a bundle that differs from ``expected_bundle`` fails
    the last command. Returns the bundle digest."""
    bundle = tree_digest(out)
    if expected_bundle is not None and bundle != expected_bundle:
        runs[-1].problems.append(f"bundle {bundle[:16]} differs from the first "
                                 f"cold repetition's {expected_bundle[:16]}")
    for run in runs:
        tally.count(run)
    return bundle


def fault_injection(root: Path) -> str:
    """Delete one queried fixture: verify must fail with exit 3 naming it.
    Returns a problem description, or '' when the program behaved."""
    for path in sorted((root / "fixtures").glob("*.json")):
        if json.loads(path.read_text())["request"]["endpoint"] == "works_search":
            break
    held = root / "held_out_fixture.json"
    os.replace(path, held)
    try:
        command = ["verify", *PATHS[:-1], "out_fault"]
        run = run_child("verify (fixture deleted)", ["-m", "refscale.cli", *command],
                        root, root / "logs")
    finally:
        os.replace(held, path)
        shutil.rmtree(root / "out_fault", ignore_errors=True)
    print(f"fault injection: verify without fixture {path.stem[:16]} exited "
          f"{run.exit_code} (expected 3)")
    if run.exit_code != 3 or path.stem not in run.stderr:
        return f"fault injection: exit {run.exit_code}, stderr {run.stderr[-300:]!r}"
    return ""


def import_probe(root: Path, tally: Tally) -> float:
    run = run_child("import", ["-c", "import refscale.cli"], root, root / "logs")
    tally.count(run)
    return run.wall_s


# -- workload preparation -------------------------------------------------------------

def prepare(workload: str, seed: int, samples: int, batch: int, tally: Tally):
    """Time ``samples`` batches of ``batch`` set-ups into fresh directories
    and check every copy is byte-identical; the first is the workload root.
    Returns the root and the seconds per set-up of each batch."""
    work = WORK / workload
    if work.exists():
        TRASH.mkdir(parents=True, exist_ok=True)
        os.replace(work, TRASH / f"{workload}-{time.time_ns()}")
    if workload != "demo":
        import corpus  # noqa: F401  (its imports are not part of set-up)
    times, dests = [], []
    for _ in range(samples):
        todo = [work / f"setup{len(dests) + k}" for k in range(batch)]
        t0 = time.perf_counter()
        for dest in todo:
            set_up(workload, seed, dest)
        times.append((time.perf_counter() - t0) / batch)
        dests += todo
    digests = [tree_digest(dest) for dest in dests]
    tally.check(len(set(digests)) == 1, f"set-up is not deterministic: {set(digests)}")
    if workload == "demo":
        tally.check(digests[0] == tree_digest(DEMO), "demo copy differs from data/demo")
    root = work / "setup0"
    return root, times


# -- untraced run --------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float) -> Tuple[Dict[str, float], Tally]:
    commands, samples, batch = WORKLOADS[workload]
    tally = Tally()
    root, setup_times = prepare(workload, seed, samples, batch, tally)
    import_probe(root, tally)  # writes bytecode caches before anything is timed

    reps: List[Repetition] = []
    t0 = time.perf_counter()
    # Start another repetition only if it should end within the budget.
    while len(reps) < 2 or (time.perf_counter() - t0
                            + statistics.median(r.wall_s for r in reps) <= seconds):
        reps.append(run_sequence(commands, root, tally,
                                 reps[0].bundle if reps else None))

    shape = corpus_shape(root)
    n_refs = analysed(root / "out")
    print_shape(workload, shape, n_refs)
    print(f"set-up: {len(setup_times)} batches of {batch}, "
          + ", ".join(f"{t:.4f}" for t in setup_times) + " s per set-up")
    for i, rep in enumerate(reps, 1):
        print(f"rep {i}: " + ", ".join(f"{r.name} {r.wall_s:.3f} s" for r in rep.runs)
              + f"; sequence {rep.wall_s:.3f} s, peak rss "
              f"{max(r.peak_rss_mb for r in rep.runs):.1f} MB")
    print(f"bundle sha256: {reps[0].bundle}")

    def by_name(rep: Repetition, name: str) -> float:
        return next(r.wall_s for r in rep.runs if r.name == name)

    return {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": statistics.median(r.wall_s for r in reps),
        "verify_s": statistics.median(by_name(r, "verify") for r in reps),
        "report_s": statistics.median(by_name(r, "report") for r in reps),
        "refs_per_s": statistics.median(n_refs / r.wall_s for r in reps),
        "peak_rss_mb": statistics.median(max(c.peak_rss_mb for c in r.runs)
                                         for r in reps),
    }, tally


def print_shape(workload: str, shape: dict, n_refs: int) -> None:
    print(f"workload {workload}: {shape['models']} models x {shape['topics']} topics, "
          f"{n_refs} analysed refs, {shape['distinct_titles']} distinct titles "
          f"({n_refs / shape['distinct_titles']:.2f} refs per title), "
          f"{shape['fixtures']} fixtures ({shape['fixture_mb']:.1f} MB)")


# -- traced run ----------------------------------------------------------------------

def run_in_process(commands: List[List[str]], root: Path, tally: Tally,
                   expected_bundle: str) -> float:
    """The command sequence through ``refscale.cli.main`` in this process."""
    from refscale import cli

    out = root / "out"
    shutil.rmtree(out, ignore_errors=True)
    runs = []
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for command in commands:
            run = CommandRun(command[0], -1, 0.0, 0.0, "")
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    run.exit_code = cli.main([*command, *PATHS])
            except Exception as err:  # a traceback is a failed command, not a harness crash
                run.problems.append(f"{command[0]} raised {err!r}")
            run.wall_s = time.perf_counter() - t0
            if run.exit_code == 0:
                run.problems = check_outputs(command[0], out)
            runs.append(run)
    finally:
        os.chdir(cwd)
    settle(runs, out, tally, expected_bundle)
    return sum(run.wall_s for run in runs)


def measure_traced(workload: str, seed: int,
                   seconds: float) -> Tuple[Dict[str, float], Tally]:
    import tracing

    commands, _, _ = WORKLOADS[workload]
    tally = Tally()
    root, _ = prepare(workload, seed, 1, 1, tally)
    import_probe(root, tally)
    import_s = statistics.median(import_probe(root, tally) for _ in range(IMPORT_PROBES))
    cold = run_sequence(commands, root, tally)
    n_refs = analysed(root / "out")
    print_shape(workload, corpus_shape(root), n_refs)

    # The first in-process pass pays one-off costs (lazy imports, regex
    # compilation); it warms up all of the passes that are compared.
    warmup_s = run_in_process(commands, root, tally, cold.bundle)
    output_bytes = sum(p.stat().st_size for p in (root / "out").iterdir())

    def traced_pass() -> Tuple[float, "tracing.Tracer"]:
        tracer = tracing.Tracer()
        with tracer.installed():
            return run_in_process(commands, root, tally, cold.bundle), tracer

    # Untraced and traced passes alternate, each pair in the other order
    # from the last, so a drift in host speed does not favour either side.
    # Another pair starts only if it should end within ``seconds``.
    pairs: List[Tuple[float, float]] = []
    tracer = None
    t0 = time.perf_counter()
    while len(pairs) < 2 or (time.perf_counter() - t0
                             + statistics.median(u + t for u, t in pairs) <= seconds):
        if len(pairs) % 2:
            traced_s, pass_tracer = traced_pass()
            untraced_s = run_in_process(commands, root, tally, cold.bundle)
        else:
            untraced_s = run_in_process(commands, root, tally, cold.bundle)
            traced_s, pass_tracer = traced_pass()
        pairs.append((untraced_s, traced_s))
        tracer = tracer or pass_tracer  # spans are reported from the first traced pass
    tracer.write(WORK / workload / "trace_spans.json")
    spans = tracer.summary()

    print(f"bundle sha256: cold {cold.bundle}")
    problem = fault_injection(root)
    tally.check(not problem, problem)

    def calls(name: str, root_span: Optional[str] = None) -> int:
        rec = spans.get(name)
        if rec is None:
            return 0
        return rec["calls_by_root"].get(root_span, 0) if root_span else rec["calls"]

    verify_calls = calls("verification.verify_reference")
    tally.check(verify_calls == n_refs,
                f"verify_reference calls {verify_calls} != analysed {n_refs}")
    gets = calls(tracing.FIXTURE_GET, "cli.cmd_verify")
    tally.check(gets >= n_refs, f"FixtureCache.get calls in verify {gets} < analysed {n_refs}")
    runs_zipf = any(c[0] == "zipf" for c in commands)
    for name, _, _ in tracing.TARGETS:
        expected = runs_zipf or not (name.startswith("zipflaw.") or name == "cli.cmd_zipf")
        tally.check(calls(name) > 0 or not expected, f"no calls traced for {name}")

    print(f"{'span':34} {'calls':>8} {'total ms':>11} {'self ms':>11}")
    for name, _, _ in tracing.TARGETS:
        rec = spans.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        print(f"{name:34} {rec['calls']:8d} {rec['ms']:11.1f} {rec['self_ms']:11.1f}")
    ratios = [traced / untraced for untraced, traced in pairs]
    overhead = 100.0 * (statistics.median(ratios) - 1.0)
    untraced_s = statistics.median(u for u, _ in pairs)
    traced_s = statistics.median(t for _, t in pairs)
    print(f"in-process sequence: warm-up {warmup_s:.3f} s, then {len(pairs)} pairs: "
          f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s (medians); "
          f"overhead {overhead:.1f}% (median of per-pair ratios, range "
          f"{100 * (min(ratios) - 1):.1f}% to {100 * (max(ratios) - 1):.1f}%) "
          f"over {len(tracer.start)} spans per traced pass")
    print("pairs (untraced s, traced s): "
          + ", ".join(f"({u:.3f}, {t:.3f})" for u, t in pairs))

    metrics: Dict[str, float] = {
        "cli.import_s": import_s,
        "cli.output_bytes": output_bytes,
        "openalex.FixtureCache.get.bytes": tracer.fixture_bytes,
        "openalex.FixtureCache.get.unique_ratio":
            len(tracer.fingerprints) / max(1, calls(tracing.FIXTURE_GET)),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_pct": overhead,
    }
    for name, _, _ in tracing.TARGETS:
        rec = spans.get(name, {"calls": 0, "ms": 0.0})
        metrics[f"{name}.calls"] = rec["calls"]
        metrics[f"{name}.ms"] = rec["ms"]
    for name in tracing.PEAK_MEMORY:
        metrics[f"{name}.peak_mb"] = tracer.peak_bytes.get(name, 0) / 2**20
    return metrics, tally


# -- entry point ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (SRC / "refscale" / "cli.py").is_file():
            raise BenchError(f"program source not found at {SRC / 'refscale'}")
        if args.workload == "demo" and not (DEMO / "dataset.json").is_file():
            raise BenchError(f"demo corpus not found at {DEMO}")
        sys.path.insert(0, str(SRC))
        os.environ.pop("REFSCALE_MAILTO", None)
        import refscale

        if Path(refscale.__file__).resolve().parent != SRC / "refscale":
            raise BenchError(f"imported refscale from {refscale.__file__}, not {SRC}")
    except (BenchError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    if args.trace:
        values, tally = measure_traced(args.workload, args.seed, args.seconds)
        declared = spec["per_layer"]
    else:
        values, tally = measure(args.workload, args.seed, args.seconds)
        declared = spec["end_to_end"]

    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:40} {metrics[m['name']]['value']:14.6g} {m['unit']}")
    error_rate = tally.failed / tally.attempted
    print(f"{'error_rate':40} {error_rate:14.6g} ({tally.failed} failed of "
          f"{tally.attempted} attempted)")
    for problem in tally.problems:
        print(f"FAILED CHECK: {problem}")
    correct = not tally.problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}), flush=True)
    if TRASH.is_dir() and len(list(TRASH.iterdir())) >= TRASH_TREES:
        shutil.rmtree(TRASH)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
