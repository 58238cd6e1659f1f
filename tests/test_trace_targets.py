"""The benchmark's traced mode fails the whole run when one of the names in
``perfbench/tracing.py::TARGETS`` is missing or never called. This runs the
tracer around an in-process demo ``verify`` + ``report``, and a ``zipf`` on a
small counts table, so that a renamed or bypassed stage function fails here
first. ``perfbench/`` is loaded by path and not modified, as
``test_golden.py`` loads its corpus generator.

The traced mode also fails the run when ``verify`` calls
``verify_reference`` other than once per analysed reference, or calls
``FixtureCache.get`` fewer times than that; the same checks run here."""

import importlib.util
import json
import sys

from refscale.cli import main

from conftest import DEMO_DATASET, DEMO_FIXTURES, REPO


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py")
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_called(tmp_path):
    tracing = _tracing()
    args = ["--dataset", str(DEMO_DATASET), "--fixtures", str(DEMO_FIXTURES),
            "--output-dir", str(tmp_path / "out")]
    counts = tmp_path / "counts.csv"
    counts.write_text("concept,count\n" + "".join(
        f"c{k},{1000 // k}\n" for k in range(1, 13)))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main(["verify", *args]) == 0
        assert main(["report", *args, "--min-n", "10"]) == 0
        assert main(["zipf", *args, "--counts", str(counts), "--window", "5"]) == 0
    spans = tracer.summary()
    expected = [name for name, _, _ in tracing.TARGETS]
    assert {"cli.cmd_zipf", "zipflaw.bootstrap_alpha_ci",
            "zipflaw.rolling_window_alpha"} <= set(expected)
    assert [name for name in expected if spans[name]["calls"] == 0] == []


def test_verify_calls_per_analysed_reference(tmp_path):
    tracing = _tracing()
    out = tmp_path / "out"
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main(["verify", "--dataset", str(DEMO_DATASET), "--fixtures",
                     str(DEMO_FIXTURES), "--output-dir", str(out)]) == 0
    spans = tracer.summary()
    analysed = json.loads((out / "accounting.json").read_text())["accounting"]["analysed"]
    assert analysed > 0
    assert spans["verification.verify_reference"]["calls"] == analysed
    gets = spans[tracing.FIXTURE_GET]["calls_by_root"].get("cli.cmd_verify", 0)
    assert gets >= analysed
