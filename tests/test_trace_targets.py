"""The benchmark's traced mode fails the whole run when one of the names in
``perfbench/tracing.py::TARGETS`` is missing or never called. This runs the
tracer around an in-process demo ``verify`` + ``report`` so that a renamed or
bypassed stage function fails here first. ``perfbench/`` is loaded by path
and not modified, as ``test_golden.py`` loads its corpus generator."""

import importlib.util
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
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main(["verify", *args]) == 0
        assert main(["report", *args, "--min-n", "10"]) == 0
    spans = tracer.summary()
    expected = [name for name, _, _ in tracing.TARGETS
                if not (name.startswith("zipflaw.") or name == "cli.cmd_zipf")]
    assert [name for name in expected if spans[name]["calls"] == 0] == []
