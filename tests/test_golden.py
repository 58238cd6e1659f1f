"""Golden bundles: the output of fixed runs, pinned across commits.

Each manifest under ``tests/golden/`` lists one ``<sha256>  <artifact>`` line
per file the run writes. The runs use relative paths from a copy of the
inputs, because the config hash covers the path strings. A change that
alters an artifact on purpose rewrites its manifest in the same commit and
names the artifact in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py demo > tests/golden/demo.sha256

``ttail`` is the one corpus whose Spearman calls take the n >= 10 t-tail:
12 models over 10 topics, each model with at least 10 matched references.
``citetail_report.json`` prints that p-value at full precision, so the
manifest pins the closed-form t tail of ``stats._t_two_sided`` to the last
bit. Its dataset also carries malformed entries, so ``parse_failures.jsonl``
is not empty.
"""

import contextlib
import hashlib
import importlib.util
import os
import shutil
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from refscale import stats
from refscale.cli import main

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
PATHS = ["--dataset", "dataset.json", "--fixtures", "fixtures", "--output-dir", "out"]
# ttail's seed is one at which the citetail Spearman is not |rho| = 1 (seed 7
# gives rho = -1 and so p = 0 without the t-tail).
SEEDS = {"panel9": 7, "ttail": 12}

RUNS = {
    "demo": [["verify"], ["score"], ["fit"], ["theory"],
             ["citetail", "--min-n", "10"], ["report", "--min-n", "10"]],
    "panel9": [["verify"], ["report"],
               ["zipf", "--counts", "counts.csv", "--window", "50"]],
    "ttail": [["verify"], ["report", "--min-n", "10"]],
}

# Appended to two generations before verify. The first line has no
# parenthesized year, so the splitter drops it as commentary; the other two
# are split as citations and fail to parse.
MALFORMED = {
    0: ["Okafor, N. 2019. Groundwater without a year in brackets. Venue.",
        "Okafor, N. (2019)."],
    7: ["(2020). A title with no authors before the year. Journal of Tests."],
}


def set_up(corpus: str, root: Path) -> None:
    """Write the corpus's inputs under ``root``."""
    if corpus == "demo":
        demo = REPO / "data" / "demo"
        shutil.copy(demo / "dataset.json", root / "dataset.json")
        shutil.copytree(demo / "fixtures", root / "fixtures")
        return
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", REPO / "perfbench" / "corpus.py")
    generator = sys.modules.setdefault(
        spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(generator)
    if corpus == "ttail":
        generator.SHAPES["ttail"] = generator.Shape(
            models=12, topics=10, catalog=20, fabricated_pool=30, candidates=5,
            refusals=False)
    generator.generate(corpus, SEEDS[corpus], root)
    if corpus == "ttail":
        path = root / "dataset.json"
        doc = json.loads(path.read_text())
        for index, lines in MALFORMED.items():
            gen = doc["generations"][index]
            gen["raw_text"] = "\n".join([gen["raw_text"], *lines])
        path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def run_manifest(corpus: str, root: Path, drop_fixtures: bool = False) -> str:
    """Run the corpus's commands in ``root`` and return the bundle manifest.
    With ``drop_fixtures`` the fixture directory is deleted after verify."""
    set_up(corpus, root)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for command in RUNS[corpus]:
            assert main(command[:1] + PATHS + command[1:]) == 0, command
            if drop_fixtures and command == ["verify"]:
                shutil.rmtree("fixtures")
    finally:
        os.chdir(cwd)
    out = root / "out"
    return "".join(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out)}\n"
        for p in sorted(out.rglob("*")) if p.is_file()
    )


@pytest.mark.parametrize("corpus", sorted(RUNS))
def test_bundle_matches_golden_manifest(corpus, tmp_path):
    got = run_manifest(corpus, tmp_path)
    expected = (GOLDEN / f"{corpus}.sha256").read_text()
    assert got.splitlines() == expected.splitlines()


def test_ttail_takes_the_t_tail_and_records_parse_failures(tmp_path):
    # A shape drift that leaves every Spearman call exact (n <= 9) or at
    # |rho| = 1 would make the ttail manifest pin nothing of the t-tail.
    calls = []
    spearman = stats.spearman

    def spy(x, y):
        rho, p = spearman(x, y)
        calls.append((len(x), rho))
        return rho, p

    callers = [m for name, m in sys.modules.items() if name.startswith("refscale")
               and getattr(m, "spearman", None) is spearman]
    with contextlib.ExitStack() as stack:
        for module in callers:
            stack.enter_context(mock.patch.object(module, "spearman", spy))
        run_manifest("ttail", tmp_path)
    assert any(n >= 10 and abs(rho) < 1.0 for n, rho in calls), calls
    citetail = json.loads((tmp_path / "out" / "citetail_report.json").read_text())
    assert len(citetail["included_models"]) >= 10
    assert 0.0 < citetail["spearman_p"] < 1.0  # printed at full precision

    failures = [json.loads(line) for line in
                (tmp_path / "out" / "parse_failures.jsonl").read_text().splitlines()]
    assert sorted(f["reason"] for f in failures) == [
        "no author text before year", "no title after year"]


def test_demo_reads_no_fixtures_after_verify(tmp_path):
    got = run_manifest("demo", tmp_path, drop_fixtures=True)
    expected = (GOLDEN / "demo.sha256").read_text()
    assert got.splitlines() == expected.splitlines()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sys.stderr):
        manifest = run_manifest(sys.argv[1], Path(tmp))
    sys.stdout.write(manifest)
