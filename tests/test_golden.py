"""Golden bundles: the output of fixed runs, pinned across commits.

Each manifest under ``tests/golden/`` lists one ``<sha256>  <artifact>`` line
per file the run writes. The runs use relative paths from a copy of the
inputs, because the config hash covers the path strings. A change that
alters an artifact on purpose rewrites its manifest in the same commit and
names the artifact in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py demo > tests/golden/demo.sha256
"""

import hashlib
import importlib.util
import os
import shutil
import sys
from pathlib import Path

import pytest

from refscale.cli import main

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
PATHS = ["--dataset", "dataset.json", "--fixtures", "fixtures", "--output-dir", "out"]
PANEL9_SEED = 7

RUNS = {
    "demo": [["verify"], ["score"], ["fit"], ["theory"],
             ["citetail", "--min-n", "10"], ["report", "--min-n", "10"]],
    "panel9": [["verify"], ["report"],
               ["zipf", "--counts", "counts.csv", "--window", "50"]],
}


def _set_up(corpus: str, root: Path) -> None:
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
    generator.generate(corpus, PANEL9_SEED, root)


def run_manifest(corpus: str, root: Path, drop_fixtures: bool = False) -> str:
    """Run the corpus's commands in ``root`` and return the bundle manifest.
    With ``drop_fixtures`` the fixture directory is deleted after verify."""
    _set_up(corpus, root)
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


def test_demo_reads_no_fixtures_after_verify(tmp_path):
    got = run_manifest("demo", tmp_path, drop_fixtures=True)
    expected = (GOLDEN / "demo.sha256").read_text()
    assert got.splitlines() == expected.splitlines()


if __name__ == "__main__":
    import contextlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sys.stderr):
        manifest = run_manifest(sys.argv[1], Path(tmp))
    sys.stdout.write(manifest)
