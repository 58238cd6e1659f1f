import json
import os
from pathlib import Path

import pytest

from refscale.citations import load_stopwords

REPO = Path(__file__).resolve().parents[1]
DEMO_DATASET = REPO / "data" / "demo" / "dataset.json"
DEMO_FIXTURES = REPO / "data" / "demo" / "fixtures"


@pytest.fixture(scope="session")
def stopwords():
    return load_stopwords()


@pytest.fixture(scope="session")
def demo_dataset_path():
    return DEMO_DATASET


@pytest.fixture(scope="session")
def demo_fixtures_path():
    return DEMO_FIXTURES


@pytest.fixture(params=[0o022, 0o077], ids=["umask-022", "umask-077"])
def umask(request):
    """Run the test under each of two process umasks, restored afterwards."""
    old = os.umask(request.param)
    try:
        yield request.param
    finally:
        os.umask(old)


def make_fixture(directory: Path, endpoint: str, params: dict, body) -> None:
    """Write one recorded-response entry the offline client will find."""
    from refscale.openalex import request_fingerprint

    directory.mkdir(parents=True, exist_ok=True)
    fp = request_fingerprint(endpoint, params)
    entry = {
        "fingerprint": fp,
        "request": {"endpoint": endpoint, "params": params},
        "body": body,
        "fetched_at": "2026-01-01T00:00:00Z",
    }
    (directory / f"{fp}.json").write_text(json.dumps(entry, sort_keys=True))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "::" in nodeid:
                rows.append((nodeid.split("::")[-1], status))
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, status in sorted(set(rows)):
        word = "PASS" if status == "passed" else "FAIL"
        terminalreporter.write_line(f"{word}  {name}")
