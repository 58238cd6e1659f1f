"""`parse_corpus`, which parses each distinct entry string once, against the
per-entry loop it replaced (``tests/oracles.py``): every comparison is exact
equality, in order."""

import json

import pytest

import oracles
from refscale import pipeline
from refscale.citations import split_reference_list
from refscale.dataset import ingest_dataset
from refscale.pipeline import parse_corpus

from test_golden import set_up

UNPARSEABLE = "Okafor, N. (2019)."
REPEATED = "Lee, K. (2011). A title that two generations both cite. Journal of Tests."
# Lines appended to demo generations 0 and 3: the unparseable string repeats
# within generation 0 and again in generation 3, and both cite REPEATED.
APPENDED = {0: [UNPARSEABLE, REPEATED, UNPARSEABLE], 3: [REPEATED, UNPARSEABLE]}


def _dataset(corpus, root):
    if corpus == "repeated":
        set_up("demo", root)
        path = root / "dataset.json"
        doc = json.loads(path.read_text())
        for index, lines in APPENDED.items():
            gen = doc["generations"][index]
            gen["raw_text"] = "\n".join([gen["raw_text"], *lines])
        path.write_text(json.dumps(doc))
    else:
        set_up(corpus, root)
    return ingest_dataset(root / "dataset.json")


@pytest.mark.parametrize("corpus", ["demo", "ttail", "repeated"])
def test_equals_per_entry_loop(tmp_path, monkeypatch, corpus):
    dataset = _dataset(corpus, tmp_path)
    calls = []
    parse_apa = pipeline.parse_apa

    def counting(entry):
        calls.append(entry)
        return parse_apa(entry)

    monkeypatch.setattr(pipeline, "parse_apa", counting)
    got = parse_corpus(dataset)
    monkeypatch.undo()
    want = oracles.parse_corpus(dataset)
    assert list(got.refs.items()) == list(want.refs.items())
    assert got.accounting == want.accounting
    assert got.failures == want.failures

    entries = [e for gen in dataset.generations for e in split_reference_list(gen.raw_text)]
    assert sorted(calls) == sorted(set(entries))
    assert got.refs and len(calls) < len(entries)
    if corpus == "ttail":
        assert got.accounting.parse_failures == len(got.failures) == 2
    if corpus == "repeated":
        cells = [(g.model, g.topic) for g in (dataset.generations[i] for i in (0, 0, 3))]
        assert [(f["model"], f["topic"], f["raw"]) for f in got.failures] == [
            (*cell, UNPARSEABLE) for cell in cells]
        assert got.failures[0]["index"] < got.failures[1]["index"]
        assert [key[:2] for key, ref in got.refs.items() if ref.raw == REPEATED] == [
            cells[0], cells[2]]
