"""`verify_corpus` and its per-title memos against the per-reference loop
they replaced (``tests/oracles.py``): every comparison is exact equality.
A demo ``verify`` reads each fixture file from disk once."""

import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from refscale.citations import ParsedReference, content_words, normalize_title
from refscale.cli import main
from refscale.openalex import FixtureCache, OpenAlexClient, request_fingerprint
from refscale.pipeline import Accounting, FixtureMissBatch, ParsedCorpus, verify_corpus

from conftest import DEMO_DATASET, DEMO_FIXTURES, make_fixture

# Title words: ASCII, precomposed and decomposed diacritics, a ligature, a
# compatibility digit, Greek and CJK, plus stopwords.
WORDS = ["scaling", "laws", "neural", "graph", "Über", "café", "cafe\u0301",
         "naïve", "Straße", "ﬁelds", "x²", "Σίσυφος", "数据", "the", "of", "and"]
TITLES = st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(" ".join)
AUTHORS = st.lists(st.sampled_from(["Smith, J.", "Smith, John", "Doe, A. B.",
                                    "Müller, K.", "Li, W."]),
                   max_size=3, unique=True)
YEARS = st.sampled_from([None, 1999, 2000])
VENUES = st.sampled_from([None, "Nature", "Nat.", "Journal of Neural Graphs",
                          "J. Neural Graphs"])
DOIS = st.sampled_from([None, "10.1/abc", "https://doi.org/10.1/abc", "10.1/xyz"])


@st.composite
def works(draw, title):
    return {"id": f"W{draw(st.integers(1, 99))}", "title": title,
            "authors": draw(AUTHORS), "year": draw(YEARS), "venue": draw(VENUES),
            "doi": draw(DOIS), "cited_by_count": draw(st.integers(0, 500))}


@st.composite
def corpora(draw):
    """(refs, {title: works_search body}) over a few titles that repeat.

    The top candidate's title is the claimed one, a shortened one, or an
    unrelated one (mostly below the overlap threshold); about half the
    examples leave one or two titles without a fixture.
    """
    pool = draw(st.lists(TITLES, min_size=1, max_size=5, unique=True))
    refs = {}
    for index in range(draw(st.integers(1, 12))):
        title = draw(st.sampled_from(pool))
        key = (draw(st.sampled_from(["m1", "m2", "m3"])), "t", index)
        refs[key] = ParsedReference(
            authors=draw(AUTHORS), year=draw(YEARS), title=title,
            venue=draw(VENUES), identifier=draw(DOIS), raw=title)
    missing = set()
    if draw(st.booleans()):
        missing = set(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2)))
    bodies = {}
    for title in pool:
        if title in missing:
            continue
        words = title.split()
        top_title = draw(st.sampled_from(
            [title, " ".join(words[: max(1, len(words) // 2)]), title + " revisited"])
            | TITLES)
        rest = draw(st.lists(TITLES.flatmap(works), max_size=3))
        bodies[title] = {"results": [draw(works(top_title)), *rest]
                         if draw(st.integers(0, 9)) else []}
    return refs, bodies


def _corpus(refs):
    return ParsedCorpus(refs=refs, accounting=Accounting())


def _outcome(run):
    """The results, or the fingerprints a FixtureMissBatch lists, in order."""
    try:
        return run()
    except FixtureMissBatch as batch:
        return [m.fingerprint for m in batch.misses]


class TestMemoisedNormalisation:
    @given(st.text())
    def test_normalize_title(self, s):
        assert normalize_title(s) == oracles.normalize_title(s)
        assert normalize_title(s) == oracles.normalize_title(s)

    @given(st.text() | TITLES)
    def test_content_words(self, stopwords, s):
        assert content_words(s, stopwords) == oracles.content_words(s, stopwords)
        assert content_words(s, set()) == oracles.content_words(s, set())


class TestJoinOracle:
    @settings(max_examples=80, deadline=None)
    @given(corpora(), st.sampled_from([0.0, 0.5, 1.0]))
    def test_equals_per_reference_loop(self, stopwords, corpus, threshold):
        refs, bodies = corpus
        with tempfile.TemporaryDirectory() as tmp:
            for title, body in bodies.items():
                make_fixture(Path(tmp), "works_search", {"title": title}, body)
            got = _outcome(lambda: verify_corpus(
                _corpus(refs), OpenAlexClient(fixtures=tmp), stopwords,
                overlap_threshold=threshold))
            want = _outcome(lambda: oracles.verify_corpus(
                _corpus(refs), tmp, stopwords, overlap_threshold=threshold))
        assert got == want


class TestMissBatch:
    def test_each_fingerprint_once_in_first_seen_order(self, tmp_path, stopwords):
        make_fixture(tmp_path, "works_search", {"title": "Gamma rays"},
                     {"results": []})
        refs = {
            ("m2", "t", 0): "Beta decay",
            ("m1", "t", 5): "Alpha particles",
            ("m1", "t", 1): "Beta decay",
            ("m1", "t", 3): "Gamma rays",
            ("m3", "t", 0): "Alpha particles",
            ("m1", "t", 4): "Delta waves",
        }
        corpus = _corpus({k: ParsedReference(authors=[], year=None, title=t,
                                             venue=None, identifier=None, raw=t)
                          for k, t in refs.items()})
        with pytest.raises(FixtureMissBatch) as err:
            verify_corpus(corpus, OpenAlexClient(fixtures=tmp_path), stopwords)
        # Sorted keys: (m1,t,1) Beta, (m1,t,3) Gamma, (m1,t,4) Delta,
        # (m1,t,5) Alpha, (m2,t,0) Beta, (m3,t,0) Alpha.
        titles = ["Beta decay", "Delta waves", "Alpha particles"]
        assert [m.fingerprint for m in err.value.misses] == [
            request_fingerprint("works_search", {"title": t}) for t in titles]
        assert [m.params["title"] for m in err.value.misses] == titles
        assert str(err.value).startswith("3 fixture miss(es):")


class TestFixtureReads:
    def test_verify_reads_each_fixture_once(self, tmp_path, monkeypatch):
        reads = Counter()
        gets = []
        read_text, get = Path.read_text, FixtureCache.get

        def counting_read(path, *args, **kwargs):
            if path.parent == DEMO_FIXTURES:
                reads[path.stem] += 1
            return read_text(path, *args, **kwargs)

        def counting_get(cache, fingerprint):
            gets.append(fingerprint)
            return get(cache, fingerprint)

        monkeypatch.setattr(Path, "read_text", counting_read)
        monkeypatch.setattr(FixtureCache, "get", counting_get)
        out = tmp_path / "out"
        assert main(["verify", "--dataset", str(DEMO_DATASET), "--fixtures",
                     str(DEMO_FIXTURES), "--output-dir", str(out)]) == 0
        analysed = json.loads((out / "accounting.json").read_text())["accounting"]["analysed"]
        assert len(gets) == analysed > len(set(gets))
        assert reads == Counter(set(gets))
