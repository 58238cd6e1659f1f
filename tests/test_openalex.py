import json
import os
import stat

import pytest

from refscale.openalex import (
    ExternalWork,
    FixtureCache,
    FixtureMiss,
    OpenAlexClient,
    request_fingerprint,
)
from refscale.verification import match_work

from conftest import make_fixture


class TestFingerprint:
    def test_deterministic(self):
        a = request_fingerprint("works_search", {"title": "x"})
        b = request_fingerprint("works_search", {"title": "x"})
        assert a == b and len(a) == 64

    def test_param_order_irrelevant(self):
        a = request_fingerprint("e", {"a": 1, "b": 2})
        b = request_fingerprint("e", {"b": 2, "a": 1})
        assert a == b

    def test_distinct_requests_distinct_keys(self):
        assert (request_fingerprint("works_search", {"title": "x"})
                != request_fingerprint("works_count", {"title": "x"}))


class TestCache:
    def test_roundtrip(self, tmp_path):
        cache = FixtureCache(tmp_path)
        fp = request_fingerprint("e", {"k": "v"})
        cache.put(fp, "e", {"k": "v"}, {"count": 7})
        entry = cache.get(fp)
        assert entry["body"] == {"count": 7}
        assert entry["fingerprint"] == fp

    def test_miss_returns_none(self, tmp_path):
        assert FixtureCache(tmp_path).get("0" * 64) is None

    def test_no_tmp_leftovers(self, tmp_path):
        cache = FixtureCache(tmp_path)
        cache.put("a" * 64, "e", {}, {})
        assert not list(tmp_path.glob("*.tmp"))

    def test_two_writers_of_one_fingerprint(self, tmp_path, monkeypatch):
        # A second writer of the same entry runs to completion while the
        # first sits between writing its temp file and renaming it.
        cache = FixtureCache(tmp_path)
        fp = "b" * 64
        real_replace = os.replace
        sources = []

        def replace(src, dst):
            sources.append(src)
            if len(sources) == 1:
                cache.put(fp, "e", {}, {"writer": 2})
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        cache.put(fp, "e", {}, {"writer": 1})
        monkeypatch.undo()
        assert len(set(sources)) == 2
        assert all(os.path.dirname(src) == str(tmp_path) for src in sources)
        assert cache.get(fp)["body"] == {"writer": 1}
        assert not list(tmp_path.glob("*.tmp"))

    def test_entry_mode_follows_umask(self, tmp_path, umask):
        fp = "d" * 64
        FixtureCache(tmp_path).put(fp, "e", {}, {})
        assert stat.S_IMODE((tmp_path / f"{fp}.json").stat().st_mode) == 0o666 & ~umask

    def test_corrupt_entry_raises_on_every_get(self, tmp_path):
        cache = FixtureCache(tmp_path)
        fp = "c" * 64
        (tmp_path / f"{fp}.json").write_text('{"body": ')
        for _ in range(2):
            with pytest.raises(IOError, match=fp):
                cache.get(fp)
        (tmp_path / f"{fp}.json").write_text('{"body": 1}')
        assert cache.get(fp)["body"] == 1

    def test_miss_is_not_remembered(self, tmp_path):
        cache = FixtureCache(tmp_path)
        assert cache.get(request_fingerprint("e", {})) is None
        make_fixture(tmp_path, "e", {}, {"count": 1})
        assert cache.get(request_fingerprint("e", {}))["body"] == {"count": 1}

    def test_entry_read_from_disk_once(self, tmp_path):
        make_fixture(tmp_path, "e", {}, {"count": 1})
        fp = request_fingerprint("e", {})
        cache = FixtureCache(tmp_path)
        first = cache.get(fp)
        make_fixture(tmp_path, "e", {}, {"count": 2})
        assert cache.get(fp) is first
        assert FixtureCache(tmp_path).get(fp)["body"] == {"count": 2}

    def test_get_after_put_returns_new_entry(self, tmp_path):
        cache = FixtureCache(tmp_path)
        fp = request_fingerprint("e", {})
        cache.put(fp, "e", {}, {"count": 1})
        assert cache.get(fp)["body"] == {"count": 1}
        cache.put(fp, "e", {}, {"count": 2})
        assert cache.get(fp)["body"] == {"count": 2}


class TestClientOffline:
    def test_fixture_miss_is_hard_error(self, tmp_path):
        client = OpenAlexClient(fixtures=tmp_path, offline=True)
        with pytest.raises(FixtureMiss) as err:
            client.search_candidates("some unseen title")
        assert len(err.value.fingerprint) == 64
        assert err.value.endpoint == "works_search"

    def test_search_candidates_from_fixture(self, tmp_path):
        work = {"id": "W1", "title": "A study", "authors": ["X, Y."],
                "year": 2001, "venue": "V", "doi": "10.1/x",
                "cited_by_count": 3}
        make_fixture(tmp_path, "works_search", {"title": "A study"},
                     {"results": [work]})
        client = OpenAlexClient(fixtures=tmp_path, offline=True)
        (got,) = client.search_candidates("A study")
        assert got == ExternalWork.from_json(work)
        assert got.cited_by_count == 3

    def test_topic_works_count(self, tmp_path):
        make_fixture(tmp_path, "works_count",
                     {"search": "malaria", "quoted": True}, {"count": 1234})
        client = OpenAlexClient(fixtures=tmp_path, offline=True)
        assert client.topic_works_count("malaria") == 1234

    def test_empty_title_rejected(self, tmp_path):
        client = OpenAlexClient(fixtures=tmp_path, offline=True)
        with pytest.raises(ValueError):
            client.search_candidates("  ")
        with pytest.raises(ValueError):
            client.topic_works_count("")

    def test_max_n_truncates(self, tmp_path):
        works = [{"id": f"W{i}", "title": f"t{i}", "authors": []}
                 for i in range(5)]
        make_fixture(tmp_path, "works_search", {"title": "t"},
                     {"results": works})
        client = OpenAlexClient(fixtures=tmp_path, offline=True)
        assert len(client.search_candidates("t", max_n=2)) == 2

    def test_lower_ranks_beyond_max_n_not_parsed(self, tmp_path):
        works = [{"id": "W1", "title": "t", "authors": []},
                 {"id": "", "title": "t", "authors": []},
                 {"id": "W3", "title": "t", "authors": [], "cited_by_count": -1}]
        make_fixture(tmp_path, "works_search", {"title": "t"},
                     {"results": works})
        client = OpenAlexClient(fixtures=tmp_path, offline=True)
        assert [w.id for w in client.search_candidates("t", max_n=1)] == ["W1"]
        with pytest.raises(IOError, match="work id must be non-empty"):
            client.search_candidates("t")

    @pytest.mark.parametrize("body, message", [
        ({}, "no 'results' list"),
        ({"results": "W1"}, "no 'results' list"),
        ([], "no 'results' list"),
        (None, "no 'results' list"),
        ({"results": ["W1"]}, "TypeError"),
        ({"results": [{"title": "t"}]}, "KeyError: 'id'"),
        ({"results": [{"id": "W1", "cited_by_count": "many"}]}, "ValueError"),
    ])
    def test_unreadable_body(self, tmp_path, body, message):
        make_fixture(tmp_path, "works_search", {"title": "t"}, body)
        fp = request_fingerprint("works_search", {"title": "t"})
        client = OpenAlexClient(fixtures=tmp_path, offline=True)
        with pytest.raises(IOError, match=f"corrupt fixture .*{fp}.json: .*{message}"):
            client.search_candidates("t", max_n=1)


class TestLiveQueryShapes:
    def test_count_query_is_phrase_quoted(self):
        q = OpenAlexClient._live_query("works_count", {"search": "mini grid"})
        assert q["filter"] == 'title_and_abstract.search:"mini grid"'

    def test_search_query(self):
        q = OpenAlexClient._live_query("works_search", {"title": "abc"})
        assert q == {"search": "abc", "per-page": 25}

    def test_unknown_endpoint(self):
        with pytest.raises(ValueError):
            OpenAlexClient._live_query("nope", {})

    def test_parse_live_works(self):
        payload = {"results": [{
            "id": "https://openalex.org/W123",
            "title": "A study",
            "publication_year": 1999,
            "cited_by_count": 42,
            "doi": "https://doi.org/10.1/x",
            "primary_location": {"source": {"display_name": "Venue"}},
            "authorships": [{"author": {"display_name": "Ada Okafor"}}],
        }]}
        body = OpenAlexClient._parse_live("works_search", payload)
        assert body["results"][0]["year"] == 1999
        assert body["results"][0]["venue"] == "Venue"
        assert body["results"][0]["authors"] == ["Ada Okafor"]

    def test_parse_live_count(self):
        body = OpenAlexClient._parse_live("works_count", {"meta": {"count": 9}})
        assert body == {"count": 9}


class TestMatchWork:
    def test_top_candidate_accepted(self, stopwords):
        top = ExternalWork(id="W1", title="solar adoption in kenya", authors=[])
        got = match_work("Solar adoption in Kenya", [top], stopwords)
        assert got is top

    def test_lower_ranked_never_eligible(self, stopwords):
        top = ExternalWork(id="W1", title="completely different work", authors=[])
        perfect = ExternalWork(id="W2", title="solar adoption in kenya", authors=[])
        assert match_work("Solar adoption in Kenya", [top, perfect], stopwords) is None

    def test_threshold_boundary(self, stopwords):
        half = ExternalWork(id="W1", title="solar panels", authors=[])
        assert match_work("solar adoption", [half], stopwords,
                          threshold=0.5) is half
        assert match_work("solar adoption", [half], stopwords,
                          threshold=0.51) is None

    def test_empty_candidates(self, stopwords):
        assert match_work("anything", [], stopwords) is None

    def test_bad_threshold(self, stopwords):
        with pytest.raises(ValueError):
            match_work("x", [], stopwords, threshold=1.5)


class TestExternalWork:
    def test_json_roundtrip(self):
        work = ExternalWork(id="W1", title="T", authors=["A"], year=2000,
                            venue="V", doi="10.1/x", cited_by_count=5)
        assert ExternalWork.from_json(work.to_json()) == work

    def test_validation(self):
        with pytest.raises(ValueError):
            ExternalWork(id="", title="T", authors=[])
        with pytest.raises(ValueError):
            ExternalWork(id="W", title="T", authors=[], cited_by_count=-1)
