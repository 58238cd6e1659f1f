import io
import json
import os
import re
import stat
from urllib.parse import parse_qs, urlsplit

import pytest

from refscale import openalex
from refscale.cli import main
from refscale.openalex import (
    ExternalWork,
    FixtureCache,
    FixtureMiss,
    OpenAlexClient,
    request_fingerprint,
)
from refscale.records import IngestError, build_record
from refscale.verification import match_work

from conftest import DEMO_DATASET, DEMO_FIXTURES, make_fixture
from test_golden import set_up


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


class TestRecords:
    def test_string_record_is_not_an_object(self):
        # "identity" contains the field name "id", so indexing it would fail
        # with a bare TypeError.
        with pytest.raises(IngestError) as err:
            build_record(ExternalWork, "results[0]", "identity")
        assert str(err.value) == "results[0]: must be an object, got str"


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

    def test_search_entry_memoised_with_rank_one_only(self, tmp_path):
        works = [{"id": f"W{rank}", "title": f"t{rank}"} for rank in range(1, 26)]
        make_fixture(tmp_path, "works_search", {"title": "t"}, {"results": works})
        fp = request_fingerprint("works_search", {"title": "t"})
        cache = FixtureCache(tmp_path)
        entry = cache.get(fp)
        assert entry["body"] == {"results": works[:1]}
        assert entry["request"] == {"endpoint": "works_search", "params": {"title": "t"}}
        assert cache.get(fp) is entry
        on_disk = json.loads((tmp_path / f"{fp}.json").read_text())
        assert on_disk["body"]["results"] == works

    @pytest.mark.parametrize("corpus", ["demo", "ttail"])
    def test_top_result_same_as_from_full_entry(self, tmp_path, corpus):
        set_up(corpus, tmp_path)
        fixtures = tmp_path / "fixtures"
        client = OpenAlexClient(fixtures=fixtures, offline=True)
        ranks = []
        for path in sorted(fixtures.glob("*.json")):
            entry = json.loads(path.read_text())
            if entry["request"]["endpoint"] != "works_search":
                continue
            results = entry["body"]["results"]
            ranks.append(len(results))
            want = build_record(ExternalWork, "results[0]", results[0]) if results else None
            title = entry["request"]["params"]["title"]
            assert client.search_candidates(title) == want  # read from disk
            assert client.search_candidates(title) == want  # served from memory
        # demo's searches hold no result or one; ttail's hold five each.
        assert set(ranks) == ({0, 1} if corpus == "demo" else {5})

    @pytest.mark.parametrize("results", ["W1", {"0": {"id": "W1"}}, None])
    def test_results_not_a_list_kept_and_raises_every_time(self, tmp_path, results):
        make_fixture(tmp_path, "works_search", {"title": "t"}, {"results": results})
        fp = request_fingerprint("works_search", {"title": "t"})
        client = OpenAlexClient(fixtures=tmp_path, offline=True)
        for _ in range(2):
            with pytest.raises(IOError, match=f"corrupt fixture .*{fp}.json: .*no 'results' list"):
                client.search_candidates("t")
            assert client.cache.get(fp)["body"] == {"results": results}

    def test_count_entry_kept_whole(self, tmp_path):
        params = {"search": "malaria", "quoted": True}
        make_fixture(tmp_path, "works_count", params, {"count": 1234})
        fp = request_fingerprint("works_count", params)
        on_disk = json.loads((tmp_path / f"{fp}.json").read_text())
        cache = FixtureCache(tmp_path)
        assert cache.get(fp) == on_disk
        assert cache.get(fp) == on_disk

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
        got = client.search_candidates("A study")
        assert got == ExternalWork(**work)
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

    def test_lower_ranks_not_parsed(self, tmp_path):
        works = [{"id": "W1", "title": "t", "authors": []},
                 {"id": "", "title": "t", "authors": []},
                 {"id": "W3", "title": "t", "authors": [], "cited_by_count": -1}]
        make_fixture(tmp_path, "works_search", {"title": "t"},
                     {"results": works})
        client = OpenAlexClient(fixtures=tmp_path, offline=True)
        assert client.search_candidates("t").id == "W1"

    def test_no_results_is_none(self, tmp_path):
        make_fixture(tmp_path, "works_search", {"title": "t"}, {"results": []})
        client = OpenAlexClient(fixtures=tmp_path, offline=True)
        assert client.search_candidates("t") is None

    @pytest.mark.parametrize("body, message", [
        ({}, "no 'results' list"),
        ({"results": "W1"}, "no 'results' list"),
        ([], "no 'results' list"),
        (None, "no 'results' list"),
        ({"results": ["W1"]}, "must be an object, got str"),
        ({"results": [{"title": "t"}]}, "results[0]: missing field 'id'"),
        ({"results": [{"id": "W1", "cited_by_count": "many"}]},
         "cited_by_count must be an integer, got 'many'"),
    ])
    def test_unreadable_body(self, tmp_path, body, message):
        make_fixture(tmp_path, "works_search", {"title": "t"}, body)
        fp = request_fingerprint("works_search", {"title": "t"})
        client = OpenAlexClient(fixtures=tmp_path, offline=True)
        with pytest.raises(IOError, match=f"corrupt fixture .*{fp}.json: .*{re.escape(message)}"):
            client.search_candidates("t")


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


class TestLiveFetch:
    """The live path against a scripted ``_http_get``; nothing leaves the
    process."""

    WORK = {"id": "https://openalex.org/W1", "title": "A study",
            "publication_year": 2001, "cited_by_count": 5}

    @pytest.fixture
    def live(self, tmp_path, monkeypatch):
        calls, sleeps, replies = [], [], []

        def http_get(url, timeout):
            calls.append(url)
            reply = replies.pop(0)
            if isinstance(reply, Exception):
                raise reply
            return reply

        monkeypatch.setattr(openalex, "_http_get", http_get)
        monkeypatch.setattr(openalex.time, "sleep", sleeps.append)
        client = OpenAlexClient(fixtures=tmp_path, offline=False, rate_limit=0,
                                mailto="ops@example.org")
        return client, replies, calls, sleeps

    def ok(self):
        return 200, {}, json.dumps({"results": [self.WORK]}).encode()

    def test_success_is_parsed_and_recorded(self, live, tmp_path):
        client, replies, calls, sleeps = live
        replies.append(self.ok())
        work = client.search_candidates("A study")
        assert work.title == "A study"
        assert calls == ["https://api.openalex.org/works?search=A+study"
                         "&per-page=25&mailto=ops%40example.org"]
        assert sleeps == []
        offline = OpenAlexClient(fixtures=tmp_path, offline=True)
        assert offline.search_candidates("A study") == work

    @pytest.mark.parametrize("status", [400, 401, 403, 404])
    def test_client_error_is_not_retried(self, live, status):
        client, replies, calls, sleeps = live
        replies.append((status, {}, b"{}"))
        with pytest.raises(IOError, match=f"HTTP {status} from "):
            client.search_candidates("A study")
        assert len(calls) == 1 and sleeps == []

    def test_transient_failures_back_off_then_succeed(self, live):
        client, replies, calls, sleeps = live
        replies += [(503, {}, b""), ConnectionResetError("reset"), self.ok()]
        assert client.search_candidates("A study").title == "A study"
        assert len(calls) == 3 and sleeps == [1.0, 2.0]

    def test_no_sleep_after_the_last_attempt(self, live):
        client, replies, calls, sleeps = live
        replies += [(502, {}, b"")] * 3
        with pytest.raises(IOError, match="after 3 attempts: transient HTTP 502"):
            client.search_candidates("A study")
        assert len(calls) == 3 and sleeps == [1.0, 2.0]

    def test_retry_after_seconds_and_date(self, live):
        client, replies, calls, sleeps = live
        replies += [(429, {"retry-after": "7"}, b""),
                    (429, {"retry-after": "Thu, 01 Jan 1970 00:00:00 GMT"}, b""),
                    self.ok()]
        client.search_candidates("A study")
        assert sleeps == [7.0, 0.0]

    def test_unreadable_and_zoneless_retry_after(self, live):
        # An unreadable value falls back to the 1 s back-off; a date without
        # a zone is read as UTC.
        client, replies, calls, sleeps = live
        replies += [(429, {"retry-after": "soon"}, b""),
                    (429, {"retry-after": "Thu, 01 Jan 1970 00:00:00"}, b""),
                    self.ok()]
        client.search_candidates("A study")
        assert sleeps == [1.0, 0.0]

    def test_long_retry_after_fails_at_once(self, live):
        client, replies, calls, sleeps = live
        replies.append((429, {"retry-after": "86400"}, b""))
        with pytest.raises(IOError, match="retry after 86400 s"):
            client.search_candidates("A study")
        assert len(calls) == 1 and sleeps == []

    @pytest.mark.parametrize("body", [b"<html>", b"[]", b'{"meta": {}}'])
    def test_unreadable_success_body(self, live, body):
        client, replies, calls, sleeps = live
        replies.append((200, {}, body))
        with pytest.raises(IOError, match="unreadable response"):
            client.topic_works_count("mini grid")
        assert len(calls) == 1

    def test_http_error_status_is_returned(self, monkeypatch):
        import urllib.error
        import urllib.request

        def urlopen(url, timeout):
            raise urllib.error.HTTPError(url, 429, "Too Many Requests",
                                         {"Retry-After": "3"}, io.BytesIO(b"slow"))

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        assert openalex._http_get("https://x.invalid/", 1.0) == (
            429, {"retry-after": "3"}, b"slow")


def _service_payload(body: dict) -> dict:
    """A works_search fixture body as the service sends it."""
    return {"results": [
        {"id": w["id"], "title": w["title"], "publication_year": w["year"],
         "primary_location": {"source": {"display_name": w["venue"]}},
         "authorships": [{"author": {"display_name": a}} for a in w["authors"]],
         "doi": w["doi"], "cited_by_count": w["cited_by_count"]}
        for w in body["results"]]}


class TestRecordThenReplay:
    """verify --live records every response it fetches, and verify offline on
    those recordings gives the bundle the committed fixtures give. The service
    is a scripted ``_http_get`` answering from the demo fixtures' bodies."""

    def test_live_run_replays_offline(self, tmp_path, monkeypatch):
        demo = {e["fingerprint"]: e for e in (json.loads(p.read_text())
                                              for p in sorted(DEMO_FIXTURES.glob("*.json")))}
        bodies = {e["request"]["params"]["title"]: e["body"] for e in demo.values()
                  if e["request"]["endpoint"] == "works_search"}
        asked = []

        def service(url, timeout):
            title = parse_qs(urlsplit(url).query)["search"][0]
            asked.append(title)
            return 200, {}, json.dumps(_service_payload(bodies[title])).encode()

        def offline(url, timeout):
            raise AssertionError(f"network call in an offline run: {url}")

        recorded = tmp_path / "recorded"
        runs = {"committed": (DEMO_FIXTURES, [], offline),
                "live": (recorded, ["--live", "--rate-limit", "0"], service),
                "replay": (recorded, [], offline)}
        for run, (fixtures, flags, http_get) in runs.items():
            monkeypatch.setattr(openalex, "_http_get", http_get)
            assert main(["verify", "--dataset", str(DEMO_DATASET), "--fixtures", str(fixtures),
                         "--output-dir", str(tmp_path / run), *flags]) == 0
        assert sorted(asked) == sorted(bodies)
        for path in recorded.glob("*.json"):
            assert json.loads(path.read_text())["body"] == demo[path.stem]["body"]
        assert len(list(recorded.glob("*.json"))) == len(bodies)
        lines = {run: (tmp_path / run / "verification.jsonl").read_bytes() for run in runs}
        assert lines["live"] == lines["replay"] == lines["committed"]


class TestRateLimiter:
    @pytest.fixture
    def clock(self, monkeypatch):
        # A fake clock that a sleep advances; returns the clock and the sleeps.
        now, sleeps = [100.0], []

        def sleep(seconds):
            sleeps.append(seconds)
            now[0] += seconds

        monkeypatch.setattr(openalex.time, "monotonic", lambda: now[0])
        monkeypatch.setattr(openalex.time, "sleep", sleep)
        return now, sleeps

    def test_second_call_waits_out_the_interval(self, clock):
        now, sleeps = clock
        limiter = openalex._RateLimiter(per_second=5)
        limiter.wait()
        assert sleeps == []
        now[0] += 0.05
        limiter.wait()
        assert sleeps == [pytest.approx(0.15)]

    def test_call_after_the_interval_does_not_sleep(self, clock):
        now, sleeps = clock
        limiter = openalex._RateLimiter(per_second=5)
        limiter.wait()
        now[0] += 0.25
        limiter.wait()
        assert sleeps == []

    def test_zero_rate_never_sleeps(self, clock):
        _, sleeps = clock
        limiter = openalex._RateLimiter(per_second=0)
        for _ in range(3):
            limiter.wait()
        assert sleeps == []


class TestMatchWork:
    def test_top_candidate_accepted(self, stopwords):
        top = ExternalWork(id="W1", title="solar adoption in kenya", authors=[])
        got = match_work("Solar adoption in Kenya", top, stopwords)
        assert got is top

    def test_top_work_with_other_title_rejected(self, stopwords):
        top = ExternalWork(id="W1", title="completely different work", authors=[])
        assert match_work("Solar adoption in Kenya", top, stopwords) is None

    def test_threshold_boundary(self, stopwords):
        half = ExternalWork(id="W1", title="solar panels", authors=[])
        assert match_work("solar adoption", half, stopwords,
                          threshold=0.5) is half
        assert match_work("solar adoption", half, stopwords,
                          threshold=0.51) is None

    def test_empty_candidates(self, stopwords):
        assert match_work("anything", None, stopwords) is None

    def test_bad_threshold(self, stopwords):
        with pytest.raises(ValueError):
            match_work("x", None, stopwords, threshold=1.5)


class TestExternalWork:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExternalWork(id="", title="T", authors=[])
        with pytest.raises(ValueError):
            ExternalWork(id="W", title="T", authors=[], cited_by_count=-1)
