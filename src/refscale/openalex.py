"""Client for the OpenAlex scholarly-metadata service.

Two modes:

* offline (default for tests): every request is answered from a fixture
  snapshot directory; a cache miss is a hard error naming the request
  fingerprint, never a network call.
* live: HTTPS requests with rate limiting and bounded retries; every
  response is written into the cache so a later offline run replays it.

The cache is content-addressed: the key is a hash of (endpoint, params),
and entries round-trip byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .atomic import atomic_write
from .records import build_record

__all__ = [
    "ExternalWork",
    "FixtureMiss",
    "FixtureCache",
    "OpenAlexClient",
    "request_fingerprint",
]

API_BASE = "https://api.openalex.org"


@dataclass
class ExternalWork:
    """One bibliographic record as returned by the metadata service."""

    id: str
    title: str = ""
    authors: List[str] = field(default_factory=list)
    year: Optional[int] = None
    venue: Optional[str] = None
    doi: Optional[str] = None
    cited_by_count: int = 0

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("work id must be non-empty")
        if self.cited_by_count < 0:
            raise ValueError("cited_by_count must be non-negative")


class FixtureMiss(LookupError):
    """Offline request with no recorded fixture; carries the fingerprint."""

    def __init__(self, fingerprint: str, endpoint: str, params: dict):
        super().__init__(
            f"no fixture for {endpoint} {params!r} (fingerprint {fingerprint})"
        )
        self.fingerprint = fingerprint
        self.endpoint = endpoint
        self.params = params


def request_fingerprint(endpoint: str, params: dict) -> str:
    canonical = json.dumps(
        {"endpoint": endpoint, "params": params}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class FixtureCache:
    """Content-addressed directory of recorded responses.

    Writes go through ``atomic_write``, so parallel workers never observe a
    torn entry and two writers of one fingerprint never share a temp file.

    Each instance reads an entry from disk once and then serves the decoded
    entry from memory; callers must not mutate it. Of a body with a
    ``results`` list, memory holds only the top-ranked result, the only one
    a search is matched against; lower ranks stay on disk. Other bodies are
    held whole. Misses and corrupt files are not remembered, so they are
    looked up, and raise, on every call.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise NotADirectoryError(f"fixture path {self.directory} is not a directory")
        self._entries: Dict[str, dict] = {}

    def _path(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[dict]:
        entry = self._entries.get(fingerprint)
        if entry is not None:
            return entry
        path = self._path(fingerprint)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise IOError(f"corrupt fixture {path}: invalid JSON: {err}") from err
        except OSError as err:
            raise IOError(f"corrupt fixture {path}: {err}") from err
        if not isinstance(entry, dict) or "body" not in entry:
            raise IOError(f"corrupt fixture {path}: no 'body' field")
        body = entry["body"]
        if isinstance(body, dict) and isinstance(body.get("results"), list):
            del body["results"][1:]
        self._entries[fingerprint] = entry
        return entry

    def put(self, fingerprint: str, endpoint: str, params: dict, body) -> None:
        atomic_write(self._path(fingerprint), json.dumps({
            "fingerprint": fingerprint,
            "request": {"endpoint": endpoint, "params": params},
            "body": body,
            "fetched_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }, sort_keys=True, indent=1))
        self._entries.pop(fingerprint, None)


_TRANSIENT_STATUSES = frozenset({429, 500, 502, 503, 504})
_MAX_ATTEMPTS = 3
_TIMEOUT_S = 30.0
# A longer Retry-After (the daily quota, say) fails the request at once.
_MAX_RETRY_AFTER_S = 60.0


def _http_get(url: str, timeout: float) -> Tuple[int, Dict[str, str], bytes]:
    """GET ``url``: (status, headers with lower-case names, body).

    An HTTP error status is returned, not raised; a failure to connect or
    read raises OSError. This is the client's only network call.
    """
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, _lower_keys(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        with err:
            return err.code, _lower_keys(err.headers or {}), err.read()


def _lower_keys(headers) -> Dict[str, str]:
    return {name.lower(): value for name, value in headers.items()}


def _retry_after(value: Optional[str]) -> Optional[float]:
    """Seconds to wait from a Retry-After value (delay-seconds or an HTTP
    date), or None when it is absent or unreadable."""
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        pass
    from datetime import datetime, timezone
    from email.utils import parsedate_to_datetime

    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


class _RateLimiter:
    def __init__(self, per_second: float):
        self.min_interval = 1.0 / per_second if per_second > 0 else 0.0
        self._last = 0.0

    def wait(self) -> None:
        if self.min_interval <= 0:
            return
        now = time.monotonic()
        delta = now - self._last
        if delta < self.min_interval:
            time.sleep(self.min_interval - delta)
        self._last = time.monotonic()


class OpenAlexClient:
    """Work search and topic result counts.

    Topic count queries phrase-quote the topic string; unquoted counts differ
    by orders of magnitude, so the quoting choice is part of the request
    fingerprint.
    """

    def __init__(
        self,
        fixtures: Path,
        offline: bool = True,
        rate_limit: float = 5.0,
        mailto: Optional[str] = None,
    ):
        self.cache = FixtureCache(Path(fixtures))
        self.offline = offline
        self.mailto = mailto
        self._limiter = _RateLimiter(rate_limit)

    # -- request plumbing ---------------------------------------------------

    def _fetch(self, endpoint: str, params: dict):
        fp = request_fingerprint(endpoint, params)
        entry = self.cache.get(fp)
        if entry is not None:
            return entry["body"]
        if self.offline:
            raise FixtureMiss(fp, endpoint, params)
        body = self._fetch_live(endpoint, params)
        self.cache.put(fp, endpoint, params, body)
        return body

    def _fetch_live(self, endpoint: str, params: dict):
        """One live request, retried on a network failure or a transient
        status (429 and 5xx gateway errors), never on any other status.

        Between attempts it waits for the response's Retry-After, or else
        1, 2, 4, ... seconds; it does not wait after the last attempt.
        """
        from urllib.parse import urlencode

        query = dict(self._live_query(endpoint, params))
        if self.mailto:
            query["mailto"] = self.mailto
        url = f"{API_BASE}/works?{urlencode(query)}"
        for attempt in range(_MAX_ATTEMPTS):
            self._limiter.wait()
            delay = 2.0 ** attempt
            try:
                status, headers, body = _http_get(url, _TIMEOUT_S)
            except OSError as err:
                failure = f"{type(err).__name__}: {err}"
            else:
                if 200 <= status < 300:
                    try:
                        return self._parse_live(endpoint, json.loads(body))
                    except (AttributeError, KeyError, TypeError, ValueError) as err:
                        raise IOError(f"unreadable response from {url}: "
                                      f"{type(err).__name__}: {err}") from err
                if status not in _TRANSIENT_STATUSES:
                    raise IOError(f"HTTP {status} from {url}")
                failure = f"transient HTTP {status}"
                asked = _retry_after(headers.get("retry-after"))
                if asked is not None:
                    if asked > _MAX_RETRY_AFTER_S:
                        raise IOError(f"HTTP {status} from {url}: server asks to "
                                      f"retry after {asked:.0f} s")
                    delay = asked
            if attempt + 1 < _MAX_ATTEMPTS:
                time.sleep(delay)
        raise IOError(f"request failed after {_MAX_ATTEMPTS} attempts: {failure}")

    @staticmethod
    def _live_query(endpoint: str, params: dict) -> dict:
        if endpoint == "works_count":
            phrase = params["search"]
            return {
                "filter": f'title_and_abstract.search:"{phrase}"',
                "per-page": 1,
            }
        if endpoint == "works_search":
            return {"search": params["title"], "per-page": 25}
        raise ValueError(f"unknown endpoint: {endpoint}")

    @staticmethod
    def _parse_live(endpoint: str, payload: dict):
        if endpoint == "works_count":
            return {"count": int(payload["meta"]["count"])}
        works = []
        for item in payload.get("results", []):
            year = item.get("publication_year")
            loc = item.get("primary_location") or {}
            src = loc.get("source") or {}
            venue = src.get("display_name")
            authors = [
                (a.get("author") or {}).get("display_name") or ""
                for a in item.get("authorships", [])
            ]
            works.append(
                {
                    "id": item.get("id", ""),
                    "title": item.get("title") or "",
                    "authors": [a for a in authors if a],
                    "year": year,
                    "venue": venue,
                    "doi": item.get("doi"),
                    "cited_by_count": int(item.get("cited_by_count", 0)),
                }
            )
        return {"results": works}

    # -- public operations --------------------------------------------------

    def topic_works_count(self, phrase: str) -> int:
        """Total result count for the phrase-quoted title-and-abstract search."""
        if not phrase or not phrase.strip():
            raise ValueError("topic phrase must be non-empty")
        body = self._fetch("works_count", {"search": phrase, "quoted": True})
        return int(body["count"])

    def search_candidates(self, title: str) -> Optional[ExternalWork]:
        """The service's top-ranked work for a claimed title, or None when
        the search found nothing. A reference is matched against this work
        only: lower ranks are never eligible, so they are not parsed."""
        if not title or not title.strip():
            raise ValueError("title must be non-empty")
        params = {"title": title}
        body = self._fetch("works_search", params)
        results = body.get("results") if isinstance(body, dict) else None
        try:
            if not isinstance(results, list):
                raise ValueError("works_search body has no 'results' list")
            return build_record(ExternalWork, "results[0]", results[0]) if results else None
        except (TypeError, ValueError) as err:
            path = self.cache._path(request_fingerprint("works_search", params))
            raise IOError(f"corrupt fixture {path}: {type(err).__name__}: {err}") from err
