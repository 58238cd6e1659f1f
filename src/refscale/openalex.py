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
from typing import Dict, List, Optional

from .atomic import atomic_write

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
    title: str
    authors: List[str]
    year: Optional[int] = None
    venue: Optional[str] = None
    doi: Optional[str] = None
    cited_by_count: int = 0

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("work id must be non-empty")
        if self.cited_by_count < 0:
            raise ValueError("cited_by_count must be non-negative")

    @classmethod
    def from_json(cls, obj: dict) -> "ExternalWork":
        return cls(
            id=obj["id"],
            title=obj.get("title") or "",
            authors=list(obj.get("authors", [])),
            year=obj.get("year"),
            venue=obj.get("venue"),
            doi=obj.get("doi"),
            cited_by_count=int(obj.get("cited_by_count", 0)),
        )

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "authors": self.authors,
            "year": self.year,
            "venue": self.venue,
            "doi": self.doi,
            "cited_by_count": self.cited_by_count,
        }


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
    entry from memory; callers must not mutate it. Misses and corrupt files
    are not remembered, so they are looked up, and raise, on every call.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
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
        if not isinstance(entry, dict) or "body" not in entry:
            raise IOError(f"corrupt fixture {path}: no 'body' field")
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
        max_attempts: int = 3,
        mailto: Optional[str] = None,
        timeout: float = 30.0,
    ):
        self.cache = FixtureCache(Path(fixtures))
        self.offline = offline
        self.mailto = mailto
        self.timeout = timeout
        self.max_attempts = max_attempts
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
        import requests

        query = dict(self._live_query(endpoint, params))
        if self.mailto:
            query["mailto"] = self.mailto
        last_err: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            self._limiter.wait()
            try:
                resp = requests.get(
                    f"{API_BASE}/works", params=query, timeout=self.timeout
                )
                if resp.status_code in (429, 500, 502, 503, 504):
                    raise IOError(f"transient HTTP {resp.status_code}")
                resp.raise_for_status()
                return self._parse_live(endpoint, resp.json())
            except (IOError, OSError) as err:
                last_err = err
                time.sleep(2.0 ** attempt)
        raise IOError(f"request failed after {self.max_attempts} attempts: {last_err}")

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
            venue = None
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

    def search_candidates(self, title: str, max_n: int = 25) -> List[ExternalWork]:
        """The first ``max_n`` service-ranked candidate works for a claimed
        title; lower-ranked results are not parsed."""
        if not title or not title.strip():
            raise ValueError("title must be non-empty")
        if max_n <= 0:
            return []
        params = {"title": title}
        body = self._fetch("works_search", params)
        results = body.get("results") if isinstance(body, dict) else None
        try:
            if not isinstance(results, list):
                raise ValueError("works_search body has no 'results' list")
            return [ExternalWork.from_json(w) for w in results[:max_n]]
        except (KeyError, TypeError, ValueError) as err:
            path = self.cache._path(request_fingerprint("works_search", params))
            raise IOError(f"corrupt fixture {path}: {type(err).__name__}: {err}") from err
