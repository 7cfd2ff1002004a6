"""TTL + LRU result cache for served queries.

Production query streams are heavily repetitive (the paper's motivating
workload is millions of users asking about the same handful of scenes), so a
response cache in front of the engine turns hot queries into dictionary
lookups.  Entries expire after a TTL so a long-running service eventually
reflects newly ingested data, and the LRU bound keeps memory flat.

:class:`TTLLRUCache` is the generic mechanism — a thread-safe extension of
:class:`repro.utils.cache.LRUCache` that stamps every entry with a deadline.
:class:`ResultCache` specialises it for query serving: keys are the
*normalized* query text, the resolved retrieval depths ``(k, n)`` that shaped
the response, and the data **epoch** the response was computed against (the
system's ``data_version``), and hits are returned as fresh
:class:`~repro.core.results.QueryResponse` objects carrying the caller's
original text and a ``cache_hit`` marker.  The epoch component is what keeps
the cache honest under streaming ingest: every ingest bumps the version, so
entries produced before it simply stop being looked up — a TTL-sized window
of stale answers becomes impossible, not merely short.
"""

from __future__ import annotations

import time
from typing import Callable, Hashable, Optional, Tuple, TypeVar

from repro.config import QueryConfig
from repro.core.query import QueryOptions
from repro.core.results import QueryResponse
from repro.utils.cache import LRUCache

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_MISSING = object()


def normalize_query_text(text: str) -> str:
    """Canonical cache form of a query string (case- and spacing-insensitive).

    The query parser lowercases and re-tokenizes its input, so two strings
    that normalize identically are guaranteed to produce identical results.
    """
    return " ".join(text.lower().split())


class TTLLRUCache(LRUCache[K, Tuple[V, float]]):
    """An :class:`LRUCache` whose entries also expire after a fixed TTL.

    Inherits the parent's re-entrant lock, so the expiry check in :meth:`get`
    is atomic with the recency update.  An expired entry counts as a miss
    (and is dropped eagerly); ``expirations`` counts how many hits were lost
    to the TTL rather than to capacity eviction.
    """

    def __init__(
        self,
        maxsize: int = 1024,
        ttl_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(maxsize)
        if ttl_seconds <= 0:
            raise ValueError("TTLLRUCache ttl_seconds must be positive")
        self._ttl = ttl_seconds
        self._clock = clock
        self.expirations = 0

    @property
    def ttl_seconds(self) -> float:
        """Seconds an entry stays valid after being written."""
        return self._ttl

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:  # type: ignore[override]
        """Return the live cached value, or ``default`` on miss/expiry."""
        with self._lock:
            entry = super().get(key, _MISSING)
            if entry is _MISSING:
                return default
            value, deadline = entry  # type: ignore[misc]
            if self._clock() >= deadline:
                super().pop(key)
                # Reclassify the parent's recency hit as a miss.
                self.hits -= 1
                self.misses += 1
                self.expirations += 1
                return default
            return value

    def put(self, key: K, value: V) -> None:  # type: ignore[override]
        """Insert or refresh an entry, restarting its TTL."""
        super().put(key, (value, self._clock() + self._ttl))

    def clear(self) -> None:
        """Drop every entry and reset all counters."""
        with self._lock:
            super().clear()
            self.expirations = 0


class ResultCache:
    """Query-response cache keyed on normalized text, depths, and data epoch."""

    def __init__(
        self,
        maxsize: int = 1024,
        ttl_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._cache: TTLLRUCache[Tuple[str, int, int, int], QueryResponse] = TTLLRUCache(
            maxsize=maxsize, ttl_seconds=ttl_seconds, clock=clock
        )

    @staticmethod
    def key_for(
        text: str, options: QueryOptions, config: QueryConfig, epoch: int = 0
    ) -> Tuple[str, int, int, int]:
        """The cache key of a request: normalized text, resolved ``(k, n)``, epoch.

        Keyed on the *resolved* retrieval depths, so semantically identical
        requests collide: an explicit ``QueryOptions(top_n=40)`` and a bare
        string under a config whose default is 40 share one entry.  The key
        is also shard/replica-invariant by construction: backend topology
        never enters it.
        """
        fast_search_k, top_n = options.resolved(config)
        return (normalize_query_text(text), int(fast_search_k), int(top_n), int(epoch))

    def get(
        self, text: str, options: QueryOptions, config: QueryConfig, epoch: int = 0
    ) -> Optional[QueryResponse]:
        """A fresh response object for a live cached result, else ``None``.

        The returned response shares the (immutable) result records with the
        cached entry but carries the caller's original query text and a
        ``cache_hit`` metadata marker, so callers can mutate their response
        without corrupting the cache.
        """
        cached = self._cache.get(self.key_for(text, options, config, epoch))
        if cached is None:
            return None
        return QueryResponse(
            query=text,
            results=list(cached.results),
            timings=dict(cached.timings),
            metadata={**cached.metadata, "cache_hit": True},
        )

    def put(
        self,
        text: str,
        options: QueryOptions,
        config: QueryConfig,
        response: QueryResponse,
        epoch: int = 0,
    ) -> None:
        """Cache a served response under its key (see :meth:`key_for`).

        A defensive copy is stored, so the caller that produced ``response``
        (the cache-miss path hands its object straight to the submitter) can
        mutate it freely without corrupting later hits.
        """
        entry = QueryResponse(
            query=response.query,
            results=list(response.results),
            timings=dict(response.timings),
            metadata=dict(response.metadata),
        )
        self._cache.put(self.key_for(text, options, config, epoch), entry)

    def clear(self) -> None:
        """Drop every cached response."""
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)

    def stats(self) -> dict:
        """Hit/miss/expiry counters plus current size."""
        return {
            "size": len(self._cache),
            "maxsize": self._cache.maxsize,
            "ttl_seconds": self._cache.ttl_seconds,
            "hits": self._cache.hits,
            "misses": self._cache.misses,
            "expirations": self._cache.expirations,
        }
