"""A small least-recently-used cache.

Used by the batched text encoder to avoid re-parsing and re-embedding
repeated query strings: real workloads (and the Table II benchmark batches)
contain many duplicate or near-duplicate queries, so an LRU over the query
text makes the per-query encoding cost of a hot query effectively zero.

The cache is thread-safe: the serving subsystem (:mod:`repro.serve`) answers
queries from a pool of worker threads that all share one text encoder, and an
unsynchronized ``OrderedDict`` corrupts its recency links under concurrent
``move_to_end``/``popitem`` calls.  Every public operation holds an internal
re-entrant lock, which subclasses (e.g. the TTL cache in
:mod:`repro.serve.cache`) may also acquire to make compound operations atomic.

Given a ``weigh`` function, the cache bounds the summed weight of its
entries instead of their number: the query strategy's rerank-candidate cache
weighs each candidate by its bytes, so its bound is a memory budget.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, Optional, TypeVar

from repro.utils.locking import create_rlock

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_MISSING = object()


class LRUCache(Generic[K, V]):
    """A bounded, thread-safe mapping that evicts the least-recently-used entry.

    Both :meth:`get` and :meth:`put` refresh an entry's recency.  ``hits``
    and ``misses`` counters are exposed so callers (and tests) can verify
    cache effectiveness.  ``maxsize`` bounds the number of entries, or, with
    ``weigh``, the summed ``weigh(value)`` of the entries; a value heavier
    than ``maxsize`` on its own is not stored.
    """

    def __init__(
        self, maxsize: int = 1024, weigh: Optional[Callable[[V], int]] = None
    ) -> None:
        if maxsize <= 0:
            raise ValueError("LRUCache maxsize must be positive")
        self._maxsize = maxsize
        self._weigh = weigh
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self._weights: Dict[K, int] = {}
        self._weight = 0
        self._lock = create_rlock("LRUCache._lock")
        self.hits = 0
        self.misses = 0

    @property
    def maxsize(self) -> int:
        """Maximum number of entries (or summed weight) retained."""
        return self._maxsize

    @property
    def weight(self) -> int:
        """Summed weight of the entries (their number without ``weigh``)."""
        with self._lock:
            return self._weight

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """Return the cached value (refreshing recency) or ``default``."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self.hits += 1
            self._entries.move_to_end(key)
            return value  # type: ignore[return-value]

    def put(self, key: K, value: V) -> None:
        """Insert or refresh an entry, evicting the oldest while over the bound."""
        weight = 1 if self._weigh is None else self._weigh(value)
        with self._lock:
            self._remove(key)
            if weight > self._maxsize:
                return
            self._entries[key] = value
            self._weights[key] = weight
            self._weight += weight
            while self._weight > self._maxsize:
                oldest, _ = self._entries.popitem(last=False)
                self._weight -= self._weights.pop(oldest)

    def pop(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """Remove and return an entry without touching the hit/miss counters."""
        with self._lock:
            value = self._remove(key)
            if value is _MISSING:
                return default
            return value  # type: ignore[return-value]

    def _remove(self, key: K) -> object:
        """Drop ``key``'s entry and its weight; ``_MISSING`` when absent."""
        value = self._entries.pop(key, _MISSING)
        if value is not _MISSING:
            self._weight -= self._weights.pop(key)
        return value

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self._weights.clear()
            self._weight = 0
            self.hits = 0
            self.misses = 0
