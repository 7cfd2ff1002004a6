"""Wall-clock timing helpers used to report the paper's latency breakdowns.

The paper splits LOVO's execution time into *video processing*, *indexing +
fast search*, and *cross-modality rerank* phases (Fig. 9) and reports search
versus total time for every system (Fig. 8, Table III).  :class:`PhaseTimer`
accumulates named phases so the benchmark harness can regenerate exactly those
breakdowns.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

from repro.utils.locking import create_lock


@dataclass
class PhaseTimer:
    """Accumulates wall-clock time per named phase.

    The timer is thread-safe: a LOVO system shared by the serving worker pool
    folds per-query timings into one accumulator from many threads at once,
    and the unsynchronized read-modify-write of :meth:`add` would silently
    lose updates.  All mutating and aggregating methods hold an internal lock;
    the ``totals``/``counts`` dicts stay public for direct (point-in-time)
    reads.

    Example:
        >>> timer = PhaseTimer()
        >>> with timer.phase("fast_search"):
        ...     pass
        >>> "fast_search" in timer.totals
        True
    """

    totals: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=lambda: create_lock("PhaseTimer._lock"), repr=False, compare=False
    )

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager timing one occurrence of phase ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.add(name, elapsed)

    def add(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to phase ``name`` explicitly (thread-safe)."""
        with self._lock:
            self.totals[name] = self.totals.get(name, 0.0) + seconds
            self.counts[name] = self.counts.get(name, 0) + 1

    def total(self, *names: str) -> float:
        """Sum of the given phases; all phases when none are given."""
        with self._lock:
            if not names:
                return sum(self.totals.values())
            return sum(self.totals.get(name, 0.0) for name in names)

    def mean(self, name: str) -> float:
        """Average duration of a phase across its occurrences."""
        with self._lock:
            count = self.counts.get(name, 0)
            if count == 0:
                return 0.0
            return self.totals[name] / count

    def merge(self, other: "PhaseTimer") -> None:
        """Fold another timer's totals into this one."""
        # Snapshot the other timer first (dict copies are atomic under the
        # GIL) so two timers merging into each other cannot deadlock.
        other_totals, other_counts = dict(other.totals), dict(other.counts)
        with self._lock:
            for name, seconds in other_totals.items():
                self.totals[name] = self.totals.get(name, 0.0) + seconds
                self.counts[name] = self.counts.get(name, 0) + other_counts.get(name, 0)

    def as_dict(self) -> Dict[str, float]:
        """A copy of the per-phase totals."""
        with self._lock:
            return dict(self.totals)

    def reset(self) -> None:
        """Drop all recorded phases."""
        with self._lock:
            self.totals.clear()
            self.counts.clear()
