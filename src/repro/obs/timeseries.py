"""Metrics history: a bounded ring of windowed registry snapshots.

Prometheus-style pull metrics only show *now*; operating the service (and
evaluating SLO burn rates) needs a short look-back without an external TSDB.
:class:`MetricsHistory` ticks on a background thread (or manually, in tests),
flattens every metric family from a collect callable into one
``{series: value}`` point, and appends it to a bounded ring served by
``GET /v1/metrics/history``.

Tick listeners run after each snapshot — the SLO tracker registers one so
its burn-rate gauges refresh on the same cadence the history records.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List

from repro.config import HISTORY_CAPACITY
from repro.obs.registry import MetricFamily
from repro.utils.locking import create_lock


def flatten_families(families: Iterable[MetricFamily]) -> Dict[str, float]:
    """One ``{"name{label=value,...}": value}`` mapping per snapshot.

    Series keys follow the exposition line format (minus escaping — keys are
    identifiers, not wire format), so a history point lines up with what a
    scrape of ``/v1/metrics`` would have shown at that instant.
    """
    values: Dict[str, float] = {}
    for family in families:
        for sample in family.samples:
            if sample.labels:
                body = ",".join(
                    f'{name}="{value}"' for name, value in sample.labels.items()
                )
                key = f"{sample.name}{{{body}}}"
            else:
                key = sample.name
            values[key] = float(sample.value)
    return values


class MetricsHistory:
    """Periodic registry snapshots in a bounded ring, with tick listeners."""

    def __init__(
        self,
        collect: Callable[[], Iterable[MetricFamily]],
        interval_seconds: float = 10.0,
        capacity: int = HISTORY_CAPACITY,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError("MetricsHistory interval must be positive")
        if capacity <= 0:
            raise ValueError("MetricsHistory capacity must be positive")
        self._collect = collect
        self._interval = interval_seconds
        self._capacity = capacity
        self._points: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self._listeners: List[Callable[[Dict[str, object]], None]] = []
        self._lock = create_lock("MetricsHistory._lock")
        self._wake = threading.Event()
        self._ticks = 0
        self._started = False
        self._closed = False
        self._thread = threading.Thread(
            target=self._loop, name="lovo-metrics-history", daemon=True
        )

    @property
    def interval_seconds(self) -> float:
        """Seconds between automatic snapshots."""
        return self._interval

    @property
    def capacity(self) -> int:
        """Maximum retained snapshots."""
        return self._capacity

    def add_listener(self, listener: Callable[[Dict[str, object]], None]) -> None:
        """Run ``listener(point)`` after every tick (errors are swallowed)."""
        with self._lock:
            # lovo: ignore[LOVO005] listeners are registered once at wiring time, not per request
            self._listeners.append(listener)

    def start(self) -> "MetricsHistory":
        """Start the background ticker; idempotent."""
        with self._lock:
            if self._closed:
                raise RuntimeError("Cannot restart a stopped MetricsHistory")
            if not self._started:
                self._started = True
                self._thread.start()
        return self

    def stop(self, timeout: float | None = 5.0) -> None:
        """Stop the ticker; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        self._wake.set()
        if started:
            self._thread.join(timeout)

    def _loop(self) -> None:
        while not self._wake.wait(self._interval):
            self.tick()

    def tick(self, now: float | None = None) -> Dict[str, object]:
        """Take one snapshot now (the ticker's body; callable from tests)."""
        point: Dict[str, object] = {
            # lovo: ignore[LOVO004] history points carry wall-clock timestamps for display
            "t": now if now is not None else time.time(),
            "values": flatten_families(self._collect()),
        }
        with self._lock:
            self._points.append(point)
            self._ticks += 1
            listeners = list(self._listeners)
        for listener in listeners:
            try:
                listener(point)
            except Exception:  # noqa: BLE001 - listeners must not kill the ticker
                pass
        return point

    def points(
        self, limit: int | None = None, prefix: str | None = None
    ) -> List[Dict[str, object]]:
        """The retained snapshots, oldest first, optionally name-filtered."""
        with self._lock:
            snapshot = list(self._points)
        if limit is not None and limit >= 0:
            snapshot = snapshot[-limit:]
        if prefix:
            snapshot = [
                {
                    "t": point["t"],
                    "values": {
                        key: value
                        for key, value in point["values"].items()  # type: ignore[union-attr]
                        if key.startswith(prefix)
                    },
                }
                for point in snapshot
            ]
        return snapshot

    def series(self, key: str) -> List[Dict[str, float]]:
        """One series' ``[{"t", "value"}]`` across the retained snapshots."""
        with self._lock:
            snapshot = list(self._points)
        series: List[Dict[str, float]] = []
        for point in snapshot:
            values = point["values"]
            if key in values:  # type: ignore[operator]
                series.append({"t": point["t"], "value": values[key]})  # type: ignore[index]
        return series

    def stats(self) -> Dict[str, object]:
        """Occupancy summary for ``/v1/stats``."""
        with self._lock:
            return {
                "points": len(self._points),
                "capacity": self._capacity,
                "interval_seconds": self._interval,
                "ticks": self._ticks,
            }


__all__ = ["MetricsHistory", "flatten_families"]
