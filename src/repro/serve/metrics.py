"""Service-level metrics for the concurrent query-serving subsystem.

Tracks what an operator of a retrieval service actually watches: request and
completion counters, served QPS, a bounded reservoir of recent request
latencies for p50/p95/p99 estimates, the micro-batch size histogram (the
direct evidence that batching is happening under load), and admission-queue
rejections.  Result-cache effectiveness is *not* tracked here — the cache
counts its own hits/misses/expirations and the engine's ``stats()`` surfaces
them, keeping one source of truth.  Everything is guarded by one lock and
snapshotable as a plain JSON-serialisable dict for the ``/stats`` endpoint.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from typing import Callable, Deque, Dict, Optional

from repro.config import METRICS_WINDOW
# One percentile implementation for the whole package: the service metrics
# and the observability histograms must agree on rank selection.
from repro.obs.registry import percentile
from repro.utils.locking import create_lock

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """Thread-safe counters, latency percentiles, and batch-size histogram."""

    def __init__(
        self,
        latency_window: int = METRICS_WINDOW,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if latency_window <= 0:
            raise ValueError("latency_window must be positive")
        self._clock = clock
        self._lock = create_lock("ServiceMetrics._lock")
        self._started_at = clock()
        self._requests = 0
        self._completed = 0
        self._rejected = 0
        self._errors = 0
        self._latencies: Deque[float] = deque(maxlen=latency_window)
        self._latency_sum = 0.0
        self._batch_sizes: Counter = Counter()

    def record_request(self) -> None:
        """Count one admitted-or-rejected submission attempt."""
        with self._lock:
            self._requests += 1

    def record_rejection(self) -> None:
        """Count one submission rejected by admission control (backpressure)."""
        with self._lock:
            self._rejected += 1

    def record_error(self) -> None:
        """Count one request that failed with an unexpected engine error."""
        with self._lock:
            self._errors += 1

    def record_completion(self, latency_seconds: float) -> None:
        """Count one completed request and record its end-to-end latency."""
        with self._lock:
            self._completed += 1
            self._latencies.append(latency_seconds)
            self._latency_sum += latency_seconds

    def record_batch(self, batch_size: int) -> None:
        """Record the size of one executed micro-batch."""
        with self._lock:
            # lovo: ignore[LOVO005] keys are batch sizes, bounded by max_batch_size
            self._batch_sizes[int(batch_size)] += 1

    @property
    def completed_total(self) -> int:
        """Number of requests completed so far."""
        with self._lock:
            return self._completed

    def snapshot(self, queue_depth: Optional[int] = None) -> Dict[str, object]:
        """A point-in-time, JSON-serialisable view of every metric."""
        with self._lock:
            uptime = max(self._clock() - self._started_at, 1e-9)
            latencies = sorted(self._latencies)
            num_batches = sum(self._batch_sizes.values())
            batched_queries = sum(
                size * count for size, count in self._batch_sizes.items()
            )
            snapshot: Dict[str, object] = {
                "uptime_seconds": uptime,
                "requests_total": self._requests,
                "completed_total": self._completed,
                "rejected_total": self._rejected,
                "errors_total": self._errors,
                "qps": self._completed / uptime,
                # Un-windowed latency total: the `_sum` of the Prometheus
                # latency summary (quantiles stay windowed).
                "latency_seconds_sum": self._latency_sum,
                "latency_ms": {
                    "p50": percentile(latencies, 0.50) * 1000.0,
                    "p95": percentile(latencies, 0.95) * 1000.0,
                    "p99": percentile(latencies, 0.99) * 1000.0,
                    "mean": (sum(latencies) / len(latencies) * 1000.0) if latencies else 0.0,
                    "window": len(latencies),
                },
                "batches": {
                    "executed": num_batches,
                    "mean_size": (batched_queries / num_batches) if num_batches else 0.0,
                    "histogram": {
                        str(size): count
                        for size, count in sorted(self._batch_sizes.items())
                    },
                },
            }
            if queue_depth is not None:
                snapshot["queue_depth"] = queue_depth
            return snapshot
