"""Micro-batching scheduler: coalesce concurrent queries into engine batches.

The batched engine (``LOVO.query_batch``) amortises text encoding, the ANN
probes, and candidate-frame re-encoding across a batch — but only if someone
actually forms batches.  Under concurrent load, requests arrive one at a time
from independent callers; the :class:`MicroBatcher` sits between them and the
engine, holding the admission queue and handing worker threads *coalesced*
batches: a worker blocks for the first pending query, then keeps collecting
until either ``max_batch_size`` queries are in hand or ``max_wait_ms`` has
passed since the first one.  Callers get a :class:`concurrent.futures.Future`
that resolves when their batch executes.

The queue is bounded: when it is full, :meth:`submit` raises
:class:`~repro.errors.ServiceOverloadedError` instead of buffering without
limit — that backpressure is what keeps latency bounded when offered load
exceeds capacity.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.query import QueryOptions
from repro.errors import ServiceOverloadedError, ServingError
from repro.obs.trace import Trace
from repro.utils.locking import create_lock


@dataclass
class PendingQuery:
    """One admitted query waiting to be coalesced into a micro-batch."""

    text: str
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)
    options: QueryOptions = field(default_factory=QueryOptions)
    #: The request's trace (``None`` when tracing is disabled).  It rides
    #: along through the queue so the worker that picks the batch up can
    #: record the queue-wait span and fan engine spans into it.
    trace: Optional["Trace"] = None


class MicroBatcher:
    """Bounded admission queue plus the batch-coalescing pull loop."""

    #: How often a blocked :meth:`next_batch` re-checks for shutdown.
    _POLL_SECONDS = 0.05

    def __init__(
        self,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        queue_size: int = 256,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if queue_size <= 0:
            raise ValueError("queue_size must be positive")
        self._max_batch_size = max_batch_size
        self._max_wait_seconds = max_wait_ms / 1000.0
        self._queue: "queue.Queue[PendingQuery]" = queue.Queue(maxsize=queue_size)
        self._closed = threading.Event()
        # Makes the closed-check + enqueue in submit() atomic with close():
        # once close() returns, no further submission can slip into the queue,
        # so a post-shutdown drain is guaranteed to see every admitted query.
        self._submit_lock = create_lock("MicroBatcher._submit_lock")

    @property
    def max_batch_size(self) -> int:
        """Upper bound on queries coalesced into one batch."""
        return self._max_batch_size

    @property
    def depth(self) -> int:
        """Number of admitted queries not yet pulled into a batch."""
        return self._queue.qsize()

    @property
    def closed(self) -> bool:
        """Whether the batcher has stopped accepting new queries."""
        return self._closed.is_set()

    def submit(self, pending: PendingQuery) -> None:
        """Admit one query, or reject it when the queue is full / closed."""
        with self._submit_lock:
            if self._closed.is_set():
                raise ServingError("Cannot submit to a closed micro-batcher")
            try:
                self._queue.put_nowait(pending)
            except queue.Full:
                raise ServiceOverloadedError(
                    f"Admission queue is full ({self._queue.maxsize} pending queries); "
                    "retry after a short delay"
                ) from None

    def next_batch(self) -> Optional[List[PendingQuery]]:
        """Block for the next micro-batch; ``None`` once closed and drained.

        Safe to call from several worker threads: each admitted query lands
        in exactly one batch.  After :meth:`close`, remaining queued queries
        keep being handed out so a graceful shutdown drains the queue.
        """
        while True:
            try:
                first = self._queue.get(timeout=self._POLL_SECONDS)
                break
            except queue.Empty:
                if self._closed.is_set():
                    return None
        batch = [first]
        deadline = time.monotonic() + self._max_wait_seconds
        while len(batch) < self._max_batch_size:
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0:
                    batch.append(self._queue.get_nowait())
                else:
                    batch.append(self._queue.get(timeout=remaining))
            except queue.Empty:
                break
        return batch

    def close(self) -> None:
        """Stop admitting queries; queued ones still drain via :meth:`next_batch`.

        Once this returns, no concurrent :meth:`submit` can succeed anymore.
        """
        with self._submit_lock:
            self._closed.set()

    def drain(self) -> List[PendingQuery]:
        """Remove and return everything still queued (for non-graceful stops)."""
        drained: List[PendingQuery] = []
        while True:
            try:
                drained.append(self._queue.get_nowait())
            except queue.Empty:
                return drained
