"""Streaming ingest: encode→index pipeline appending segments to live indexes.

Offline, LOVO ingests a dataset in one blocking :meth:`~repro.core.system.
LOVO.ingest` call.  The :class:`StreamingIngestor` splits that call into a
two-stage background pipeline so new video keeps flowing into the indexes
while queries are being served:

``submit(segment)`` → **encode stage** (key-frame selection + patch encoding,
the expensive, embarrassingly parallel part) → **index stage** (the short
critical section: append vectors to the live indexes via
:meth:`~repro.core.system.LOVO.ingest_summary`, record a delta snapshot,
score standing queries).

Both stages hand off through bounded queues.  When the pipeline cannot keep
up, ``backpressure="block"`` makes ``submit`` wait (lossless, paces the
producer) while ``"reject"`` fails fast with
:class:`~repro.errors.StreamBackpressureError` (the producer retries).
``StreamConfig.max_duty_cycle`` optionally caps the pipeline's share of
wall-clock time so concurrent queries keep most of the CPU while segments
stream in.

Each stage runs in exactly **one** thread, so segments are encoded and
indexed strictly in submission order.  Combined with the order-insensitive
scoring tiles in :mod:`repro.vectordb.base`, this makes streamed ingest
**bit-exact** with offline ingest of the same segments in the same order —
the parity property ``tests/test_stream.py`` asserts for every index family.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.config import INDEX_QUEUE_SIZE, StreamConfig
from repro.core.summary import SummaryOutput
from repro.errors import StreamBackpressureError, StreamClosedError, StreamError
from repro.obs.quality import DriftMonitor
from repro.obs.registry import REGISTRY, MetricsRegistry
from repro.utils.locking import create_condition, create_lock
from repro.video.model import VideoDataset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.system import LOVO
    from repro.persist.delta import DeltaSnapshotStore
    from repro.stream.subscriptions import SubscriptionManager


class SegmentTicket:
    """Handle for one submitted segment; resolves when it is queryable."""

    def __init__(self, sequence: int, dataset: str) -> None:
        self.sequence = sequence
        self.dataset = dataset
        self._done = threading.Event()
        self._summary: Optional[SummaryOutput] = None
        self._error: Optional[BaseException] = None

    def _resolve(self, summary: Optional[SummaryOutput], error: Optional[BaseException]) -> None:
        self._summary = summary
        self._error = error
        self._done.set()

    @property
    def done(self) -> bool:
        """Whether the segment has finished (successfully or not)."""
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the segment is indexed (or failed); False on timeout."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> SummaryOutput:
        """The segment's summary once indexed; re-raises pipeline errors."""
        if not self._done.wait(timeout):
            raise StreamError(
                f"Segment {self.sequence} ({self.dataset!r}) not indexed within timeout"
            )
        if self._error is not None:
            raise self._error
        assert self._summary is not None
        return self._summary


_STOP = object()


class _DutyCyclePacer:
    """Caps the pipeline's busy fraction of wall-clock time.

    Both stages bracket each work unit (one segment encoded or indexed) with
    ``throttle`` / ``charge``: ``throttle`` takes the single work permit —
    in paced mode at most one stage computes at a time, so concurrent
    queries never contend with more than one pipeline thread — then sleeps
    until ``busy / elapsed <= duty``; ``charge`` accounts the unit's
    duration and releases the permit.  This keeps the long-run CPU share of
    the whole pipeline at or below ``duty``, the mechanism behind the
    streaming benchmark's query-latency gate.
    """

    def __init__(self, duty: float) -> None:
        self._duty = duty
        self._lock = create_lock("_DutyCyclePacer._lock")
        # The permit is a semaphore in lock's clothing: taken in throttle()
        # and released in charge(), i.e. held across the unit of work by
        # design.  It stays an untracked primitive — lockdep would (rightly,
        # for a mutex) flag the long hold and cross-method release.
        self._permit = threading.Lock()
        self._busy = 0.0
        self._origin: Optional[float] = None

    def throttle(self) -> None:
        """Take the work permit, then sleep until the busy fraction is low."""
        self._permit.acquire()
        with self._lock:
            now = time.monotonic()
            if self._origin is None:
                self._origin = now
                return
            pause = self._busy / self._duty - (now - self._origin)
        if pause > 0:
            time.sleep(pause)

    def charge(self, elapsed: float) -> None:
        """Account ``elapsed`` seconds of work and release the permit."""
        with self._lock:
            now = time.monotonic()
            if self._origin is None:
                self._origin = now - elapsed
            self._busy += elapsed
        self._permit.release()


class StreamingIngestor:
    """Background encode→index pipeline over a live :class:`LOVO` system.

    Queries against the system remain safe and consistent throughout: the
    index layer publishes each append atomically (copy-on-write views), so a
    concurrent query sees either the collection before a segment or after
    it — never a torn intermediate.
    """

    def __init__(
        self,
        system: "LOVO",
        config: StreamConfig | None = None,
        subscriptions: "SubscriptionManager | None" = None,
        delta_store: "DeltaSnapshotStore | None" = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._system = system
        self._config = config or system.config.stream
        self._delta_store = delta_store
        if subscriptions is None:
            from repro.stream.subscriptions import SubscriptionManager

            subscriptions = SubscriptionManager(
                encode=system.text_encoder.encode,
                config=self._config,
                registry=registry,
            )
        self._subscriptions = subscriptions
        self._pacer = (
            _DutyCyclePacer(self._config.max_duty_cycle)
            if self._config.max_duty_cycle is not None
            else None
        )
        self._encode_queue: "queue.Queue[object]" = queue.Queue(
            self._config.encode_queue_size
        )
        self._index_queue: "queue.Queue[object]" = queue.Queue(INDEX_QUEUE_SIZE)
        self._state = create_condition("StreamingIngestor._state")
        self._sequence = 0
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._entities = 0
        self._closed = False
        self._started = False

        registry = registry or REGISTRY
        self._segments_counter = registry.counter(
            "lovo_stream_segments_total", "Segments indexed by the streaming pipeline"
        )
        self._entities_counter = registry.counter(
            "lovo_stream_entities_total", "Patch vectors appended by streaming ingest"
        )
        self._failures_counter = registry.counter(
            "lovo_stream_segment_failures_total", "Segments that failed in the pipeline"
        )
        self._rejected_counter = registry.counter(
            "lovo_stream_segments_rejected_total",
            "Segments rejected by backpressure in reject mode",
        )
        self._lag_gauge = registry.gauge(
            "lovo_stream_ingest_lag_segments",
            "Segments submitted but not yet queryable (pipeline lag)",
        )
        self._encode_depth_gauge = registry.gauge(
            "lovo_stream_encode_queue_depth", "Segments waiting for the encode stage"
        )
        self._index_depth_gauge = registry.gauge(
            "lovo_stream_index_queue_depth", "Summaries waiting for the index stage"
        )
        self._ingest_histogram = registry.histogram(
            "lovo_stream_ingest_seconds",
            "End-to-end submit-to-queryable latency per segment",
        )
        # Embedding-distribution drift under streaming ingest: the per-patch
        # L2 norms feed a windowed monitor whose alerts count genuine shifts.
        self._norm_gauge = registry.gauge(
            "lovo_stream_embedding_norm",
            "Mean patch-embedding L2 norm of the most recent indexed segment",
        )
        self._norm_drift = DriftMonitor(
            "embedding_norm",
            registry.counter(
                "lovo_stream_drift_alerts_total",
                "Streaming embedding-distribution drift alerts, by signal",
                ("signal",),
            ),
        )

        self._encode_thread = threading.Thread(
            target=self._encode_loop, name="lovo-stream-encode", daemon=True
        )
        self._index_thread = threading.Thread(
            target=self._index_loop, name="lovo-stream-index", daemon=True
        )

    @property
    def subscriptions(self) -> "SubscriptionManager":
        """The standing-query manager scored by the index stage."""
        return self._subscriptions

    @property
    def delta_store(self) -> "DeltaSnapshotStore | None":
        """The delta-snapshot store appended to by the index stage, if any."""
        return self._delta_store

    @property
    def closed(self) -> bool:
        """Whether the ingestor has been stopped."""
        return self._closed

    def start(self) -> "StreamingIngestor":
        """Start the pipeline threads; idempotent. Returns ``self``."""
        with self._state:
            if self._closed:
                raise StreamClosedError("Cannot restart a stopped streaming ingestor")
            if not self._started:
                self._started = True
                self._encode_thread.start()
                self._index_thread.start()
        return self

    def submit(self, dataset: VideoDataset) -> SegmentTicket:
        """Enqueue one segment for encode+index; returns its ticket.

        In ``block`` mode this waits for encode-queue space (pacing the
        producer to the pipeline's sustainable rate); in ``reject`` mode a
        full queue raises :class:`StreamBackpressureError` immediately.
        """
        with self._state:
            if self._closed:
                raise StreamClosedError("Streaming ingestor is stopped")
            if not self._started:
                raise StreamError("Call start() before submit()")
            self._sequence += 1
            ticket = SegmentTicket(self._sequence, dataset.name)
        item = (ticket, dataset, time.perf_counter())
        if self._config.backpressure == "reject":
            try:
                self._encode_queue.put_nowait(item)
            except queue.Full:
                self._rejected_counter.inc()
                raise StreamBackpressureError(
                    "Streaming encode queue is full; retry after the pipeline drains"
                ) from None
        else:
            self._encode_queue.put(item)
        with self._state:
            self._submitted += 1
            self._update_gauges_locked()
        return ticket

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted segment has completed (or failed)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._state:
            while self._completed + self._failed < self._submitted:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._state.wait(remaining)
            return True

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop the pipeline; by default finishes all queued segments first.

        After ``stop`` returns, further :meth:`submit` calls raise
        :class:`StreamClosedError`.  With ``drain=False`` segments still in
        the queues are abandoned (their tickets resolve with
        :class:`StreamClosedError`).
        """
        with self._state:
            if self._closed:
                return
            self._closed = True
        if drain and self._started:
            self.drain(timeout)
        if self._started:
            self._encode_queue.put(_STOP)
            self._encode_thread.join(timeout)
            self._index_thread.join(timeout)
        if not drain:
            self._abandon_queue(self._encode_queue)
            self._abandon_queue(self._index_queue)
        with self._state:
            self._update_gauges_locked()

    def _abandon_queue(self, pending: "queue.Queue[object]") -> None:
        while True:
            try:
                item = pending.get_nowait()
            except queue.Empty:
                return
            if item is _STOP:
                continue
            ticket = item[0]
            with self._state:
                self._failed += 1
                ticket._resolve(None, StreamClosedError("Streaming ingestor stopped"))
                self._state.notify_all()

    def stats(self) -> Dict[str, object]:
        """Pipeline counters plus the standing-query aggregate."""
        with self._state:
            lag = self._submitted - self._completed - self._failed
            snapshot: Dict[str, object] = {
                "submitted": self._submitted,
                "indexed": self._completed,
                "failed": self._failed,
                "entities": self._entities,
                "lag": lag,
                "encode_queue_depth": self._encode_queue.qsize(),
                "index_queue_depth": self._index_queue.qsize(),
                "closed": self._closed,
                "backpressure": self._config.backpressure,
                "max_duty_cycle": self._config.max_duty_cycle,
            }
        snapshot["standing_queries"] = self._subscriptions.stats()
        snapshot["drift"] = self._norm_drift.stats()
        if self._delta_store is not None:
            snapshot["deltas"] = len(self._delta_store.deltas())
        return snapshot

    # ---------------------------------------------------------------- stages

    def _encode_loop(self) -> None:
        while True:
            item = self._encode_queue.get()
            if item is _STOP:
                self._index_queue.put(_STOP)
                return
            ticket, dataset, submitted_at = item
            self._update_gauges()
            if self._pacer is not None:
                self._pacer.throttle()
            encode_start = time.perf_counter()
            try:
                summary = self._system.summarizer.summarize(dataset)
                encode_end = time.perf_counter()
            except BaseException as error:  # noqa: BLE001 - resolve the ticket
                if self._pacer is not None:
                    self._pacer.charge(time.perf_counter() - encode_start)
                self._finish(ticket, None, error)
                if not isinstance(error, Exception):
                    # Resolve the ticket, then let KeyboardInterrupt/SystemExit
                    # kill the stage; swallowing them would leave a zombie
                    # pipeline that looks healthy but ignores interrupts.
                    self._index_queue.put(_STOP)
                    raise
                continue
            if self._pacer is not None:
                self._pacer.charge(encode_end - encode_start)
            self._index_queue.put(
                (ticket, dataset.name, summary, submitted_at, encode_start, encode_end)
            )
            self._update_gauges()

    def _index_loop(self) -> None:
        while True:
            item = self._index_queue.get()
            if item is _STOP:
                return
            ticket, dataset_name, summary, submitted_at, encode_start, encode_end = item
            self._update_gauges()
            if self._pacer is not None:
                self._pacer.throttle()
            work_start = time.perf_counter()
            trace = self._system.tracer.start(
                kind="stream_ingest", dataset=dataset_name, segment=ticket.sequence
            )
            if trace is not None:
                trace.record(
                    "stream_encode",
                    encode_start,
                    encode_end,
                    entities=len(summary.encodings),
                )
            try:
                index_start = time.perf_counter()
                self._system.ingest_summary(dataset_name, summary)
                data_version = self._system.data_version
                index_end = time.perf_counter()
                if trace is not None:
                    trace.record(
                        "stream_index", index_start, index_end, epoch=data_version
                    )
                if self._delta_store is not None:
                    self._delta_store.append(dataset_name, summary)
                match_start = time.perf_counter()
                matches = self._subscriptions.score_batch(
                    summary.encodings, data_version, dataset_name
                )
                match_end = time.perf_counter()
                if trace is not None:
                    trace.record("stream_match", match_start, match_end, matches=matches)
            except BaseException as error:  # noqa: BLE001 - resolve the ticket
                if self._pacer is not None:
                    self._pacer.charge(time.perf_counter() - work_start)
                self._system.tracer.finish(trace, status="error", error=str(error))
                self._finish(ticket, None, error)
                if not isinstance(error, Exception):
                    # Same contract as the encode stage: tickets resolve, but
                    # interpreter-shutdown control flow still unwinds.
                    raise
                continue
            done = time.perf_counter()
            if self._pacer is not None:
                self._pacer.charge(done - work_start)
            self._ingest_histogram.observe(done - submitted_at)
            self._segments_counter.inc()
            self._entities_counter.inc(len(summary.encodings))
            if summary.encodings:
                norms = [
                    float(np.linalg.norm(encoding.embedding))
                    for encoding in summary.encodings
                ]
                self._norm_gauge.set(sum(norms) / len(norms))
                self._norm_drift.observe_many(norms)
            self._system.tracer.finish(trace, status="ok", matches=matches)
            with self._state:
                self._entities += len(summary.encodings)
            self._finish(ticket, summary, None)

    def _finish(
        self,
        ticket: SegmentTicket,
        summary: Optional[SummaryOutput],
        error: Optional[BaseException],
    ) -> None:
        # Resolved under the state lock, after the counters: a caller woken
        # by the ticket must never read stats() that predate its segment.
        with self._state:
            if error is None:
                self._completed += 1
            else:
                self._failed += 1
                self._failures_counter.inc()
            ticket._resolve(summary, error)
            self._update_gauges_locked()
            self._state.notify_all()

    def _update_gauges(self) -> None:
        with self._state:
            self._update_gauges_locked()

    def _update_gauges_locked(self) -> None:
        self._lag_gauge.set(self._submitted - self._completed - self._failed)
        self._encode_depth_gauge.set(self._encode_queue.qsize())
        self._index_depth_gauge.set(self._index_queue.qsize())


__all__ = ["SegmentTicket", "StreamingIngestor"]
