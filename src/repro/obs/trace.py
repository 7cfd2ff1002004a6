"""Request tracing: spans, traces, contextvar propagation, and the trace store.

One served query crosses several threads — the HTTP handler thread submits,
the micro-batcher queues, an engine worker executes the batch, and the shard
router fans the ANN search out across a thread pool.  A :class:`Trace`
accumulates :class:`Span` records across all of them:

* ``queue_wait`` — from admission to batch pickup (recorded by the worker);
* ``encode`` / ``fast_search`` / ``rerank`` — the engine phases;
* ``scatter`` → ``shard_search`` — one span per shard call, annotated with
  which replica answered and whether the call failed over;
* ``merge`` — the global top-``k`` merge.

Propagation is contextvar-based: :func:`activate` installs one or more target
traces for the current context, :func:`span` opens a child span in every
target (micro-batched queries share the work of one engine pass, so one
measured interval is recorded into every member's trace), and thread pools
carry the context across with ``contextvars.copy_context()``.  When no trace
is active — or tracing is disabled via :class:`~repro.config.ObsConfig` —
every instrumentation point is a single context-variable read and a no-op
context manager, so the disabled path stays effectively free.

Span clocks are ``time.perf_counter`` offsets relative to the trace's start,
so spans recorded by different threads stay mutually comparable.
"""

from __future__ import annotations

import time
import uuid
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.config import MAX_SPANS_PER_TRACE, SLOW_LOG_SIZE, TRACE_STORE_SIZE, ObsConfig
from repro.utils.locking import create_lock


@dataclass
class Span:
    """One timed operation inside a trace.

    ``start_s`` is the offset from the owning trace's start; ``duration_s``
    is ``0.0`` while the span is still open.  ``parent_id`` links the span
    into the trace's tree (``None`` marks a root-level span).
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    duration_s: float = 0.0
    attributes: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (milliseconds, like the latency metrics)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ms": self.start_s * 1000.0,
            "duration_ms": self.duration_s * 1000.0,
            "attributes": dict(self.attributes),
        }


class Trace:
    """A bounded, thread-safe collection of spans for one request."""

    def __init__(
        self, trace_id: str | None = None, max_spans: int = MAX_SPANS_PER_TRACE
    ) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex
        self.attributes: Dict[str, object] = {}
        self.dropped_spans = 0
        self.duration_s: Optional[float] = None
        self._started_wall = time.time()  # lovo: ignore[LOVO004] wall-clock display timestamp, not a duration
        self._t0 = time.perf_counter()
        self._max_spans = max_spans
        self._spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self._next_id = 1
        self._finished = False
        self._lock = create_lock("Trace._lock")

    @property
    def t0(self) -> float:
        """The trace's ``perf_counter`` epoch (span offsets are relative to it)."""
        return self._t0

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has sealed the trace."""
        with self._lock:
            return self._finished

    def spans(self) -> List[Span]:
        """A snapshot of the recorded spans, in creation order."""
        with self._lock:
            return list(self._spans)

    def open_span(
        self,
        name: str,
        parent_id: Optional[int] = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> Optional[int]:
        """Start a span; returns its id, or ``None`` if the budget is spent."""
        start = time.perf_counter() - self._t0
        with self._lock:
            if len(self._spans) >= self._max_spans:
                self.dropped_spans += 1
                return None
            span = Span(
                span_id=self._next_id,
                parent_id=parent_id,
                name=name,
                start_s=start,
                attributes=dict(attributes or {}),
            )
            self._next_id += 1
            self._spans.append(span)
            # lovo: ignore[LOVO005] grows in lockstep with _spans, which is capped by max_spans
            self._by_id[span.span_id] = span
            return span.span_id

    def close_span(self, span_id: Optional[int], **attributes: object) -> None:
        """Seal an open span with its duration (no-op for dropped spans)."""
        if span_id is None:
            return
        now = time.perf_counter() - self._t0
        with self._lock:
            span = self._by_id.get(span_id)
            if span is None:
                return
            span.duration_s = max(now - span.start_s, 0.0)
            if attributes:
                span.attributes.update(attributes)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: Optional[int] = None,
        **attributes: object,
    ) -> None:
        """Record an already-measured interval (``perf_counter`` values).

        Used where the interval was timed outside the trace — e.g. the
        queue-wait span, whose start is the submission timestamp stamped by
        a different thread.
        """
        with self._lock:
            if len(self._spans) >= self._max_spans:
                self.dropped_spans += 1
                return
            span = Span(
                span_id=self._next_id,
                parent_id=parent_id,
                name=name,
                start_s=start - self._t0,
                duration_s=max(end - start, 0.0),
                attributes=dict(attributes),
            )
            self._next_id += 1
            self._spans.append(span)
            self._by_id[span.span_id] = span

    def finish(self, **attributes: object) -> bool:
        """Seal the trace; returns ``True`` only for the first call.

        Idempotent so that racing finishers (a worker resolving the future
        versus an error path in the submitter) cannot double-report.
        """
        now = time.perf_counter()
        with self._lock:
            if self._finished:
                return False
            self._finished = True
            self.duration_s = now - self._t0
            if attributes:
                self.attributes.update(attributes)
            return True

    def span_names(self) -> List[str]:
        """The names of all recorded spans, in creation order."""
        with self._lock:
            return [span.name for span in self._spans]

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable form served by ``GET /v1/traces/<id>``."""
        with self._lock:
            return {
                "trace_id": self.trace_id,
                "started_at": self._started_wall,
                "duration_ms": (
                    self.duration_s * 1000.0 if self.duration_s is not None else None
                ),
                "finished": self._finished,
                "dropped_spans": self.dropped_spans,
                "attributes": dict(self.attributes),
                "spans": [span.as_dict() for span in self._spans],
            }


# -- contextvar propagation --------------------------------------------------

#: The active trace targets of the current context: ``(trace, parent_id)``
#: pairs.  A micro-batched engine pass is shared work, so one measured span is
#: recorded into *every* member query's trace (fan-out); ``None`` means no
#: tracing — the fast path every instrumentation point checks first.
_ACTIVE: ContextVar[Optional[Tuple[Tuple[Trace, Optional[int]], ...]]] = ContextVar(
    "lovo_active_traces", default=None
)


def tracing_active() -> bool:
    """Whether the current context carries at least one active trace."""
    return _ACTIVE.get() is not None


def active_traces() -> Tuple[Trace, ...]:
    """The traces targeted by the current context (empty when none)."""
    targets = _ACTIVE.get()
    return tuple(trace for trace, _ in targets) if targets else ()


@contextmanager
def activate(traces: Sequence[Trace]) -> Iterator[None]:
    """Install ``traces`` as the span targets of the current context.

    Spans opened inside become root-level spans of every target trace; an
    empty sequence leaves the context untouched (tracing stays inactive).
    """
    live = [trace for trace in traces if trace is not None]
    if not live:
        yield
        return
    token = _ACTIVE.set(tuple((trace, None) for trace in live))
    try:
        yield
    finally:
        _ACTIVE.reset(token)


class SpanHandle:
    """Mutable annotation surface yielded by :func:`span`.

    ``handle.set(key, value)`` attaches an attribute that is written into
    every target span when the block exits (e.g. a failover outcome known
    only at the end of the measured interval).
    """

    __slots__ = ("_extra",)

    def __init__(self) -> None:
        self._extra: Dict[str, object] = {}

    def set(self, key: str, value: object) -> None:
        self._extra[key] = value


class _NoopSpanHandle(SpanHandle):
    """Shared handle for the tracing-inactive fast path; drops annotations."""

    def set(self, key: str, value: object) -> None:  # noqa: D102 - no-op
        pass


_NOOP_HANDLE = _NoopSpanHandle()


@contextmanager
def span(name: str, **attributes: object) -> Iterator[SpanHandle]:
    """Open a span named ``name`` in every active trace for the block.

    Nested :func:`span` blocks become child spans.  With no active trace the
    body runs against a shared no-op handle — one contextvar read of
    overhead — which is what makes disabling observability near-free.
    """
    targets = _ACTIVE.get()
    if not targets:
        yield _NOOP_HANDLE
        return
    opened = [
        (trace, trace.open_span(name, parent_id, attributes))
        for trace, parent_id in targets
    ]
    # Children opened inside this block parent onto this span; a trace whose
    # span budget dropped the span keeps its previous parent.
    token = _ACTIVE.set(
        tuple(
            (trace, span_id if span_id is not None else parent_id)
            for (trace, parent_id), (_, span_id) in zip(targets, opened)
        )
    )
    handle = SpanHandle()
    try:
        yield handle
    finally:
        _ACTIVE.reset(token)
        for trace, span_id in opened:
            trace.close_span(span_id, **handle._extra)


def record_span(name: str, start: float, end: float, **attributes: object) -> None:
    """Record a pre-measured interval into every active trace.

    ``start``/``end`` are ``time.perf_counter`` values; the interval becomes
    a child of the current context's span in each target trace.
    """
    targets = _ACTIVE.get()
    if not targets:
        return
    for trace, parent_id in targets:
        trace.record(name, start, end, parent_id=parent_id, **attributes)


# -- trace retention ---------------------------------------------------------


class TraceStore:
    """Bounded in-memory retention of finished traces, plus a slow-query log.

    The main store is a FIFO ring of the most recent traces; traces whose
    end-to-end duration crosses the slow threshold are *also* pinned into a
    separate bounded log, so slow queries stay inspectable after the ring
    has churned past them.
    """

    def __init__(
        self,
        capacity: int = TRACE_STORE_SIZE,
        slow_threshold_ms: float = 250.0,
        slow_capacity: int = SLOW_LOG_SIZE,
    ) -> None:
        if capacity <= 0 or slow_capacity <= 0:
            raise ValueError("TraceStore capacities must be positive")
        self._capacity = capacity
        self._slow_threshold_ms = slow_threshold_ms
        self._slow_capacity = slow_capacity
        self._traces: "OrderedDict[str, Trace]" = OrderedDict()
        self._slow: "OrderedDict[str, Trace]" = OrderedDict()
        self._lock = create_lock("TraceStore._lock")

    @property
    def slow_threshold_ms(self) -> float:
        """Latency above which a trace is retained in the slow log."""
        return self._slow_threshold_ms

    def put(self, trace: Trace) -> None:
        """Retain a finished trace (evicting the oldest beyond capacity)."""
        duration_ms = (trace.duration_s or 0.0) * 1000.0
        with self._lock:
            self._traces[trace.trace_id] = trace
            self._traces.move_to_end(trace.trace_id)
            while len(self._traces) > self._capacity:
                self._traces.popitem(last=False)
            if duration_ms >= self._slow_threshold_ms:
                self._slow[trace.trace_id] = trace
                self._slow.move_to_end(trace.trace_id)
                while len(self._slow) > self._slow_capacity:
                    self._slow.popitem(last=False)

    def get(self, trace_id: str) -> Optional[Trace]:
        """Look a trace up by id (main store first, then the slow log)."""
        with self._lock:
            return self._traces.get(trace_id) or self._slow.get(trace_id)

    def annotate(self, trace_id: str, **attributes: object) -> bool:
        """Attach attributes to a stored trace (e.g. the request id)."""
        trace = self.get(trace_id)
        if trace is None:
            return False
        trace.attributes.update(attributes)
        return True

    def slow(self) -> List[Trace]:
        """The retained slow traces, most recent first."""
        with self._lock:
            return list(reversed(self._slow.values()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def stats(self) -> Dict[str, object]:
        """Occupancy summary for ``/v1/stats``."""
        with self._lock:
            return {
                "stored": len(self._traces),
                "capacity": self._capacity,
                "slow": len(self._slow),
                "slow_capacity": self._slow_capacity,
                "slow_threshold_ms": self._slow_threshold_ms,
            }


class Tracer:
    """Config-gated trace factory plus the store finished traces land in."""

    def __init__(self, config: ObsConfig | None = None) -> None:
        self._config = config or ObsConfig()
        self._store = TraceStore(slow_threshold_ms=self._config.slow_query_ms)

    @property
    def enabled(self) -> bool:
        """Whether this tracer creates traces at all."""
        return self._config.enabled

    @property
    def config(self) -> ObsConfig:
        """The observability configuration in effect."""
        return self._config

    @property
    def store(self) -> TraceStore:
        """Where finished traces are retained."""
        return self._store

    def start(self, **attributes: object) -> Optional[Trace]:
        """A new trace, or ``None`` when tracing is disabled.

        ``None`` short-circuits every downstream instrumentation point, so
        a disabled tracer never pays for span bookkeeping.
        """
        if not self._config.enabled:
            return None
        trace = Trace()
        if attributes:
            trace.attributes.update(attributes)
        return trace

    def finish(self, trace: Optional[Trace], **attributes: object) -> Optional[str]:
        """Seal a trace and retain it; returns its id (idempotent)."""
        if trace is None:
            return None
        if trace.finish(**attributes):
            self._store.put(trace)
        return trace.trace_id
