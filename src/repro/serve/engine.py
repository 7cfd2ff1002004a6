"""The concurrent query-serving engine: worker pool over the batched LOVO core.

:class:`ServingEngine` turns one built :class:`~repro.core.system.LOVO`
system into a service that many callers can hit at once:

* **admission control** — submissions land on the micro-batcher's bounded
  queue; a full queue rejects with
  :class:`~repro.errors.ServiceOverloadedError` instead of growing without
  bound;
* **micro-batching** — worker threads pull *coalesced* batches and answer
  each with one ``query_batch`` engine pass, so served throughput gets the
  batched engine's amortisation under concurrent single-query load;
* **result caching** — a TTL+LRU cache keyed on normalized query text and
  retrieval depths answers repeated queries without touching the engine;
* **graceful lifecycle** — :meth:`stop` drains everything already admitted
  before the workers exit, so no accepted request is dropped.

Per-query results are bit-identical to calling ``LOVO.query`` serially: the
batched engine guarantees parity per query, and batch composition cannot
change any individual query's answer.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.config import REQUEST_TIMEOUT_SECONDS, ObsConfig, ServeConfig
from repro.core.query import QueryOptions, QueryRequest, as_query_request
from repro.core.results import QueryResponse
from repro.core.system import LOVO
from repro.errors import (
    ServiceOverloadedError,
    ServingError,
    SystemNotReadyError,
)
from repro.obs.explain import ExplainStore, build_explain_report
from repro.obs.exposition import build_info_family, service_families
from repro.obs.quality import ShadowSampler
from repro.obs.registry import REGISTRY, MetricFamily, MetricsRegistry
from repro.obs.slo import SLOTracker
from repro.obs.timeseries import MetricsHistory
from repro.obs.trace import Trace, Tracer, activate
from repro.serve.batcher import MicroBatcher, PendingQuery
from repro.serve.cache import ResultCache
from repro.utils.locking import create_lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stream.ingestor import StreamingIngestor


class ServingEngine:
    """Concurrent query service around one built LOVO system."""

    def __init__(self, system: LOVO, config: ServeConfig | None = None) -> None:
        self._system = system
        self._config = config or system.config.serve
        self._batcher = MicroBatcher(
            max_batch_size=self._config.max_batch_size,
            max_wait_ms=self._config.max_wait_ms,
            queue_size=self._config.queue_size,
        )
        self._cache: Optional[ResultCache] = None
        if self._config.cache_size > 0:
            self._cache = ResultCache(
                maxsize=self._config.cache_size,
                ttl_seconds=self._config.cache_ttl_seconds,
            )
        # Duck-typed stand-in systems without an obs configuration get the
        # defaults; the system's tracer is shared when it has one (one trace
        # store per system).
        obs_config = getattr(getattr(system, "config", None), "obs", None)
        if not isinstance(obs_config, ObsConfig):
            obs_config = ObsConfig()
        self._obs_config = obs_config
        tracer = getattr(system, "tracer", None)
        self._tracer = tracer if isinstance(tracer, Tracer) else Tracer(obs_config)
        # The system's own registry (its phase totals) joins every scrape; a
        # stand-in without one contributes nothing.
        system_registry = getattr(system, "registry", None)
        self._system_registry = (
            system_registry
            if isinstance(system_registry, MetricsRegistry)
            else MetricsRegistry()
        )
        self._registry = registry = MetricsRegistry()
        registry.register_collector(self._collect_service_families)
        # Each request is counted once, here; stats() and the /v1/metrics
        # scrape both read these instruments.
        self._requests = registry.counter(
            "lovo_requests_total", "Query submissions admitted or rejected."
        )
        self._outcomes = {
            "completed": registry.counter(
                "lovo_requests_completed_total", "Queries answered successfully."
            ),
            "rejected": registry.counter(
                "lovo_requests_rejected_total",
                "Submissions rejected by admission control (backpressure).",
            ),
            "error": registry.counter(
                "lovo_request_errors_total", "Queries that failed with an engine error."
            ),
            "cancelled": registry.counter(
                "lovo_requests_cancelled_total",
                "Admitted queries cancelled before a worker took them.",
            ),
        }
        self._latency = registry.summary(
            "lovo_request_latency_seconds", "End-to-end request latency (windowed quantiles)."
        )
        self._batch_sizes = registry.histogram(
            "lovo_microbatch_size",
            "Queries coalesced per executed micro-batch.",
            buckets=range(1, self._config.max_batch_size + 1),
        )
        self._started_at: Optional[float] = None
        # The answer-quality & cost layer: EXPLAIN retention, SLO burn rates,
        # metrics history, and (when configured) shadow-recall sampling.
        self._explain_store = ExplainStore()
        self._slo = SLOTracker(obs_config, registry=registry)
        self._history = MetricsHistory(
            self.metric_families,
            interval_seconds=obs_config.history_interval_seconds,
        )
        # Burn-rate gauges refresh on the history's cadence.
        self._history.add_listener(self._slo.on_tick)
        self._sampler: Optional[ShadowSampler] = None
        if obs_config.shadow_sample_rate > 0.0:
            self._sampler = ShadowSampler(
                system,
                obs_config,
                registry=registry,
                on_sample=self._slo.record_recall,
            )
        self._workers: List[threading.Thread] = []
        self._lifecycle_lock = create_lock("ServingEngine._lifecycle_lock")
        self._running = False
        self._stopped = False
        self._streaming: "Optional[StreamingIngestor]" = None

    @classmethod
    def from_snapshot(
        cls, path: str | Path, config: ServeConfig | None = None
    ) -> "ServingEngine":
        """Warm-start an engine from a persisted snapshot (``LOVO.save``).

        The serving configuration defaults to the snapshot's stored ``serve``
        block; pass ``config`` to override it for this deployment.
        """
        return cls(LOVO.load(path), config)

    @property
    def system(self) -> LOVO:
        """The underlying LOVO system (treat as read-only while serving)."""
        return self._system

    @property
    def config(self) -> ServeConfig:
        """The serving configuration in effect."""
        return self._config

    @property
    def tracer(self) -> Tracer:
        """The request tracer (and its bounded trace store)."""
        return self._tracer

    @property
    def registry(self) -> MetricsRegistry:
        """This engine's metrics registry (request instruments and collectors)."""
        return self._registry

    @property
    def slo(self) -> SLOTracker:
        """The SLO tracker (latency/availability/recall burn rates)."""
        return self._slo

    @property
    def history(self) -> MetricsHistory:
        """The bounded metrics-history ring behind ``/v1/metrics/history``."""
        return self._history

    @property
    def explain_store(self) -> ExplainStore:
        """Retained EXPLAIN reports behind ``/v1/explain/<trace_id>``."""
        return self._explain_store

    @property
    def quality(self) -> Optional[ShadowSampler]:
        """The shadow-recall sampler (``None`` unless a rate is configured)."""
        return self._sampler

    def _data_epoch(self) -> int:
        """The system's current data version (0 for stand-ins without one)."""
        return int(getattr(self._system, "data_version", 0))

    def _collect_service_families(self) -> List[MetricFamily]:
        return service_families(self.stats())

    def metric_families(self) -> List[MetricFamily]:
        """Everything ``GET /v1/metrics`` exposes in one snapshot.

        Merges this engine's registry (request counters, latency, micro-batch
        sizes, cache, backend health, recall/SLO instruments), the system's
        registry (its phase totals), and the module-level registry the shard
        router records its per-replica call metrics into, plus the constant
        ``lovo_build_info`` gauge.
        """
        return (
            self._registry.collect()
            + self._system_registry.collect()
            + REGISTRY.collect()
            + [build_info_family()]
        )

    @property
    def streaming(self) -> "Optional[StreamingIngestor]":
        """The attached streaming ingestor, if any."""
        return self._streaming

    def attach_streaming(
        self, ingestor: "Optional[StreamingIngestor]" = None
    ) -> "StreamingIngestor":
        """Attach (and start) a streaming ingestor over this engine's system.

        With no argument a default :class:`~repro.stream.ingestor.
        StreamingIngestor` is built from the system's ``stream`` config.  The
        ingestor's lifecycle is then tied to the engine: :meth:`stop` drains
        and stops it, and the HTTP frontend's subscription endpoints route to
        its :class:`~repro.stream.subscriptions.SubscriptionManager`.
        """
        # Guarded by the lifecycle lock: two concurrent attachers must agree
        # on one ingestor, not each start (and leak) their own.
        with self._lifecycle_lock:
            if self._streaming is not None:
                return self._streaming
            if ingestor is None:
                from repro.stream.ingestor import StreamingIngestor

                ingestor = StreamingIngestor(self._system)
            self._streaming = ingestor.start()
            return self._streaming

    @property
    def running(self) -> bool:
        """Whether the worker pool is accepting queries."""
        return self._running

    @property
    def queue_depth(self) -> int:
        """Number of admitted queries waiting for a micro-batch."""
        return self._batcher.depth

    def start(self) -> "ServingEngine":
        """Spin up the worker pool; idempotent until :meth:`stop`."""
        with self._lifecycle_lock:
            if self._stopped:
                raise ServingError("A stopped ServingEngine cannot be restarted")
            if self._running:
                return self
            for index in range(self._config.num_workers):
                worker = threading.Thread(
                    target=self._worker_loop,
                    name=f"lovo-serve-worker-{index}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)
            if self._obs_config.enabled:
                self._history.start()
            if self._sampler is not None:
                self._sampler.start()
            self._started_at = time.monotonic()
            self._running = True
        return self

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Shut the worker pool down; idempotent.

        With ``drain`` (the default), every already-admitted request is still
        answered before the workers exit — a graceful shutdown.  With
        ``drain=False``, queued requests that no worker has picked up are
        cancelled (their futures report cancellation); batches already
        executing always finish either way.
        """
        if self._streaming is not None:
            self._streaming.stop(drain=drain, timeout=timeout)
        # The shadow worker drains its queue on stop; the history ticker just
        # exits.  Both are idempotent and safe to stop before ever starting.
        if self._sampler is not None:
            self._sampler.stop(timeout=timeout)
        self._history.stop(timeout=timeout)
        with self._lifecycle_lock:
            if not self._running:
                self._stopped = True
                return
            self._batcher.close()
            if not drain:
                for pending in self._batcher.drain():
                    self._cancel(pending)
            workers = list(self._workers)
            self._workers.clear()
            self._running = False
            self._stopped = True
        # Joining under the lifecycle lock would hold it across worker
        # drain time (seconds, worst case), stalling every start()/stop()
        # caller; state is already flipped above, so the joins and the final
        # sweep run lock-free.
        for worker in workers:
            worker.join(timeout=timeout)
        # A submit() racing this shutdown may have enqueued after a worker
        # observed an (at that instant) empty queue and exited; close()
        # guarantees nothing lands after it returned, so one final sweep
        # here leaves no admitted request stranded with an unresolved
        # future.
        leftover = self._batcher.drain()
        if drain:
            # In batches no larger than the workers' own.
            size = self._config.max_batch_size
            for start in range(0, len(leftover), size):
                self._process_batch(leftover[start:start + size])
        else:
            for pending in leftover:
                self._cancel(pending)

    def __enter__(self) -> "ServingEngine":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def submit(
        self,
        request: "str | QueryRequest",
        *,
        options: QueryOptions | None = None,
    ) -> "Future[QueryResponse]":
        """Submit one query; returns a future resolving to its response.

        Accepts a query string or a canonical :class:`~repro.core.query.
        QueryRequest`.  Raises :class:`~repro.errors.ServiceOverloadedError`
        when the admission queue is full and :class:`~repro.errors.QueryError`
        for requests the engine could never answer (validated here so one bad
        query cannot fail the micro-batch it would have been coalesced into).
        """
        if not self._running:
            raise ServingError("ServingEngine is not running; call start() first")
        coerced = as_query_request(request, options, caller="ServingEngine.submit")
        text = coerced.text
        started = time.perf_counter()
        trace = self._tracer.start(query=text)
        # EXPLAIN requests bypass the cache entirely (get *and* put, below):
        # a cached response would carry the producing request's report, not
        # an account of a pass that actually ran for this request.
        if self._cache is not None and not coerced.options.explain:
            # Hit/miss accounting lives in the cache itself (the single
            # source of truth surfaced by stats()).  The lookup is pinned to
            # the system's current data epoch, so entries cached before an
            # ingest (offline or streamed) can never be served after it.
            cached = self._cache.get(
                text, coerced.options, self._system.config.query,
                epoch=self._data_epoch(),
            )
            if cached is not None:
                now = time.perf_counter()
                if trace is not None:
                    trace.record("cache_lookup", started, now, hit=True)
                self._requests.inc()
                trace_id = self._settle(trace, now - started, cache_hit=True)
                if trace_id is not None:
                    # Overwrite the (stale) trace id the producing request
                    # stamped into the cached entry.
                    cached.metadata["trace_id"] = trace_id
                future: "Future[QueryResponse]" = Future()
                future.set_result(cached)
                return future

        pending = PendingQuery(
            text=text,
            enqueued_at=started,
            options=coerced.options,
            trace=trace,
        )
        try:
            self._batcher.submit(pending)
        except ServiceOverloadedError:
            self._requests.inc()
            self._settle(trace, time.perf_counter() - started, "rejected")
            raise
        except ServingError:
            # A closed batcher (shutdown race) neither admitted nor rejected
            # the submission, so it is not counted; only its trace says why.
            self._tracer.finish(trace, outcome="closed")
            raise
        self._requests.inc()
        return pending.future

    def query(
        self,
        request: "str | QueryRequest",
        timeout: float | None = None,
        *,
        options: QueryOptions | None = None,
    ) -> QueryResponse:
        """Submit one query and block for its response (HTTP-path helper)."""
        effective_timeout = REQUEST_TIMEOUT_SECONDS if timeout is None else timeout
        return self.submit(request, options=options).result(timeout=effective_timeout)

    def query_many(
        self,
        requests: Sequence["str | QueryRequest"],
        timeout: float | None = None,
        *,
        options: QueryOptions | None = None,
    ) -> List[QueryResponse]:
        """Submit several queries at once and block for all responses.

        Unlike ``LOVO.query_batch`` this goes through admission control and
        the shared micro-batcher, so the queries may be coalesced with other
        callers' — or rejected under overload like any other submission.
        """
        effective_timeout = REQUEST_TIMEOUT_SECONDS if timeout is None else timeout
        # Validate everything before admitting anything, and on a mid-loop
        # rejection cancel what was already admitted — otherwise a failed
        # batch would still consume worker capacity (exactly when overloaded).
        coerced = [
            as_query_request(request, options, caller="ServingEngine.query_many")
            for request in requests
        ]
        futures: List["Future[QueryResponse]"] = []
        try:
            for request in coerced:
                futures.append(self.submit(request))
        except ServingError:
            for future in futures:
                future.cancel()
            raise
        # One deadline for the whole batch: the timeout bounds the caller's
        # total wait, not each future's individually.
        deadline = time.perf_counter() + effective_timeout
        return [
            future.result(timeout=max(deadline - time.perf_counter(), 0.0))
            for future in futures
        ]

    def stats(self) -> Dict[str, object]:
        """Request metrics plus queue, cache, and pool state for ``/stats``."""
        uptime = 0.0 if self._started_at is None else time.monotonic() - self._started_at
        completed = int(self._outcomes["completed"].value())
        latency = self._latency.value()
        quantiles = latency["quantiles"]
        batches = self._batch_sizes.value()
        executed = int(batches["count"])
        snapshot: Dict[str, object] = {
            "uptime_seconds": uptime,
            "requests_total": int(self._requests.value()),
            "completed_total": completed,
            "rejected_total": int(self._outcomes["rejected"].value()),
            "errors_total": int(self._outcomes["error"].value()),
            "cancelled_total": int(self._outcomes["cancelled"].value()),
            "qps": completed / uptime if uptime > 0 else 0.0,
            # Un-windowed, like the summary's `_sum`; the quantiles are windowed.
            "latency_seconds_sum": latency["sum"],
            "latency_ms": {
                "p50": quantiles[0.5] * 1000.0,
                "p95": quantiles[0.95] * 1000.0,
                "p99": quantiles[0.99] * 1000.0,
                "mean": latency["mean"] * 1000.0,
                "window": latency["window"],
            },
            "batches": {
                "executed": executed,
                "mean_size": batches["sum"] / executed if executed else 0.0,
                # Integer buckets 1..max_batch_size: a bucket's own count is
                # the number of batches of exactly that size.
                "histogram": {
                    str(int(size)): count
                    for size, count in zip(self._batch_sizes.buckets, batches["counts"])
                    if count
                },
            },
            "queue_depth": self._batcher.depth,
            "running": self._running,
            "num_workers": self._config.num_workers,
            "max_batch_size": self._config.max_batch_size,
            "max_wait_ms": self._config.max_wait_ms,
            "queue_capacity": self._config.queue_size,
        }
        backend = self._backend_status()
        snapshot["backend"] = backend
        # Overall health: the backend's replica-topology classification
        # ("ok" / "degraded" / "unavailable"), or "not_ready" before data.
        snapshot["health"] = (
            str(backend.get("health", "ok")) if backend.get("ready") else "not_ready"
        )
        if self._tracer.enabled:
            snapshot["traces"] = self._tracer.store.stats()
        if self._cache is not None:
            cache_stats = self._cache.stats()
            lookups = cache_stats["hits"] + cache_stats["misses"]
            snapshot["cache"] = {
                "enabled": True,
                **cache_stats,
                "hit_rate": (cache_stats["hits"] / lookups) if lookups else 0.0,
            }
        else:
            snapshot["cache"] = {"enabled": False}
        snapshot["data_epoch"] = self._data_epoch()
        if self._streaming is not None:
            snapshot["streaming"] = self._streaming.stats()
        snapshot["slo"] = self._slo.summary()
        snapshot["history"] = self._history.stats()
        snapshot["explain"] = self._explain_store.stats()
        if self._sampler is not None:
            snapshot["quality"] = self._sampler.stats()
        return snapshot

    def _settle(
        self,
        trace: Optional[Trace],
        latency: float,
        outcome: str = "completed",
        **attributes: object,
    ) -> Optional[str]:
        """Record one request's outcome once: counter, latency, SLO and trace.

        Completions (cache hits included) feed the latency summary; failures
        stamp their ``outcome`` into the trace.  Returns the trace id.
        """
        ok = outcome == "completed"
        self._outcomes[outcome].inc()
        if ok:
            self._latency.observe(latency)
        else:
            attributes["outcome"] = outcome
        trace_id = self._tracer.finish(trace, **attributes)
        self._slo.record_request(latency, ok, trace_id=trace_id, outcome=outcome)
        return trace_id

    def _cancel(self, pending: PendingQuery) -> None:
        """Settle an admitted request that no worker will run, as cancelled.

        Called once per request, when it leaves the batcher unrun: from
        :meth:`stop` without drain, or from a worker that finds the caller
        already cancelled it (``query_many`` after a rejection).  A caller's
        cancellation is not a service failure, so the SLOs do not see it.
        """
        pending.future.cancel()
        self._outcomes["cancelled"].inc()
        self._tracer.finish(pending.trace, outcome="cancelled")

    def _backend_status(self) -> Dict[str, object]:
        """Backend topology (shard/replica health) for ``stats``/``healthz``."""
        # AttributeError covers duck-typed stand-in systems without storage.
        try:
            storage = self._system.storage
            status = storage.backend_status()
        except (SystemNotReadyError, AttributeError):
            return {"ready": False}
        return {"ready": True, **status}

    def _worker_loop(self) -> None:
        while True:
            batch = self._batcher.next_batch()
            if batch is None:
                return
            self._process_batch(batch)

    def _process_batch(self, batch: List[PendingQuery]) -> None:
        live = []
        for pending in batch:
            if pending.future.set_running_or_notify_cancel():
                live.append(pending)
            else:
                self._cancel(pending)
        if not live:
            return
        # The queue-wait span: admission (stamped by the submitting thread)
        # to batch pickup, recorded here because only the worker knows when
        # the wait ended.
        picked_up = time.perf_counter()
        for pending in live:
            if pending.trace is not None:
                pending.trace.record(
                    "queue_wait", pending.enqueued_at, picked_up, batch_size=len(live)
                )
        # ``query_batch`` answers the whole batch under one QueryOptions, so
        # group by it; almost every real batch is a single group.
        groups: Dict[QueryOptions, List[PendingQuery]] = {}
        for pending in live:
            groups.setdefault(pending.options, []).append(pending)
        for group_options, group in groups.items():
            self._process_group(group_options, group)

    def _process_group(self, options: QueryOptions, group: List[PendingQuery]) -> None:
        # One histogram entry per actual engine pass (a coalesced batch with
        # mixed options executes as several passes).
        self._batch_sizes.observe(len(group))
        # The engine pass is shared work: activating every member's trace
        # fans each span the pass records (encode, fast_search, per-shard
        # search, merge, rerank) out into all of them.
        traces = [pending.trace for pending in group if pending.trace is not None]
        # Captured *before* the engine pass: if an ingest lands mid-query the
        # response may or may not include the new data, and filing it under
        # the pre-query epoch means it is never served once the version moves
        # on (filing under the post-query epoch could serve a stale answer).
        epoch = self._data_epoch()
        try:
            with activate(traces):
                responses = self._system.query_batch(
                    [pending.text for pending in group], options=options
                ).responses
        except BaseException as error:  # noqa: BLE001 - forwarded to callers
            now = time.perf_counter()
            for pending in group:
                self._settle(
                    pending.trace, now - pending.enqueued_at, "error",
                    error=type(error).__name__,
                )
                pending.future.set_exception(error)
            if not isinstance(error, Exception):
                # KeyboardInterrupt/SystemExit must still unwind the worker
                # after the callers have been told why their futures failed.
                raise
            return
        now = time.perf_counter()
        query_config = self._system.config.query
        explain_backend = self._backend_status() if options.explain else None
        for pending, response in zip(group, responses):
            trace_id = pending.trace.trace_id if pending.trace is not None else None
            if trace_id is not None:
                response.metadata["trace_id"] = trace_id
            if self._cache is not None and not options.explain:
                self._cache.put(
                    pending.text, options, query_config, response, epoch=epoch
                )
            self._settle(pending.trace, now - pending.enqueued_at)
            if self._sampler is not None:
                self._sampler.maybe_sample(
                    pending.text,
                    response.metadata.get("fast_search"),
                    epoch=epoch,
                    trace_id=trace_id,
                )
            if options.explain:
                # Built after tracer.finish so the trace's duration is set,
                # and before the future resolves so the caller sees it.
                report = build_explain_report(
                    response,
                    pending.trace,
                    options=options,
                    query_config=query_config,
                    index_config=self._system.config.index,
                    backend=explain_backend or {},
                    epoch=epoch,
                )
                response.metadata["explain"] = report
                if trace_id is not None:
                    self._explain_store.put(trace_id, report)
            pending.future.set_result(response)
