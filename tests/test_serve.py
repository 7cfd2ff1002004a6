"""Tests for the concurrent query-serving subsystem (:mod:`repro.serve`).

Covers the pieces individually (TTL+LRU cache, micro-batcher) and the
assembled engine: bit-exact parity between concurrent served queries and
serial ``LOVO.query`` calls, backpressure, request accounting, cache
short-circuiting, graceful shutdown draining, and an HTTP round trip over an
ephemeral port.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from typing import List, Sequence

import pytest

from repro import LOVO, LOVOConfig, ServeConfig
from repro.config import QueryConfig
from repro.core.query import QueryOptions, QueryRequest
from repro.core.results import BatchQueryResponse, QueryResponse
from repro.errors import (
    ConfigurationError,
    QueryError,
    ServiceOverloadedError,
    ServingError,
    SystemNotReadyError,
)
from repro.eval.workloads import queries_for_dataset
from repro.serve import MicroBatcher, PendingQuery, ResultCache, ServingEngine, TTLLRUCache
from repro.serve.cache import normalize_query_text
from repro.obs.exposition import parse_exposition
from repro.serve.http import make_server
from repro.obs.registry import MetricsRegistry, percentile, phase_seconds_counter
from repro.utils.cache import LRUCache

BELLEVUE_QUERIES = [spec.text for spec in queries_for_dataset("bellevue")]


def result_key(response: QueryResponse) -> List[tuple]:
    """Bit-exact identity of a response's ranked results."""
    return [(r.frame_id, r.patch_id, r.score, r.box.to_array().tobytes())
            for r in response.results]


class FakeClock:
    """A manually advanced monotonic clock for TTL tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class StubSystem:
    """Engine-compatible stand-in recording every ``query_batch`` call.

    ``block`` makes batch execution wait on an external release event so
    tests can deterministically fill the admission queue.
    """

    def __init__(self, delay: float = 0.0, block: bool = False) -> None:
        self.config = LOVOConfig()
        self.calls: List[List[str]] = []
        self.delay = delay
        self.started = threading.Event()
        self.release = threading.Event()
        self.block = block
        self._lock = threading.Lock()

    def query_batch(self, texts: Sequence[str], *, options=None):
        with self._lock:
            self.calls.append(list(texts))
        self.started.set()
        if self.block:
            assert self.release.wait(timeout=10.0)
        if self.delay:
            time.sleep(self.delay)
        responses = [
            QueryResponse(query=text, results=[], timings={"fast_search": 0.0})
            for text in texts
        ]
        return BatchQueryResponse(queries=list(texts), responses=responses)


class FlakyStub(StubSystem):
    """A stand-in whose engine pass fails for any batch holding ``boom``."""

    def query_batch(self, texts: Sequence[str], *, options=None):
        if any(text.startswith("boom") for text in texts):
            raise RuntimeError("index melted")
        return super().query_batch(texts, options=options)


def stub_engine(stub: StubSystem, **overrides) -> ServingEngine:
    defaults = dict(num_workers=1, max_batch_size=4, max_wait_ms=1.0,
                    queue_size=8, cache_size=0)
    defaults.update(overrides)
    return ServingEngine(stub, ServeConfig(**defaults))


class TestThreadSafetySatellites:
    def test_lru_cache_survives_concurrent_hammering(self):
        cache: LRUCache[int, int] = LRUCache(maxsize=32)
        errors: List[BaseException] = []

        def hammer(seed: int) -> None:
            try:
                for i in range(2000):
                    key = (seed * 31 + i) % 100
                    cache.put(key, key)
                    cache.get((key + 1) % 100)
                    if i % 100 == 0:
                        len(cache)
            except BaseException as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 32

    def test_lru_cache_pop(self):
        cache: LRUCache[str, int] = LRUCache(maxsize=4)
        cache.put("a", 1)
        assert cache.pop("a") == 1
        assert cache.pop("a", 42) == 42
        assert "a" not in cache

    def test_phase_timer_concurrent_adds_lose_nothing(self):
        # A system's phase totals live in its phase-seconds counter; many
        # threads adding into one phase must not lose an update.
        phase_seconds = phase_seconds_counter(MetricsRegistry())
        per_thread, num_threads = 500, 8

        def add_many() -> None:
            for _ in range(per_thread):
                phase_seconds.inc(1.0, phase="phase")

        threads = [threading.Thread(target=add_many) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Increments of exactly 1.0 are float-exact, so any lost update would
        # show as a smaller total.
        assert phase_seconds.value(phase="phase") == float(per_thread * num_threads)
        samples = phase_seconds.collect().samples
        assert [(sample.labels, sample.value) for sample in samples] == [
            ({"phase": "phase"}, float(per_thread * num_threads))
        ]


class TestTTLLRUCache:
    def test_expires_after_ttl(self):
        clock = FakeClock()
        cache: TTLLRUCache[str, str] = TTLLRUCache(maxsize=4, ttl_seconds=10.0, clock=clock)
        cache.put("k", "v")
        assert cache.get("k") == "v"
        clock.advance(9.9)
        assert cache.get("k") == "v"
        clock.advance(0.2)
        assert cache.get("k") is None
        assert cache.expirations == 1
        assert "k" not in cache

    def test_put_restarts_ttl(self):
        clock = FakeClock()
        cache: TTLLRUCache[str, str] = TTLLRUCache(maxsize=4, ttl_seconds=10.0, clock=clock)
        cache.put("k", "v1")
        clock.advance(8.0)
        cache.put("k", "v2")
        clock.advance(8.0)
        assert cache.get("k") == "v2"

    def test_lru_eviction_still_applies(self):
        clock = FakeClock()
        cache: TTLLRUCache[int, int] = TTLLRUCache(maxsize=2, ttl_seconds=100.0, clock=clock)
        cache.put(1, 1)
        cache.put(2, 2)
        cache.put(3, 3)
        assert cache.get(1) is None
        assert cache.get(2) == 2 and cache.get(3) == 3

    def test_hit_miss_accounting_counts_expiry_as_miss(self):
        clock = FakeClock()
        cache: TTLLRUCache[str, str] = TTLLRUCache(maxsize=4, ttl_seconds=1.0, clock=clock)
        cache.put("k", "v")
        cache.get("k")
        clock.advance(2.0)
        cache.get("k")
        assert cache.hits == 1
        assert cache.misses == 1

    def test_rejects_bad_ttl(self):
        with pytest.raises(ValueError):
            TTLLRUCache(maxsize=4, ttl_seconds=0.0)


def depths(fast_search_k: int, top_n: int) -> tuple:
    """``(options, config)`` whose resolved depths are ``(fast_search_k, top_n)``."""
    return QueryOptions(fast_search_k=fast_search_k, top_n=top_n), QueryConfig()


class TestResultCache:
    def test_normalization_shares_entries(self):
        clock = FakeClock()
        cache = ResultCache(maxsize=8, ttl_seconds=10.0, clock=clock)
        response = QueryResponse(query="a red car", timings={"fast_search": 1.0})
        cache.put("a red car", *depths(128, 40), response)
        hit = cache.get("  A  RED   Car ", *depths(128, 40))
        assert hit is not None
        assert hit.query == "  A  RED   Car "
        assert hit.metadata["cache_hit"] is True
        assert normalize_query_text("  A  RED   Car ") == "a red car"

    def test_depths_are_part_of_the_key(self):
        cache = ResultCache(maxsize=8, ttl_seconds=10.0)
        cache.put("q", *depths(128, 40), QueryResponse(query="q"))
        assert cache.get("q", *depths(128, 20)) is None
        assert cache.get("q", *depths(64, 40)) is None
        assert cache.get("q", *depths(128, 40)) is not None

    def test_hit_is_isolated_copy(self):
        cache = ResultCache(maxsize=8, ttl_seconds=10.0)
        cache.put("q", *depths(128, 40), QueryResponse(query="q", timings={"x": 1.0}))
        first = cache.get("q", *depths(128, 40))
        first.timings["x"] = 999.0
        first.metadata["poison"] = True
        second = cache.get("q", *depths(128, 40))
        assert second.timings["x"] == 1.0
        assert "poison" not in second.metadata

    def test_stored_entry_is_isolated_from_the_producer(self):
        # The miss path hands its response object to the caller after putting
        # it in the cache; mutating it must not corrupt later hits.
        cache = ResultCache(maxsize=8, ttl_seconds=10.0)
        produced = QueryResponse(query="q", timings={"x": 1.0})
        cache.put("q", *depths(128, 40), produced)
        produced.timings.clear()
        produced.results.append("garbage")
        hit = cache.get("q", *depths(128, 40))
        assert hit.timings == {"x": 1.0}
        assert hit.results == []


class TestMicroBatcher:
    def test_coalesces_up_to_max_batch_size(self):
        batcher = MicroBatcher(max_batch_size=3, max_wait_ms=50.0, queue_size=8)
        for i in range(5):
            batcher.submit(PendingQuery(text=f"q{i}"))
        first = batcher.next_batch()
        second = batcher.next_batch()
        assert [p.text for p in first] == ["q0", "q1", "q2"]
        assert [p.text for p in second] == ["q3", "q4"]

    def test_backpressure_raises_when_full(self):
        batcher = MicroBatcher(max_batch_size=4, max_wait_ms=1.0, queue_size=2)
        batcher.submit(PendingQuery(text="a"))
        batcher.submit(PendingQuery(text="b"))
        with pytest.raises(ServiceOverloadedError):
            batcher.submit(PendingQuery(text="c"))
        assert batcher.depth == 2

    def test_close_drains_then_signals_exhaustion(self):
        batcher = MicroBatcher(max_batch_size=8, max_wait_ms=1.0, queue_size=8)
        batcher.submit(PendingQuery(text="a"))
        batcher.close()
        with pytest.raises(ServingError):
            batcher.submit(PendingQuery(text="late"))
        batch = batcher.next_batch()
        assert [p.text for p in batch] == ["a"]
        assert batcher.next_batch() is None


class TestServiceMetrics:
    def test_percentile_nearest_rank(self):
        values = sorted(float(v) for v in range(1, 101))
        assert percentile(values, 0.50) == pytest.approx(51.0, abs=1.0)
        assert percentile(values, 0.99) == pytest.approx(99.0, abs=1.0)
        assert percentile([], 0.5) == 0.0

    @staticmethod
    def _drive_fixed_sequence(engine: ServingEngine, stub: StubSystem) -> None:
        """4 completions in batches of 1 and 3, a cache hit, a rejection, an
        engine error in a batch of 1, then a closed-batcher refusal."""
        held = engine.submit("held")
        assert stub.started.wait(timeout=5.0)
        queued = [engine.submit(f"q{i}") for i in range(3)]
        with pytest.raises(ServiceOverloadedError):
            engine.submit("rejected")
        stub.release.set()
        for future in [held, *queued]:
            future.result(timeout=5.0)
        assert engine.query("held", timeout=5.0).metadata["cache_hit"] is True
        with pytest.raises(RuntimeError, match="index melted"):
            engine.query("boom", timeout=5.0)
        # The shutdown race: stop() has closed the batcher, and a submit()
        # that already passed the running check reaches it.
        engine._batcher.close()
        with pytest.raises(ServingError):
            engine.submit("late")
        engine.stop()

    @staticmethod
    def _fixed_sequence_engine():
        stub = FlakyStub(block=True)
        engine = stub_engine(
            stub, max_batch_size=4, max_wait_ms=50.0, queue_size=3, cache_size=16
        )
        return engine.start(), stub

    @staticmethod
    def _settled_counts(engine: ServingEngine) -> tuple:
        """``(requests, completed, rejected, errors, cancelled)``, after
        checking that every counted request has exactly one outcome."""
        stats = engine.stats()
        outcomes = ("completed_total", "rejected_total", "errors_total", "cancelled_total")
        assert stats["requests_total"] == sum(stats[key] for key in outcomes)
        return (stats["requests_total"], *(stats[key] for key in outcomes))

    def test_every_counted_request_is_settled(self):
        engine, stub = self._fixed_sequence_engine()
        self._drive_fixed_sequence(engine, stub)
        assert self._settled_counts(engine) == (7, 5, 1, 1, 0)
        stats = engine.stats()
        assert stats["batches"] == {
            "executed": 3, "mean_size": 5 / 3, "histogram": {"1": 2, "3": 1},
        }

    def test_query_many_cancellations_are_settled(self):
        stub = StubSystem(block=True)
        with stub_engine(stub, max_batch_size=1, queue_size=2) as engine:
            held = engine.submit("held")
            assert stub.started.wait(timeout=5.0)
            # "c" is rejected; the admitted "a" and "b" are cancelled.
            with pytest.raises(ServiceOverloadedError):
                engine.query_many(["a", "b", "c"], timeout=5.0)
            stub.release.set()
            held.result(timeout=5.0)
        assert self._settled_counts(engine) == (4, 1, 1, 0, 2)

    def test_non_draining_stop_cancellations_are_settled(self):
        stub = StubSystem(block=True)
        engine = stub_engine(stub, max_batch_size=1, queue_size=8).start()
        held = engine.submit("held")
        assert stub.started.wait(timeout=5.0)
        queued = [engine.submit(f"q{i}") for i in range(3)]
        # One queued request was already cancelled by its caller; it is
        # still settled once, as cancelled.
        assert queued[0].cancel()
        stopper = threading.Thread(target=lambda: engine.stop(drain=False))
        stopper.start()
        deadline = time.monotonic() + 5.0
        while not all(f.cancelled() for f in queued) and time.monotonic() < deadline:
            time.sleep(0.005)
        stub.release.set()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive()
        held.result(timeout=5.0)
        assert self._settled_counts(engine) == (4, 1, 0, 0, 3)

    def test_stats_and_scrape_agree(self):
        engine, stub = self._fixed_sequence_engine()
        server = make_server(engine, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}/v1"
        try:
            self._drive_fixed_sequence(engine, stub)
            with urllib.request.urlopen(f"{base}/stats", timeout=30) as response:
                stats = json.load(response)
            with urllib.request.urlopen(f"{base}/metrics", timeout=30) as response:
                scrape = parse_exposition(response.read().decode("utf-8"))
        finally:
            server.shutdown()
            server.server_close()

        def samples(family: str) -> dict:
            return {
                (sample["name"], tuple(sorted(sample["labels"].items()))): sample["value"]
                for sample in scrape[family]["samples"]
            }

        for key, family in (
            ("requests_total", "lovo_requests_total"),
            ("completed_total", "lovo_requests_completed_total"),
            ("rejected_total", "lovo_requests_rejected_total"),
            ("errors_total", "lovo_request_errors_total"),
            ("cancelled_total", "lovo_requests_cancelled_total"),
        ):
            assert type(stats[key]) is int
            assert scrape[family]["type"] == "counter"
            assert samples(family) == {(family, ()): stats[key]}

        name = "lovo_request_latency_seconds"
        assert scrape[name]["type"] == "summary"
        latency = samples(name)
        for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            assert latency[(name, (("quantile", quantile),))] * 1000.0 == stats["latency_ms"][key]
        assert latency[(f"{name}_sum", ())] == stats["latency_seconds_sum"]
        assert latency[(f"{name}_count", ())] == stats["completed_total"] == 5
        assert stats["latency_ms"]["window"] == 5
        assert 0.0 < stats["latency_ms"]["p50"] <= stats["latency_ms"]["p99"]

        name = "lovo_microbatch_size"
        assert scrape[name]["type"] == "histogram"
        sizes = samples(name)
        assert sorted(le for (sample, labels) in sizes for _, le in labels) == sorted(
            ["1", "2", "3", "4", "+Inf"]
        )
        histogram = {int(size): count for size, count in stats["batches"]["histogram"].items()}
        assert histogram == {1: 2, 3: 1}
        for size in histogram:
            cumulative = sum(count for other, count in histogram.items() if other <= size)
            assert sizes[(f"{name}_bucket", (("le", str(size)),))] == cumulative
        assert sizes[(f"{name}_count", ())] == stats["batches"]["executed"] == 3
        assert sizes[(f"{name}_sum", ())] == 5 == sum(
            size * count for size, count in histogram.items()
        )

        for key in ("uptime_seconds", "qps", "queue_depth"):
            assert key in stats

    def test_uptime_counts_from_start(self):
        engine = stub_engine(StubSystem())
        assert engine.stats()["uptime_seconds"] == 0.0
        idle = 1.0
        time.sleep(idle)
        with engine:
            engine.query("q", timeout=5.0)
            stats = engine.stats()
        assert stats["uptime_seconds"] < idle
        assert stats["qps"] > 1 / idle


class TestServeConfig:
    def test_defaults_valid_and_round_trip(self):
        config = LOVOConfig()
        rebuilt = LOVOConfig.from_dict(config.to_dict())
        assert rebuilt.serve == config.serve
        assert rebuilt == config

    def test_pre_serve_snapshots_get_defaults(self):
        payload = LOVOConfig().to_dict()
        del payload["serve"]
        rebuilt = LOVOConfig.from_dict(payload)
        assert rebuilt.serve == ServeConfig()

    def test_validation(self):
        for bad in (
            dict(num_workers=0),
            dict(max_batch_size=0),
            dict(max_wait_ms=-1.0),
            dict(queue_size=0),
            dict(cache_size=-1),
            dict(cache_ttl_seconds=0.0),
            dict(port=70000),
        ):
            with pytest.raises(ConfigurationError):
                ServeConfig(**bad)

    def test_with_overrides_replaces_serve(self):
        base = LOVOConfig()
        updated = base.with_overrides(serve=ServeConfig(num_workers=7))
        assert updated.serve.num_workers == 7
        assert updated.query is base.query


class TestSystemNotReady:
    def test_query_before_ingest(self):
        system = LOVO()
        with pytest.raises(SystemNotReadyError):
            system.query("a car")
        with pytest.raises(SystemNotReadyError):
            system.query_batch(["a car"])
        with pytest.raises(SystemNotReadyError):
            system.storage

    def test_is_a_query_error(self):
        assert issubclass(SystemNotReadyError, QueryError)


class TestServingEngineWithStub:
    def test_requires_start(self):
        engine = stub_engine(StubSystem())
        with pytest.raises(ServingError):
            engine.submit("q")

    def test_rejects_empty_query_without_poisoning_batches(self):
        stub = StubSystem()
        with stub_engine(stub) as engine:
            with pytest.raises(QueryError):
                engine.submit("   ")
        assert stub.calls == []

    def test_coalesces_queued_queries_into_one_batch(self):
        stub = StubSystem(block=True)
        with stub_engine(stub, max_batch_size=8, max_wait_ms=50.0) as engine:
            first = engine.submit("warm")
            assert stub.started.wait(timeout=5.0)
            futures = [engine.submit(f"q{i}") for i in range(5)]
            stub.release.set()
            first.result(timeout=5.0)
            for future in futures:
                future.result(timeout=5.0)
        assert stub.calls[0] == ["warm"]
        assert stub.calls[1] == [f"q{i}" for i in range(5)]

    def test_backpressure_end_to_end(self):
        stub = StubSystem(block=True)
        with stub_engine(stub, max_batch_size=1, queue_size=2) as engine:
            in_flight = engine.submit("held")
            assert stub.started.wait(timeout=5.0)
            engine.submit("queued-1")
            engine.submit("queued-2")
            with pytest.raises(ServiceOverloadedError):
                engine.submit("rejected")
            stats = engine.stats()
            assert stats["rejected_total"] == 1
            stub.release.set()
            in_flight.result(timeout=5.0)
        assert engine.stats()["completed_total"] == 3

    def test_cache_hit_never_touches_the_engine(self):
        stub = StubSystem()
        with stub_engine(stub, cache_size=16) as engine:
            engine.query("hot query", timeout=5.0)
            assert len(stub.calls) == 1
            hit = engine.query("  HOT   query ", timeout=5.0)
            assert hit.metadata["cache_hit"] is True
            assert len(stub.calls) == 1
            stats = engine.stats()
            assert stats["cache"]["hits"] == 1

    def test_graceful_stop_drains_admitted_requests(self):
        stub = StubSystem(delay=0.02)
        engine = stub_engine(stub, max_batch_size=4, queue_size=32).start()
        futures = [engine.submit(f"q{i}") for i in range(12)]
        engine.stop()  # graceful: drain everything already admitted
        for future in futures:
            assert future.done() and not future.cancelled()
            future.result(timeout=0)
        assert engine.stats()["completed_total"] == 12
        with pytest.raises(ServingError):
            engine.submit("after-stop")

    def test_non_draining_stop_cancels_queued_requests(self):
        stub = StubSystem(block=True)
        engine = stub_engine(stub, max_batch_size=1, queue_size=8).start()
        held = engine.submit("held")
        assert stub.started.wait(timeout=5.0)
        queued = [engine.submit(f"q{i}") for i in range(3)]
        # stop() joins the (blocked) worker, so run it in a thread: the
        # queued-but-unclaimed futures must be cancelled immediately, while
        # the batch already executing still finishes.
        stopper = threading.Thread(target=lambda: engine.stop(drain=False))
        stopper.start()
        deadline = time.monotonic() + 5.0
        while not all(f.cancelled() for f in queued) and time.monotonic() < deadline:
            time.sleep(0.005)
        assert all(future.cancelled() for future in queued)
        stub.release.set()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive()
        assert held.result(timeout=5.0) is not None

    def test_query_many_rejection_cancels_admitted_prefix(self):
        stub = StubSystem(block=True)
        with stub_engine(stub, max_batch_size=1, queue_size=2) as engine:
            held = engine.submit("held")
            assert stub.started.wait(timeout=5.0)
            # Queue capacity 2: the third admission inside query_many must
            # fail, and the two it already admitted must be cancelled rather
            # than left to burn worker capacity.
            with pytest.raises(ServiceOverloadedError):
                engine.query_many(["a", "b", "c"], timeout=5.0)
            assert engine.queue_depth == 2  # cancelled entries still queued...
            stub.release.set()
            held.result(timeout=5.0)
        # ...but the workers skipped them: only the held query ever executed.
        assert [call for call in stub.calls] == [["held"]]

    def test_query_many_validates_all_texts_before_admitting_any(self):
        stub = StubSystem()
        with stub_engine(stub) as engine:
            with pytest.raises(QueryError):
                engine.query_many(["fine", "   "], timeout=5.0)
        assert stub.calls == []

    def test_no_future_stranded_when_submit_races_stop(self):
        stub = StubSystem()
        engine = stub_engine(stub, max_batch_size=4, queue_size=256).start()
        futures: List = []
        futures_lock = threading.Lock()

        def submitter() -> None:
            for i in range(100):
                try:
                    future = engine.submit(f"q{i}")
                except ServingError:
                    return
                with futures_lock:
                    futures.append(future)

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for thread in threads:
            thread.start()
        engine.stop()  # races the submitters; close+drain must strand nothing
        for thread in threads:
            thread.join()
        # Every submission that was *accepted* must have been answered: the
        # batcher's close() is atomic with submit(), and stop() sweeps any
        # queries that landed after the workers exited.
        for future in futures:
            assert future.result(timeout=5.0) is not None

    def test_engine_error_propagates_to_every_future_in_group(self):
        class ExplodingSystem(StubSystem):
            def query_batch(self, texts, *, options=None):
                raise RuntimeError("index melted")

        with stub_engine(ExplodingSystem(), max_batch_size=4, max_wait_ms=20.0) as engine:
            futures = [engine.submit(f"q{i}") for i in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="index melted"):
                    future.result(timeout=5.0)
            assert engine.stats()["errors_total"] == 3


class TestServingEngineParity:
    """N threads x M queries through the engine == serial LOVO.query."""

    def test_concurrent_results_bit_identical_to_serial(self, lovo_system):
        serial = {text: lovo_system.query(text) for text in BELLEVUE_QUERIES}
        config = ServeConfig(
            num_workers=3, max_batch_size=8, max_wait_ms=2.0,
            queue_size=256, cache_size=0,
        )
        collected: dict = {}
        errors: List[BaseException] = []

        def client(thread_index: int) -> None:
            try:
                rotation = (
                    BELLEVUE_QUERIES[thread_index % len(BELLEVUE_QUERIES):]
                    + BELLEVUE_QUERIES[:thread_index % len(BELLEVUE_QUERIES)]
                )
                for text in rotation * 2:
                    response = engine.query(text, timeout=30.0)
                    previous = collected.setdefault(text, result_key(response))
                    assert previous == result_key(response)
            except BaseException as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        with ServingEngine(lovo_system, config) as engine:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = engine.stats()
        assert not errors
        for text in BELLEVUE_QUERIES:
            assert collected[text] == result_key(serial[text]), text
        assert stats["completed_total"] == 6 * 2 * len(BELLEVUE_QUERIES)

    def test_cached_responses_also_match_serial(self, lovo_system):
        text = BELLEVUE_QUERIES[0]
        serial = lovo_system.query(text)
        config = ServeConfig(num_workers=2, cache_size=32, max_wait_ms=1.0)
        with ServingEngine(lovo_system, config) as engine:
            miss = engine.query(text, timeout=30.0)
            hit = engine.query(text, timeout=30.0)
        assert result_key(miss) == result_key(serial)
        assert result_key(hit) == result_key(serial)
        assert hit.metadata["cache_hit"] is True


class TestHTTPFrontend:
    @pytest.fixture()
    def http_service(self, lovo_system):
        config = ServeConfig(num_workers=2, max_wait_ms=1.0, cache_size=32)
        engine = ServingEngine(lovo_system, config).start()
        server = make_server(engine, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield f"http://{host}:{port}", engine
        finally:
            server.shutdown()
            server.server_close()
            engine.stop()

    @staticmethod
    def _post(base: str, path: str, payload: dict) -> dict:
        request = urllib.request.Request(
            base + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.load(response)

    @staticmethod
    def _get(base: str, path: str) -> dict:
        with urllib.request.urlopen(base + path, timeout=30) as response:
            return json.load(response)

    def test_query_round_trip_matches_direct_call(self, http_service, lovo_system):
        base, _ = http_service
        text = BELLEVUE_QUERIES[0]
        payload = self._post(base, "/v1/query", {"query": text, "options": {"top_n": 5}})
        direct = lovo_system.query(QueryRequest(text, QueryOptions(top_n=5)))
        assert payload["query"] == text
        assert payload["num_results"] == len(direct.results)
        assert [r["frame_id"] for r in payload["results"]] == [
            r.frame_id for r in direct.results
        ]
        assert [r["score"] for r in payload["results"]] == [
            r.score for r in direct.results
        ]

    def test_query_batch_endpoint(self, http_service):
        base, _ = http_service
        texts = BELLEVUE_QUERIES[:3]
        payload = self._post(base, "/v1/query_batch", {"queries": texts})
        assert payload["batch_size"] == 3
        assert [entry["query"] for entry in payload["responses"]] == texts

    def test_healthz_and_stats(self, http_service):
        base, _ = http_service
        health = self._get(base, "/v1/healthz")
        assert health["status"] == "ok"
        assert health["api_version"] == "v1"
        assert health["num_entities"] > 0
        assert health["backend"]["sharded"] is False
        self._post(base, "/v1/query", {"query": BELLEVUE_QUERIES[0]})
        stats = self._get(base, "/v1/stats")
        assert stats["completed_total"] >= 1
        assert stats["running"] is True
        assert stats["backend"]["ready"] is True

    @pytest.mark.parametrize("method", ["GET", "POST"])
    @pytest.mark.parametrize(
        "path", ["/query", "/query_batch", "/healthz", "/stats"]
    )
    def test_unversioned_paths_redirect_to_v1(self, http_service, method, path):
        """Unversioned paths are unknown paths: they get the 404 error
        envelope and no Location header."""
        base, _ = http_service
        body = b'{"query": "a car"}' if method == "POST" else b""
        raw = self._raw_request(
            base,
            (
                f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii") + body,
        )
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert b"404" in head.split(b"\r\n", 1)[0]
        assert b"location:" not in head.lower()
        envelope = json.loads(payload)["error"]
        assert envelope["code"] == "not_found"
        assert envelope["retryable"] is False

    @pytest.mark.parametrize(
        "path,payload,expected_status,expected_code",
        [
            ("/v1/query", {"nope": 1}, 400, "invalid_query"),
            ("/v1/query", {"query": 42}, 400, "invalid_query"),
            ("/v1/query", {"query": "car", "top_n": 0}, 400, "invalid_query"),
            ("/v1/query", {"query": "   "}, 400, "invalid_query"),
            ("/v1/query", {"query": "car", "options": {"depth": 3}}, 400, "invalid_query"),
            ("/v1/query", {"query": "car", "options": {"top_n": 3}, "top_n": 9},
             400, "invalid_query"),
            ("/v1/query_batch", {"queries": "not a list"}, 400, "bad_request"),
            ("/v1/unknown", {"query": "car"}, 404, "not_found"),
            # A top-level "top_n" is rejected, never silently ignored.
            ("/v1/query", {"query": "car", "top_n": 5}, 400, "invalid_query"),
            ("/v1/query_batch", {"queries": ["car"], "top_n": 5}, 400, "bad_request"),
        ],
    )
    def test_bad_requests_use_error_envelope(
        self, http_service, path, payload, expected_status, expected_code
    ):
        base, _ = http_service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(base, path, payload)
        assert excinfo.value.code == expected_status
        envelope = json.load(excinfo.value)["error"]
        assert envelope["code"] == expected_code
        assert envelope["retryable"] is False
        assert envelope["message"]

    @staticmethod
    def _raw_request(base: str, request_bytes: bytes) -> bytes:
        import socket
        from urllib.parse import urlsplit

        parts = urlsplit(base)
        with socket.create_connection((parts.hostname, parts.port), timeout=10) as sock:
            sock.sendall(request_bytes)
            sock.settimeout(10)
            data = b""
            while True:
                try:
                    chunk = sock.recv(4096)
                except TimeoutError:
                    break
                if not chunk:
                    break
                data += chunk
        return data

    def test_oversized_body_gets_400_and_connection_close(self, http_service):
        base, _ = http_service
        # Claim a huge body but never send it: the server must reject it and
        # close the connection (an unread body would desync keep-alive).
        raw = self._raw_request(
            base,
            b"POST /v1/query HTTP/1.1\r\nHost: test\r\nContent-Length: 100000\r\n\r\n",
        )
        status_line = raw.split(b"\r\n", 1)[0]
        assert b"400" in status_line
        assert b"connection: close" in raw.lower()

    def test_non_numeric_content_length_gets_400(self, http_service):
        base, _ = http_service
        raw = self._raw_request(
            base,
            b"POST /v1/query HTTP/1.1\r\nHost: test\r\nContent-Length: abc\r\n\r\n",
        )
        status_line = raw.split(b"\r\n", 1)[0]
        assert b"400" in status_line

    def test_malformed_json_is_400(self, http_service):
        base, _ = http_service
        request = urllib.request.Request(
            base + "/v1/query", data=b"{not json", headers={"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_stopped_engine_maps_to_503(self, lovo_system):
        engine = ServingEngine(lovo_system, ServeConfig(num_workers=1, cache_size=0))
        engine.start()
        engine.stop()
        server = make_server(engine, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._post(f"http://{host}:{port}", "/v1/query", {"query": "a car"})
            assert excinfo.value.code == 503
        finally:
            server.shutdown()
            server.server_close()

    def test_not_ready_system_maps_to_503(self):
        engine = ServingEngine(LOVO(), ServeConfig(num_workers=1, cache_size=0)).start()
        server = make_server(engine, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._post(base, "/v1/query", {"query": "a car"})
            assert excinfo.value.code == 503
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(base, "/v1/healthz")
            assert excinfo.value.code == 503
        finally:
            server.shutdown()
            server.server_close()
            engine.stop()
