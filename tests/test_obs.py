"""Tests for the observability stack (:mod:`repro.obs`).

Covers the pieces (ceil-based percentile, trace/span model, bounded trace
store with slow-query log, metrics registry under concurrent writers,
Prometheus text exposition round-trip) and the assembled system: traces that
cross the HTTP handler → micro-batcher → engine worker → shard fan-out
thread handoffs, the ``/v1/metrics`` and ``/v1/traces`` endpoints, request-id
correlation, and degraded/unavailable health reporting.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import LOVO, LOVOConfig, ObsConfig
from repro.config import (
    METRICS_WINDOW,
    EncoderConfig,
    IndexConfig,
    KeyframeConfig,
    QueryConfig,
    ServeConfig,
    ShardConfig,
)
from repro.errors import ConfigurationError
from repro.obs.exposition import (
    CONTENT_TYPE,
    escape_label_value,
    parse_exposition,
    render,
    service_families,
)
from repro.obs.registry import (
    Counter,
    MetricsRegistry,
    format_float,
    percentile,
)
from repro.obs.trace import (
    Trace,
    TraceStore,
    Tracer,
    activate,
    active_traces,
    record_span,
    span,
    tracing_active,
)
from repro.serve import ServingEngine
from repro.serve.http import make_server
from repro.video.datasets import make_bellevue


def sharded_obs_config(**obs_overrides: object) -> LOVOConfig:
    """A small sharded configuration for observability tests."""
    return LOVOConfig(
        encoder=EncoderConfig(embedding_dim=64, class_embedding_dim=32, patch_grid=6),
        keyframes=KeyframeConfig(strategy="uniform", uniform_stride=10),
        index=IndexConfig(
            index_type="ivfpq", num_subspaces=4, num_centroids=16, num_coarse_clusters=8, nprobe=3
        ),
        query=QueryConfig(fast_search_k=128, rerank_n=20, max_candidate_frames=30),
        shard=ShardConfig(num_shards=2, num_replicas=2),
        obs=ObsConfig(**obs_overrides),
    )


@pytest.fixture(scope="module")
def sharded_system() -> LOVO:
    """A sharded, replicated LOVO system with a small dataset ingested."""
    system = LOVO(sharded_obs_config())
    system.ingest(make_bellevue(num_videos=1, frames_per_video=120))
    return system


# ---------------------------------------------------------------------------
# percentile (shared nearest-rank implementation)
# ---------------------------------------------------------------------------


class TestPercentile:
    def test_ceil_nearest_rank_on_1_to_100(self):
        values = sorted(float(v) for v in range(1, 101))
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 0.99) == 99.0

    def test_half_rank_rounds_up_not_to_even(self):
        # ceil(0.5 * 5) = 3 — the old banker's-rounding implementation
        # rounded 2.5 down to rank 2.
        assert percentile([10.0, 20.0, 30.0, 40.0, 50.0], 0.5) == 30.0
        # ceil(0.5 * 4) = 2 (exact, no rounding involved).
        assert percentile([10.0, 20.0, 30.0, 40.0], 0.5) == 20.0

    def test_extremes_clamp_to_ends(self):
        values = [1.0, 2.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 3.0

    def test_singleton(self):
        assert percentile([7.5], 0.99) == 7.5


# ---------------------------------------------------------------------------
# trace / span model
# ---------------------------------------------------------------------------


class TestTraceModel:
    def test_span_nesting_and_attributes(self):
        trace = Trace()
        with activate([trace]):
            assert tracing_active()
            with span("outer", stage="fast"):
                with span("inner") as handle:
                    handle.set("replica", "shard-0/replica-1")
        assert not tracing_active()
        spans = trace.spans()
        outer, inner = spans
        assert outer.name == "outer" and outer.parent_id is None
        assert outer.attributes == {"stage": "fast"}
        assert inner.parent_id == outer.span_id
        assert inner.attributes == {"replica": "shard-0/replica-1"}
        assert inner.duration_s <= outer.duration_s

    def test_fanout_records_into_every_active_trace(self):
        traces = [Trace(), Trace(), Trace()]
        with activate(traces):
            assert active_traces() == tuple(traces)
            with span("shared_work"):
                pass
        for trace in traces:
            assert trace.span_names() == ["shared_work"]

    def test_record_span_parents_under_current_span(self):
        trace = Trace()
        with activate([trace]):
            with span("scatter"):
                start = time.perf_counter()
                record_span("shard_search", start, start + 0.001, shard=1)
        scatter, shard = trace.spans()
        assert shard.parent_id == scatter.span_id
        assert shard.attributes["shard"] == 1
        assert shard.duration_s == pytest.approx(0.001)

    def test_no_active_trace_is_a_noop(self):
        with span("untraced") as handle:
            handle.set("ignored", True)  # must not raise
        start = time.perf_counter()
        record_span("untraced", start, start)  # must not raise

    def test_span_times_the_block_with_or_without_a_trace(self):
        with span("untraced") as untraced:
            time.sleep(0.002)
        assert untraced.seconds >= 0.002
        trace = Trace()
        with activate([trace]):
            with span("traced") as traced:
                time.sleep(0.002)
        (recorded,) = trace.spans()
        assert traced.seconds >= 0.002
        assert recorded.duration_s == traced.seconds

    def test_span_budget_drops_and_counts(self):
        trace = Trace(max_spans=2)
        with activate([trace]):
            for index in range(5):
                with span(f"s{index}"):
                    pass
        assert len(trace.spans()) == 2
        assert trace.dropped_spans == 3

    def test_finish_is_idempotent(self):
        trace = Trace()
        assert trace.finish(outcome="ok") is True
        first_duration = trace.duration_s
        assert trace.finish(outcome="late") is False
        assert trace.duration_s == first_duration
        assert trace.attributes == {"outcome": "ok"}

    def test_as_dict_is_json_serialisable(self):
        trace = Trace()
        with activate([trace]):
            with span("work", k=5):
                pass
        trace.finish()
        payload = json.loads(json.dumps(trace.as_dict()))
        assert payload["finished"] is True
        assert payload["spans"][0]["name"] == "work"
        assert payload["spans"][0]["attributes"] == {"k": 5}


class TestTraceStore:
    def test_fifo_eviction(self):
        store = TraceStore(capacity=2)
        traces = [Trace() for _ in range(3)]
        for trace in traces:
            trace.finish()
            store.put(trace)
        assert store.get(traces[0].trace_id) is None
        assert store.get(traces[1].trace_id) is traces[1]
        assert store.get(traces[2].trace_id) is traces[2]
        assert len(store) == 2

    def test_slow_traces_survive_main_ring_eviction(self):
        store = TraceStore(capacity=1, slow_threshold_ms=0.0)
        slow_trace = Trace()
        slow_trace.finish()
        store.put(slow_trace)
        filler = Trace()
        filler.finish()
        store.put(filler)
        # Evicted from the ring, still pinned in the slow log.
        assert store.get(slow_trace.trace_id) is slow_trace
        assert slow_trace in store.slow()

    def test_fast_traces_stay_out_of_slow_log(self):
        store = TraceStore(capacity=8, slow_threshold_ms=10_000.0)
        trace = Trace()
        trace.finish()
        store.put(trace)
        assert store.slow() == []

    def test_annotate(self):
        store = TraceStore()
        trace = Trace()
        trace.finish()
        store.put(trace)
        assert store.annotate(trace.trace_id, request_id="abc") is True
        assert trace.attributes["request_id"] == "abc"
        assert store.annotate("missing", request_id="abc") is False

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)

    def test_slow_log_ordering_under_concurrent_inserts(self):
        """Concurrent puts keep the slow log consistent and ordered.

        Each thread inserts its traces in sequence; the log must retain the
        most recent ``slow_capacity`` puts with each thread's inserts still
        in per-thread order (most recent first), no duplicates, and no
        torn/partial entries.
        """
        num_threads, per_thread, slow_capacity = 4, 32, 48
        store = TraceStore(
            capacity=num_threads * per_thread,
            slow_threshold_ms=0.0,  # everything is "slow"
            slow_capacity=slow_capacity,
        )
        barrier = threading.Barrier(num_threads)

        def insert(thread_index: int) -> None:
            barrier.wait()
            for seq in range(per_thread):
                trace = Trace(trace_id=f"t{thread_index}-{seq:03d}")
                trace.finish()
                store.put(trace)

        threads = [
            threading.Thread(target=insert, args=(i,)) for i in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        slow = store.slow()
        slow_ids = [trace.trace_id for trace in slow]
        assert len(slow) == slow_capacity
        assert len(set(slow_ids)) == len(slow_ids)  # no duplicates
        # slow() is most-recent-first: within each thread, later sequence
        # numbers must appear before earlier ones.
        for thread_index in range(num_threads):
            prefix = f"t{thread_index}-"
            sequence = [
                int(trace_id[len(prefix):])
                for trace_id in slow_ids
                if trace_id.startswith(prefix)
            ]
            assert sequence == sorted(sequence, reverse=True)
        # Every retained entry is a fully formed, finished trace.
        assert all(trace.duration_s is not None for trace in slow)


class TestTracer:
    def test_disabled_tracer_creates_nothing(self):
        tracer = Tracer(ObsConfig(enabled=False))
        assert tracer.enabled is False
        assert tracer.start(query="q") is None
        assert tracer.finish(None) is None

    def test_finish_stores_once(self):
        tracer = Tracer(ObsConfig())
        trace = tracer.start(query="q")
        assert trace is not None
        first = tracer.finish(trace)
        second = tracer.finish(trace)
        assert first == second == trace.trace_id
        assert tracer.store.get(trace.trace_id) is trace
        assert len(tracer.store) == 1


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "count", ("kind",))
        counter.inc(kind="a")
        counter.inc(2.5, kind="a")
        assert counter.value(kind="a") == 3.5

        gauge = registry.gauge("g", "gauge")
        gauge.set(4.0)
        gauge.inc(-1.5)
        assert gauge.value() == 2.5

        histogram = registry.histogram("h_seconds", "hist", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(5.0)
        family = histogram.collect()
        by_name = {
            (sample.name, sample.labels.get("le")): sample.value
            for sample in family.samples
        }
        assert by_name[("h_seconds_bucket", "0.1")] == 1
        assert by_name[("h_seconds_bucket", "1")] == 1
        assert by_name[("h_seconds_bucket", "+Inf")] == 2
        assert by_name[("h_seconds_count", None)] == 2
        assert by_name[("h_seconds_sum", None)] == pytest.approx(5.05)

    def test_summary_windowed_quantiles_and_totals(self):
        registry = MetricsRegistry()
        summary = registry.summary("lat_seconds", "latency")
        assert registry.summary("lat_seconds", "latency") is summary
        empty = {sample.name: sample.value for sample in summary.collect().samples}
        assert empty == {"lat_seconds": 0.0, "lat_seconds_sum": 0.0, "lat_seconds_count": 0.0}
        # One large observation falls out of the window; the totals keep it.
        summary.observe(1000.0)
        for value in range(1, METRICS_WINDOW + 1):
            summary.observe(float(value))
        value = summary.value()
        assert value["window"] == METRICS_WINDOW
        assert value["count"] == METRICS_WINDOW + 1
        assert value["sum"] == 1000.0 + METRICS_WINDOW * (METRICS_WINDOW + 1) / 2
        assert value["mean"] == (METRICS_WINDOW + 1) / 2
        window = [float(v) for v in range(1, METRICS_WINDOW + 1)]
        assert value["quantiles"] == {q: percentile(window, q) for q in (0.5, 0.95, 0.99)}
        family = summary.collect()
        assert family.kind == "summary"
        quantiles = {
            sample.labels["quantile"]: sample.value
            for sample in family.samples if sample.name == "lat_seconds"
        }
        assert quantiles == {"0.5": value["quantiles"][0.5],
                             "0.95": value["quantiles"][0.95],
                             "0.99": value["quantiles"][0.99]}

    def test_unlabelled_histogram_exposes_zero_series(self):
        histogram = MetricsRegistry().histogram("sizes", "sizes", buckets=(1, 2))
        samples = {
            (sample.name, sample.labels.get("le")): sample.value
            for sample in histogram.collect().samples
        }
        assert samples == {
            ("sizes_bucket", "1"): 0.0, ("sizes_bucket", "2"): 0.0,
            ("sizes_bucket", "+Inf"): 0.0, ("sizes_sum", None): 0.0,
            ("sizes_count", None): 0.0,
        }
        histogram.observe(2)
        histogram.observe(2)
        histogram.observe(7)
        assert histogram.value() == {"sum": 11.0, "count": 3.0, "counts": [0, 2, 1]}

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("requests_total", "count")
        second = registry.counter("requests_total", "count")
        assert first is second

    def test_kind_and_label_mismatches_raise(self):
        registry = MetricsRegistry()
        registry.counter("thing_total", "count", ("a",))
        with pytest.raises(ValueError):
            registry.gauge("thing_total", "count", ("a",))
        with pytest.raises(ValueError):
            registry.counter("thing_total", "count", ("b",))

    def test_invalid_names_and_labels_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name", "x")
        with pytest.raises(ValueError):
            registry.counter("ok_total", "x", ("bad-label",))
        counter = registry.counter("labelled_total", "x", ("kind",))
        with pytest.raises(ValueError):
            counter.inc(other="nope")

    def test_counter_rejects_negative_increment(self):
        counter = Counter("n_total", "count")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_concurrent_writers_lose_no_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("stress_total", "count", ("worker",))
        histogram = registry.histogram("stress_seconds", "hist")
        threads = 8
        increments = 500
        barrier = threading.Barrier(threads)

        def hammer(worker: int) -> None:
            barrier.wait()
            for _ in range(increments):
                counter.inc(worker=str(worker))
                histogram.observe(0.001)

        pool = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        for worker in range(threads):
            assert counter.value(worker=str(worker)) == increments
        family = histogram.collect()
        count = next(
            sample.value
            for sample in family.samples
            if sample.name == "stress_seconds_count"
        )
        total = next(
            sample.value
            for sample in family.samples
            if sample.name == "stress_seconds_sum"
        )
        assert count == threads * increments
        assert total == pytest.approx(threads * increments * 0.001)

    def test_collectors_contribute_families(self):
        registry = MetricsRegistry()

        def extra():
            counter = Counter("extra_total", "from a collector")
            counter.inc(7)
            return [counter.collect()]

        registry.register_collector(extra)
        names = [family.name for family in registry.collect()]
        assert "extra_total" in names
        registry.unregister_collector(extra)
        assert "extra_total" not in [family.name for family in registry.collect()]


# ---------------------------------------------------------------------------
# exposition
# ---------------------------------------------------------------------------


class TestExposition:
    def test_format_float(self):
        assert format_float(3.0) == "3"
        assert format_float(0.25) == "0.25"
        assert format_float(float("inf")) == "+Inf"

    def test_label_escaping_round_trip(self):
        raw = 'tricky "value"\\with\nnewline'
        escaped = escape_label_value(raw)
        assert "\n" not in escaped
        registry = MetricsRegistry()
        registry.counter("escaped_total", "count", ("text",)).inc(text=raw)
        parsed = parse_exposition(render(registry.collect()))
        sample = parsed["escaped_total"]["samples"][0]
        assert sample["labels"]["text"] == raw

    @pytest.mark.parametrize(
        "raw",
        [
            "back\\slash",
            "new\nline",
            'quo"te',
            "trailing backslash\\",
            '\\"',  # backslash immediately before a quote
            "literal \\n is not a newline",
            'all \\ of "them"\nat once',
            "",
        ],
        ids=[
            "backslash",
            "newline",
            "quote",
            "trailing-backslash",
            "backslash-quote",
            "literal-backslash-n",
            "combined",
            "empty",
        ],
    )
    def test_escaped_label_values_round_trip(self, raw):
        registry = MetricsRegistry()
        registry.counter("escape_cases_total", "count", ("text",)).inc(text=raw)
        rendered = render(registry.collect())
        # Escaping keeps the sample on one exposition line.
        (sample_line,) = [
            line for line in rendered.splitlines() if not line.startswith("#")
        ]
        assert "\n" not in sample_line
        parsed = parse_exposition(rendered)
        sample = parsed["escape_cases_total"]["samples"][0]
        assert sample["labels"]["text"] == raw
        assert sample["value"] == 1.0

    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("rt_requests_total", "requests", ("route",)).inc(
            5, route="/v1/query"
        )
        registry.gauge("rt_depth", "queue depth").set(3)
        histogram = registry.histogram("rt_seconds", "latency", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        text = render(registry.collect())
        parsed = parse_exposition(text)

        assert parsed["rt_requests_total"]["type"] == "counter"
        assert parsed["rt_requests_total"]["samples"][0] == {
            "name": "rt_requests_total",
            "labels": {"route": "/v1/query"},
            "value": 5.0,
        }
        assert parsed["rt_depth"]["samples"][0]["value"] == 3.0
        histogram_samples = {
            (sample["name"], sample["labels"].get("le")): sample["value"]
            for sample in parsed["rt_seconds"]["samples"]
        }
        assert histogram_samples[("rt_seconds_bucket", "0.1")] == 1.0
        assert histogram_samples[("rt_seconds_bucket", "1")] == 2.0
        assert histogram_samples[("rt_seconds_bucket", "+Inf")] == 2.0
        assert histogram_samples[("rt_seconds_count", None)] == 2.0

    def test_service_families_shapes(self):
        stats = {
            "uptime_seconds": 12.5,
            "qps": 0.64,
            "queue_depth": 2,
            "queue_capacity": 64,
            "num_workers": 4,
            "cache": {"enabled": True, "hits": 3, "misses": 1, "expirations": 0,
                      "size": 2, "hit_rate": 0.75},
        }
        families = {family.name: family for family in service_families(stats)}
        assert families["lovo_uptime_seconds"].samples[0].value == 12.5
        assert families["lovo_queue_depth"].kind == "gauge"
        assert families["lovo_queue_depth"].samples[0].value == 2
        assert families["lovo_cache_hits_total"].kind == "counter"
        assert families["lovo_cache_hits_total"].samples[0].value == 3
        # Request counts, latency and batch sizes are the engine's registry
        # instruments, never a copy derived from the stats snapshot.
        for name in ("lovo_requests_total", "lovo_request_latency_seconds",
                     "lovo_microbatch_size"):
            assert name not in families


# ---------------------------------------------------------------------------
# obs config
# ---------------------------------------------------------------------------


class TestObsConfig:
    def test_defaults_enabled(self):
        config = LOVOConfig()
        assert config.obs.enabled is True

    def test_round_trip_through_dict(self):
        config = LOVOConfig(
            obs=ObsConfig(enabled=False, slow_query_ms=99.0, shadow_queue_size=17)
        )
        restored = LOVOConfig.from_dict(config.to_dict())
        assert restored.obs == config.obs

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ObsConfig(slow_query_ms=-1.0)


# ---------------------------------------------------------------------------
# engine integration: traces across thread handoffs
# ---------------------------------------------------------------------------


class TestRerankSpans:
    """The rerank span splits into candidate building and scoring, and
    scoring into one enhance/decode/relations/nms run per query."""

    STAGES = ["enhance", "decode", "relations", "nms"]

    @staticmethod
    def rerank_children(trace: Trace):
        spans = trace.spans()
        (rerank,) = [s for s in spans if s.name == "rerank"]
        children = {s.name: s for s in spans if s.parent_id == rerank.span_id}
        assert set(children) == {"candidate_build", "rerank_score"}
        assert sum(s.duration_s for s in children.values()) <= rerank.duration_s
        return children["candidate_build"], children["rerank_score"]

    @staticmethod
    def scoring_stages(trace: Trace, score):
        stages = [s for s in trace.spans() if s.parent_id == score.span_id]
        assert sum(s.duration_s for s in stages) <= score.duration_s
        for stage in stages:
            assert not [s for s in trace.spans() if s.parent_id == stage.span_id]
            if stage.name == "enhance":
                assert stage.attributes["blocks"] >= 1
        return [stage.name for stage in stages]

    def test_serial_query(self, sharded_system):
        trace = Trace()
        with activate([trace]):
            response = sharded_system.query("person")
        build, score = self.rerank_children(trace)
        frames = response.metadata["num_candidates"]
        assert frames > 0
        assert build.attributes["frames"] == frames
        assert 0 <= build.attributes["built"] <= frames
        assert score.attributes["frames"] == frames
        assert score.attributes["patches"] >= frames
        assert self.scoring_stages(trace, score) == self.STAGES

    def test_batch_query(self, sharded_system):
        trace = Trace()
        with activate([trace]):
            batch = sharded_system.query_batch(["person", "car", "person"])
        build, score = self.rerank_children(trace)
        assert build.attributes == {
            "frames": batch.metadata["num_unique_candidate_frames"],
            "built": batch.metadata["num_built_candidate_frames"],
        }
        # Two unique queries: every candidate list is scored once.
        assert score.attributes["frames"] == sum(
            batch.responses[i].metadata["num_candidates"] for i in (0, 1)
        )
        assert score.attributes["patches"] >= score.attributes["frames"]
        assert self.scoring_stages(trace, score) == self.STAGES * 2


class TestEngineTracing:
    REQUIRED_SPANS = {"queue_wait", "encode", "fast_search", "shard_search",
                      "merge", "rerank"}

    def test_trace_crosses_batcher_and_shard_fanout(self, sharded_system):
        config = ServeConfig(num_workers=2, max_wait_ms=1.0, cache_size=0)
        with ServingEngine(sharded_system, config) as engine:
            response = engine.query("person", timeout=30.0)
        trace_id = response.metadata["trace_id"]
        trace = engine.tracer.store.get(trace_id)
        assert trace is not None and trace.finished
        names = set(trace.span_names())
        assert self.REQUIRED_SPANS <= names

        spans = trace.spans()
        # Every shard answered (2 shards → ≥2 shard_search spans), each
        # annotated with the serving replica.
        shard_spans = [s for s in spans if s.name == "shard_search"]
        assert len(shard_spans) >= 2
        assert all("replica" in s.attributes for s in shard_spans)
        assert all(s.attributes["outcome"] == "ok" for s in shard_spans)

        # Root-level children partition the request: their summed time
        # cannot exceed the end-to-end duration (parallel shard work is
        # nested under fast_search, not root-level).
        assert trace.duration_s is not None
        root_total = sum(s.duration_s for s in spans if s.parent_id is None)
        assert root_total <= trace.duration_s + 1e-6

    def test_batched_queries_each_get_their_own_trace(self, sharded_system):
        config = ServeConfig(num_workers=1, max_wait_ms=20.0, max_batch_size=8,
                             cache_size=0)
        with ServingEngine(sharded_system, config) as engine:
            futures = [
                engine.submit(text)
                for text in ("person", "car", "person walking")
            ]
            responses = [future.result(timeout=30.0) for future in futures]
        trace_ids = [response.metadata["trace_id"] for response in responses]
        assert len(set(trace_ids)) == len(trace_ids)
        for trace_id in trace_ids:
            trace = engine.tracer.store.get(trace_id)
            assert trace is not None
            assert self.REQUIRED_SPANS <= set(trace.span_names())

    def test_cache_hit_gets_fresh_trace(self, sharded_system):
        config = ServeConfig(num_workers=1, cache_size=8)
        with ServingEngine(sharded_system, config) as engine:
            miss = engine.query("person", timeout=30.0)
            hit = engine.query("person", timeout=30.0)
        assert hit.metadata["cache_hit"] is True
        assert hit.metadata["trace_id"] != miss.metadata["trace_id"]
        hit_trace = engine.tracer.store.get(hit.metadata["trace_id"])
        assert hit_trace is not None
        assert "cache_lookup" in hit_trace.span_names()

    def test_stats_reports_health_and_trace_occupancy(self, sharded_system):
        with ServingEngine(sharded_system, ServeConfig(num_workers=1)) as engine:
            engine.query("person", timeout=30.0)
            stats = engine.stats()
        assert stats["health"] == "ok"
        assert stats["traces"]["stored"] >= 1
        assert stats["traces"]["slow_threshold_ms"] == pytest.approx(250.0)

    def test_disabled_obs_produces_no_traces(self):
        system = LOVO(sharded_obs_config(enabled=False))
        system.ingest(make_bellevue(num_videos=1, frames_per_video=60))
        with ServingEngine(system, ServeConfig(num_workers=1)) as engine:
            response = engine.query("person", timeout=30.0)
            stats = engine.stats()
        assert "trace_id" not in response.metadata
        assert "traces" not in stats
        assert len(engine.tracer.store) == 0


# ---------------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------------


class TestHTTPObservability:
    @pytest.fixture()
    def http_service(self, sharded_system):
        config = ServeConfig(num_workers=2, max_wait_ms=1.0, cache_size=16)
        engine = ServingEngine(sharded_system, config).start()
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
    def _request(base, method, path, body=None, headers=None):
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(
            base + path, data=data, method=method, headers=headers or {}
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()

    def test_query_carries_trace_id_in_body_and_header(self, http_service):
        base, engine = http_service
        status, headers, body = self._request(
            base, "POST", "/v1/query", {"query": "person"},
            {"X-Request-ID": "corr-1"},
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["trace_id"]
        assert headers["X-Trace-Id"] == payload["trace_id"]
        assert headers["X-Request-ID"] == "corr-1"

        trace = engine.tracer.store.get(payload["trace_id"])
        assert trace is not None
        assert trace.attributes["request_id"] == "corr-1"
        assert trace.attributes["endpoint"] == "/v1/query"

    def test_batch_responses_each_carry_trace_ids(self, http_service):
        base, engine = http_service
        status, _, body = self._request(
            base, "POST", "/v1/query_batch",
            {"queries": ["person", "car near person"]},
        )
        assert status == 200
        payload = json.loads(body)
        trace_ids = [item["trace_id"] for item in payload["responses"]]
        assert all(trace_ids) and len(set(trace_ids)) == 2
        for trace_id in trace_ids:
            stored = engine.tracer.store.get(trace_id)
            assert stored is not None
            assert stored.attributes["endpoint"] == "/v1/query_batch"

    def test_trace_endpoint_round_trip(self, http_service):
        base, _ = http_service
        _, _, body = self._request(base, "POST", "/v1/query", {"query": "person"})
        trace_id = json.loads(body)["trace_id"]
        status, _, body = self._request(base, "GET", f"/v1/traces/{trace_id}")
        assert status == 200
        trace = json.loads(body)
        names = {span["name"] for span in trace["spans"]}
        assert {"queue_wait", "encode", "fast_search", "shard_search",
                "merge", "rerank"} <= names

    def test_missing_trace_is_404_with_request_id(self, http_service):
        base, _ = http_service
        status, headers, body = self._request(
            base, "GET", "/v1/traces/deadbeef", headers={"X-Request-ID": "corr-2"}
        )
        assert status == 404
        envelope = json.loads(body)["error"]
        assert envelope["code"] == "trace_not_found"
        assert envelope["request_id"] == "corr-2"
        assert headers["X-Request-ID"] == "corr-2"

    def test_slow_trace_log_endpoint(self, sharded_system):
        # Threshold 0 → every request lands in the slow log.
        config = ServeConfig(num_workers=1)
        engine = ServingEngine(sharded_system, config)
        engine._tracer = Tracer(ObsConfig(slow_query_ms=0.0))
        engine.start()
        server = make_server(engine, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            self._request(base, "POST", "/v1/query", {"query": "person"})
            status, _, body = self._request(base, "GET", "/v1/traces/slow")
        finally:
            server.shutdown()
            server.server_close()
            engine.stop()
        assert status == 200
        payload = json.loads(body)
        assert payload["slow_threshold_ms"] == 0.0
        assert payload["num_traces"] >= 1
        assert payload["traces"][0]["spans"]

    def test_metrics_exposition(self, http_service):
        base, _ = http_service
        self._request(base, "POST", "/v1/query", {"query": "person"})
        status, headers, body = self._request(base, "GET", "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        parsed = parse_exposition(body.decode("utf-8"))
        assert parsed["lovo_requests_total"]["type"] == "counter"
        assert parsed["lovo_requests_total"]["samples"][0]["value"] >= 1
        assert parsed["lovo_request_latency_seconds"]["type"] == "summary"
        assert parsed["lovo_shard_call_seconds"]["type"] == "histogram"
        healthy = {
            sample["labels"]["shard"]: sample["value"]
            for sample in parsed["lovo_shard_healthy_replicas"]["samples"]
        }
        assert healthy == {"0": 2.0, "1": 2.0}
        assert "lovo_phase_seconds_total" in parsed

    def test_timings_and_phase_totals_read_the_span_clock(self, http_service, sharded_system):
        base, _ = http_service
        status, _, body = self._request(base, "POST", "/v1/query", {"query": "a red car"})
        assert status == 200
        payload = json.loads(body)
        status, _, body = self._request(base, "GET", f"/v1/traces/{payload['trace_id']}")
        assert status == 200
        seconds = {
            span["name"]: span["duration_ms"] / 1000.0
            for span in json.loads(body)["spans"]
            if span["parent_id"] is None
        }
        # A batch of one: its timings are its own spans' durations.
        timings = payload["timings"]
        assert set(timings) == {"fast_search", "rerank"}
        assert timings["fast_search"] == pytest.approx(
            seconds["encode"] + seconds["fast_search"], rel=0, abs=1e-9
        )
        assert timings["rerank"] == pytest.approx(seconds["rerank"], rel=0, abs=1e-9)

        _, _, body = self._request(base, "GET", "/v1/metrics")
        phases = {
            sample["labels"]["phase"]: sample["value"]
            for sample in parse_exposition(body.decode("utf-8"))[
                "lovo_phase_seconds_total"
            ]["samples"]
        }
        distribution = sharded_system.time_distribution()
        assert phases["processing"] == distribution["processing"]
        assert phases["rerank"] == distribution["rerank"]
        assert phases["indexing"] + phases["fast_search"] == distribution[
            "indexing_fast_search"
        ]

    def test_request_id_generated_when_absent(self, http_service):
        base, _ = http_service
        status, headers, _ = self._request(base, "GET", "/v1/healthz")
        assert status == 200
        assert len(headers["X-Request-ID"]) == 32

    def test_request_id_echoed_on_errors(self, http_service):
        base, _ = http_service
        status, headers, body = self._request(
            base, "POST", "/v1/query", {"nope": 1}, {"X-Request-ID": "err-1"}
        )
        assert status == 400
        assert headers["X-Request-ID"] == "err-1"
        assert json.loads(body)["error"]["request_id"] == "err-1"

    def test_unprintable_request_id_replaced(self, http_service):
        base, _ = http_service
        status, headers, _ = self._request(
            base, "GET", "/v1/healthz", headers={"X-Request-ID": "x" * 500}
        )
        assert status == 200
        assert headers["X-Request-ID"] != "x" * 500

    def test_healthz_degraded_and_unavailable(self, http_service, sharded_system):
        base, _ = http_service
        group = sharded_system.storage.collection.router.groups[0]
        replicas = group.replicas
        try:
            group.mark_unhealthy(replicas[0])
            status, _, body = self._request(base, "GET", "/v1/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "degraded"

            for replica in replicas:
                group.mark_unhealthy(replica)
            status, _, body = self._request(base, "GET", "/v1/healthz")
            assert status == 503
            assert json.loads(body)["status"] == "unavailable"
        finally:
            for replica in replicas:
                group.mark_healthy(replica)
        status, _, body = self._request(base, "GET", "/v1/healthz")
        assert status == 200 and json.loads(body)["status"] == "ok"
