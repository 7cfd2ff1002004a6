"""Tests for the answer-quality & cost observability layer.

Covers shadow-recall sampling (:mod:`repro.obs.quality`) and per-query
EXPLAIN (:mod:`repro.obs.explain`), their wiring through the serving engine
and the HTTP frontend, and the exposition satellites (``lovo_build_info``,
deterministic ``render``, ``HEAD /v1/metrics``).

The headline check mirrors the acceptance criterion: the shadow-sampled
online recall@10 estimate must land within ±0.05 of a ground-truth recall
computed independently by full exact re-scoring, for all three index
families, sharded and unsharded.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import LOVO, LOVOConfig, ObsConfig
from repro.config import (
    EncoderConfig,
    IndexConfig,
    KeyframeConfig,
    QueryConfig,
    ServeConfig,
    ShardConfig,
)
from repro.core.query import (
    FAST_SEARCH_PROVENANCE_CAP,
    QueryOptions,
)
from repro.errors import ConfigurationError, QueryError
from repro.obs.explain import ExplainStore, build_explain_report
from repro.obs.exposition import build_info_family, parse_exposition, render
from repro.obs.quality import DriftMonitor, ShadowSampler
from repro.obs.registry import MetricFamily, MetricsRegistry, Sample
from repro.serve import ServingEngine
from repro.serve.http import make_server
from repro.video.datasets import make_bellevue

QUERY_TEXTS = [
    "A red car driving in the center of the road.",
    "A bus driving on the road.",
    "A truck parked on the left side of the road.",
    "A person walking across the road.",
    "A white car turning at the intersection.",
    "A bicycle next to a parked car.",
    "Two cars side by side in the rightmost lane.",
    "A bus with a yellow-green body near the sidewalk.",
]


def quality_config(
    index_type: str = "flat",
    sharded: bool = False,
    **obs_overrides: object,
) -> LOVOConfig:
    """A small configuration with shadow sampling switched on."""
    obs_defaults: dict = {"shadow_sample_rate": 1.0}
    obs_defaults.update(obs_overrides)
    return LOVOConfig(
        encoder=EncoderConfig(embedding_dim=64, class_embedding_dim=32, patch_grid=6),
        keyframes=KeyframeConfig(strategy="uniform", uniform_stride=10),
        index=IndexConfig(
            index_type=index_type,
            num_subspaces=4,
            num_centroids=16,
            num_coarse_clusters=8,
            nprobe=3,
        ),
        query=QueryConfig(fast_search_k=128, rerank_n=20, max_candidate_frames=30),
        shard=ShardConfig(num_shards=2) if sharded else ShardConfig(),
        obs=ObsConfig(**obs_defaults),
    )


def ground_truth_recall(system: LOVO, texts, k: int) -> float:
    """Mean recall@k of the served fast-search ranking vs a full exact scan.

    Computed independently of the shadow sampler: re-derive the query vector,
    run the exhaustive scan, and compare against the provenance the query
    path stamped into the response — the same comparison the sampler makes,
    implemented from scratch as ground truth.
    """
    encoder = system.text_encoder
    recalls = []
    for text in texts:
        served = system.query(text).metadata["fast_search"]["hits"]
        effective_k = min(k, len(served))
        vector = encoder.encode(encoder.parse(text))
        exact = system.storage.search(vector, effective_k, use_ann=False)
        served_top_k = {patch_id for patch_id, _ in served[:effective_k]}
        overlap = sum(1 for hit in exact if hit.id in served_top_k)
        recalls.append(overlap / len(exact))
    return sum(recalls) / len(recalls)


# ---------------------------------------------------------------------------
# QueryOptions.explain
# ---------------------------------------------------------------------------


class TestQueryOptionsExplain:
    def test_default_off_and_omitted_from_dict(self):
        options = QueryOptions()
        assert options.explain is False
        assert "explain" not in options.to_dict()

    def test_round_trip(self):
        options = QueryOptions(top_n=5, explain=True)
        payload = options.to_dict()
        assert payload["explain"] is True
        assert QueryOptions.from_dict(payload) == options

    def test_non_bool_rejected(self):
        with pytest.raises(QueryError):
            QueryOptions(explain=1)  # type: ignore[arg-type]
        with pytest.raises(QueryError):
            QueryOptions.from_dict({"explain": "yes"})

    def test_explain_distinct_for_hashing(self):
        assert hash(QueryOptions(explain=True)) != hash(QueryOptions()) or (
            QueryOptions(explain=True) != QueryOptions()
        )
        assert QueryOptions(explain=True) != QueryOptions()


# ---------------------------------------------------------------------------
# ObsConfig validation
# ---------------------------------------------------------------------------


class TestObsConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"shadow_sample_rate": -0.1},
            {"shadow_sample_rate": 1.5},
            {"shadow_recall_k": 0},
            {"shadow_queue_size": 0},
            {"shadow_window": 0},
            {"drift_threshold": 0.0},
            {"history_interval_seconds": 0.0},
            {"history_capacity": 0},
            {"slo_latency_ms": 0.0},
            {"slo_latency_target": 1.0},
            {"slo_availability_target": 0.0},
            {"slo_recall_target": 1.2},
            {"slo_fast_window_seconds": 120.0, "slo_slow_window_seconds": 60.0},
            {"slo_max_events": 0},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        # Parsed as a stored payload: a field that is still configurable
        # fails its validator, and a retired one is rejected because it
        # holds a value other than its fixed constant.
        with pytest.raises(ConfigurationError):
            LOVOConfig.from_dict({"obs": overrides})

    def test_round_trips_through_config_dict(self):
        config = quality_config(
            shadow_sample_rate=0.25, shadow_queue_size=12, slow_query_ms=80.0
        )
        restored = LOVOConfig.from_dict(config.to_dict())
        assert restored.obs.shadow_sample_rate == 0.25
        assert restored.obs.shadow_queue_size == 12
        assert restored.obs.slow_query_ms == 80.0


# ---------------------------------------------------------------------------
# DriftMonitor
# ---------------------------------------------------------------------------


class TestDriftMonitor:
    def _monitor(self, **kwargs) -> tuple:
        registry = MetricsRegistry()
        counter = registry.counter("drift_total", "alerts", ("signal",))
        monitor = DriftMonitor("test_signal", counter, **kwargs)
        return monitor, counter

    def test_no_alert_during_baseline_or_stable_stream(self):
        monitor, counter = self._monitor(baseline=16, window=8)
        assert monitor.observe_many([1.0] * 64) == 0
        assert counter.value(signal="test_signal") == 0

    def test_shift_alerts_once_then_rebaselines(self):
        monitor, counter = self._monitor(baseline=16, window=8, threshold=4.0)
        monitor.observe_many([1.0] * 16)
        # A large level shift: one alert on the first completed window...
        assert monitor.observe_many([100.0] * 8) == 1
        assert counter.value(signal="test_signal") == 1
        # ...and none afterwards, because the monitor re-baselined onto the
        # shifted distribution.
        assert monitor.observe_many([100.0] * 64) == 0
        assert counter.value(signal="test_signal") == 1

    def test_stats_shape(self):
        monitor, _ = self._monitor(baseline=4, window=2)
        monitor.observe_many([2.0, 2.0, 2.0, 2.0])
        stats = monitor.stats()
        assert stats["signal"] == "test_signal"
        assert stats["observations"] == 4
        assert stats["reference_mean"] == pytest.approx(2.0)
        assert stats["alerts"] == 0


# ---------------------------------------------------------------------------
# ShadowSampler mechanics (no serving engine involved)
# ---------------------------------------------------------------------------


class TestShadowSamplerMechanics:
    def test_fractional_accumulator_admits_configured_rate(self, lovo_system):
        sampler = ShadowSampler(
            lovo_system, ObsConfig(shadow_sample_rate=0.25, shadow_queue_size=256)
        )
        fast = {"hits": [("p1", 1.0)]}
        admitted = sum(
            1 for _ in range(100) if sampler.maybe_sample("text", fast)
        )
        assert admitted == 25
        sampler.stop()

    def test_zero_rate_never_samples(self, lovo_system):
        sampler = ShadowSampler(lovo_system, ObsConfig(shadow_sample_rate=0.0))
        assert not sampler.maybe_sample("text", {"hits": [("p1", 1.0)]})
        sampler.stop()

    def test_empty_provenance_skipped(self, lovo_system):
        sampler = ShadowSampler(lovo_system, ObsConfig(shadow_sample_rate=1.0))
        assert not sampler.maybe_sample("text", None)
        assert not sampler.maybe_sample("text", {"hits": []})
        sampler.stop()

    def test_full_queue_drops_instead_of_blocking(self, lovo_system):
        registry = MetricsRegistry()
        sampler = ShadowSampler(
            lovo_system,
            ObsConfig(shadow_sample_rate=1.0, shadow_queue_size=2),
            registry=registry,
        )
        # Worker never started: the queue fills at its bound and further
        # samples are dropped (counted), never blocking the caller.
        fast = {"hits": [("p1", 1.0)]}
        for _ in range(10):
            sampler.maybe_sample("text", fast)
        dropped = registry.counter(
            "lovo_recall_shadow_dropped_total",
            "Shadow samples dropped because the hand-off queue was full.",
        )
        assert dropped.value() == 8
        sampler.stop()

    def test_exact_rescan_skips_the_metadata_join(self, lovo_system, monkeypatch):
        # The rescan reads only ids and scores, so it must not look the hits
        # up in the metadata store.
        def no_join(patch_ids):
            raise AssertionError("the shadow rescan joined metadata rows")

        text = QUERY_TEXTS[0]
        fast = lovo_system.query(text).metadata["fast_search"]
        monkeypatch.setattr(lovo_system.storage.metadata, "patch_frames", no_join)
        sampler = ShadowSampler(lovo_system, ObsConfig(shadow_sample_rate=1.0)).start()
        try:
            assert sampler.maybe_sample(text, fast)
            assert sampler.flush(timeout=30.0)
            stats = sampler.stats()
        finally:
            sampler.stop()
        family = stats["families"][lovo_system.storage.index_type]
        assert family["samples"] == 1

    def test_stop_is_idempotent_and_blocks_restart(self, lovo_system):
        sampler = ShadowSampler(lovo_system, ObsConfig(shadow_sample_rate=1.0))
        sampler.start()
        sampler.stop()
        sampler.stop()
        with pytest.raises(RuntimeError):
            sampler.start()


# ---------------------------------------------------------------------------
# Shadow recall accuracy: the acceptance-criterion matrix
# ---------------------------------------------------------------------------


class TestShadowRecallAccuracy:
    @pytest.mark.parametrize("index_type", ["flat", "ivfpq", "hnsw"])
    @pytest.mark.parametrize("sharded", [False, True], ids=["unsharded", "sharded"])
    def test_estimate_matches_ground_truth(self, index_type, sharded):
        system = LOVO(quality_config(index_type=index_type, sharded=sharded))
        system.ingest(make_bellevue(num_videos=1, frames_per_video=120))
        serve_config = ServeConfig(num_workers=2, max_wait_ms=1.0, cache_size=0)
        engine = ServingEngine(system, serve_config).start()
        try:
            assert engine.quality is not None
            for text in QUERY_TEXTS:
                engine.query(text, timeout=60.0)
            assert engine.quality.flush(timeout=60.0)
            stats = engine.quality.stats()
        finally:
            engine.stop()

        key = f"{index_type}{'-sharded' if sharded else ''}"
        assert stats["processed"] == len(QUERY_TEXTS)
        family = stats["families"][key]
        assert family["samples"] == len(QUERY_TEXTS)

        truth = ground_truth_recall(system, QUERY_TEXTS, k=10)
        assert family["recall_at_k"] == pytest.approx(truth, abs=0.05)
        # Flat search *is* the exact scan, so its served ranking must agree
        # perfectly with the shadow re-scan.
        if index_type == "flat":
            assert family["recall_at_k"] == pytest.approx(1.0)
            assert family["rank_displacement"] == pytest.approx(0.0)
            assert family["score_margin"] == pytest.approx(0.0, abs=1e-6)

    def test_sharded_samples_attribute_per_shard(self):
        system = LOVO(quality_config(index_type="flat", sharded=True))
        system.ingest(make_bellevue(num_videos=1, frames_per_video=120))
        engine = ServingEngine(
            system, ServeConfig(num_workers=1, max_wait_ms=1.0, cache_size=0)
        ).start()
        try:
            for text in QUERY_TEXTS[:4]:
                engine.query(text, timeout=60.0)
            assert engine.quality.flush(timeout=60.0)
            # Families sharing a name may appear once per registry (engine +
            # module-level); aggregate samples the same way render() merges.
            samples: dict = {}
            for family in engine.metric_families():
                samples.setdefault(family.name, []).extend(family.samples)
        finally:
            engine.stop()
        assert "lovo_recall_shard_hits_total" in samples
        shard_samples = samples["lovo_recall_shard_at_k"]
        shards = {sample.labels["shard"] for sample in shard_samples}
        assert shards  # at least one shard owned exact-top-k ids
        for sample in shard_samples:
            assert 0.0 <= sample.value <= 1.0

    def test_recall_metrics_exposed_with_family_labels(self):
        system = LOVO(quality_config(index_type="ivfpq"))
        system.ingest(make_bellevue(num_videos=1, frames_per_video=120))
        engine = ServingEngine(
            system, ServeConfig(num_workers=1, max_wait_ms=1.0, cache_size=0)
        ).start()
        try:
            for text in QUERY_TEXTS[:4]:
                engine.query(text, timeout=60.0)
            assert engine.quality.flush(timeout=60.0)
            text_metrics = render(engine.metric_families())
        finally:
            engine.stop()
        parsed = parse_exposition(text_metrics)
        samples = parsed["lovo_recall_at_k"]["samples"]
        labels = samples[0]["labels"]
        assert labels["family"] == "ivfpq"
        assert labels["sharded"] == "false"
        assert labels["k"] == "10"
        assert 0.0 <= samples[0]["value"] <= 1.0
        assert parsed["lovo_recall_samples_total"]["samples"][0]["value"] == 4.0


# ---------------------------------------------------------------------------
# EXPLAIN
# ---------------------------------------------------------------------------


class TestExplainStore:
    def test_bounded_fifo_eviction(self):
        store = ExplainStore(capacity=2)
        store.put("a", {"n": 1})
        store.put("b", {"n": 2})
        store.put("c", {"n": 3})
        assert store.get("a") is None
        assert store.get("b") == {"n": 2}
        assert store.get("c") == {"n": 3}
        assert len(store) == 2
        assert store.stats() == {"stored": 2, "capacity": 2}

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ExplainStore(capacity=0)


class TestExplainEngine:
    @pytest.fixture(scope="class")
    def explain_service(self):
        system = LOVO(quality_config(index_type="ivfpq", shadow_sample_rate=0.0))
        system.ingest(make_bellevue(num_videos=1, frames_per_video=120))
        engine = ServingEngine(
            system, ServeConfig(num_workers=2, max_wait_ms=1.0, cache_size=32)
        ).start()
        yield engine
        engine.stop()

    def test_report_structure(self, explain_service):
        engine = explain_service
        response = engine.query(
            QUERY_TEXTS[0], options=QueryOptions(explain=True), timeout=60.0
        )
        report = response.metadata["explain"]
        assert report["query"] == QUERY_TEXTS[0]
        assert report["trace_id"] == response.metadata["trace_id"]

        params = report["params"]
        assert params["index_type"] == "ivfpq"
        assert params["nprobe"] == 3
        assert params["num_coarse_clusters"] == 8
        assert params["fast_search_k"] == 128
        assert params["top_n"] == 20

        stages = report["stages"]
        for stage in ("queue_wait", "encode", "fast_search", "rerank"):
            assert stage in stages, f"missing stage {stage}"
            assert stages[stage]["calls"] >= 1
            assert stages[stage]["total_ms"] >= 0.0
        # The IVF-PQ index reports its internal cost split too.
        assert "coarse_scan" in stages
        assert "adc_scan" in stages

        candidates = report["candidates"]
        assert candidates["fast_search_hits"] > 0
        assert candidates["num_candidate_frames"] > 0

        margins = report["score_margins"]
        assert margins["num_results"] == len(response.results)
        assert "fast_search_top1_top2_margin" in margins

        provenance = report["provenance"]
        assert provenance["data_epoch"] == engine.system.data_version
        assert provenance["cache_hit"] is False
        assert provenance["sharded"] is False
        assert report["duration_ms"] > 0.0

    def test_report_retained_in_store(self, explain_service):
        engine = explain_service
        response = engine.query(
            QUERY_TEXTS[1], options=QueryOptions(explain=True), timeout=60.0
        )
        trace_id = response.metadata["trace_id"]
        assert engine.explain_store.get(trace_id) == response.metadata["explain"]

    def test_explain_bypasses_cache_both_ways(self, explain_service):
        engine = explain_service
        text = QUERY_TEXTS[2]
        options = QueryOptions(explain=True)
        first = engine.query(text, options=options, timeout=60.0)
        second = engine.query(text, options=options, timeout=60.0)
        # Two explain passes really ran: distinct traces, neither a hit.
        assert first.metadata["trace_id"] != second.metadata["trace_id"]
        assert not first.metadata.get("cache_hit")
        assert not second.metadata.get("cache_hit")
        # And neither primed the cache: the first *non*-explain request
        # misses, the next one hits.
        miss = engine.query(text, timeout=60.0)
        assert not miss.metadata.get("cache_hit")
        assert "explain" not in miss.metadata
        hit = engine.query(text, timeout=60.0)
        assert hit.metadata["cache_hit"] is True

    def test_plain_queries_have_no_report(self, explain_service):
        response = explain_service.query(QUERY_TEXTS[3], timeout=60.0)
        assert "explain" not in response.metadata

    def test_batch_path_builds_reports(self, explain_service):
        engine = explain_service
        responses = engine.query_many(
            QUERY_TEXTS[4:7], options=QueryOptions(explain=True), timeout=60.0
        )
        trace_ids = {response.metadata["trace_id"] for response in responses}
        assert len(trace_ids) == 3
        for response in responses:
            report = response.metadata["explain"]
            assert report["query"] == response.query
            assert engine.explain_store.get(response.metadata["trace_id"]) == report

    def test_shard_candidates_in_sharded_report(self):
        system = LOVO(quality_config(index_type="flat", sharded=True,
                                     shadow_sample_rate=0.0))
        system.ingest(make_bellevue(num_videos=1, frames_per_video=120))
        engine = ServingEngine(
            system, ServeConfig(num_workers=1, max_wait_ms=1.0, cache_size=0)
        ).start()
        try:
            response = engine.query(
                QUERY_TEXTS[0], options=QueryOptions(explain=True), timeout=60.0
            )
        finally:
            engine.stop()
        report = response.metadata["explain"]
        assert report["provenance"]["sharded"] is True
        assert report["provenance"]["num_shards"] == 2
        per_shard = report["candidates"]["per_shard"]
        assert {entry["shard"] for entry in per_shard} == {0, 1}
        for entry in per_shard:
            assert entry["outcome"] == "ok"
            assert entry["candidates"] > 0
            assert entry["duration_ms"] >= 0.0

    def test_fast_search_provenance_capped(self, explain_service):
        response = explain_service.query(
            QUERY_TEXTS[0],
            options=QueryOptions(explain=True, fast_search_k=512),
            timeout=60.0,
        )
        fast = response.metadata["fast_search"]
        assert len(fast["hits"]) <= FAST_SEARCH_PROVENANCE_CAP
        assert fast["num_hits"] >= len(fast["hits"])

    def test_build_report_without_trace(self, explain_service):
        engine = explain_service
        response = engine.query(QUERY_TEXTS[0], timeout=60.0)
        report = build_explain_report(
            response,
            None,
            options=QueryOptions(),
            query_config=engine.system.config.query,
            index_config=engine.system.config.index,
            backend={},
            epoch=0,
        )
        assert report["trace_id"] is None
        assert report["stages"] == {}
        assert report["score_margins"]["num_results"] == len(response.results)


# ---------------------------------------------------------------------------
# Exposition satellites: build info, deterministic render
# ---------------------------------------------------------------------------


class TestBuildInfo:
    def test_family_shape(self):
        family = build_info_family()
        assert family.name == "lovo_build_info"
        assert family.kind == "gauge"
        (sample,) = family.samples
        assert sample.value == 1.0
        assert set(sample.labels) == {"version", "python", "numpy"}
        import platform

        assert sample.labels["python"] == platform.python_version()
        import numpy

        assert sample.labels["numpy"] == numpy.__version__


class TestRenderDeterminism:
    def test_families_sorted_by_name(self):
        families = [
            MetricFamily("zzz", "counter", "", [Sample("zzz", {}, 1.0)]),
            MetricFamily("aaa", "gauge", "", [Sample("aaa", {}, 2.0)]),
        ]
        text = render(families)
        assert text.index("aaa") < text.index("zzz")
        assert text == render(list(reversed(families)))

    def test_same_name_and_kind_merged_into_one_type_block(self):
        first = MetricFamily(
            "dup_total", "counter", "help text",
            [Sample("dup_total", {"side": "a"}, 1.0)],
        )
        second = MetricFamily(
            "dup_total", "counter", "",
            [Sample("dup_total", {"side": "b"}, 2.0)],
        )
        text = render([first, second])
        assert text.count("# TYPE dup_total counter") == 1
        parsed = parse_exposition(text)
        sides = {s["labels"]["side"]: s["value"] for s in parsed["dup_total"]["samples"]}
        assert sides == {"a": 1.0, "b": 2.0}
        # Inputs were not mutated by the merge.
        assert len(first.samples) == 1 and len(second.samples) == 1


# ---------------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------------


class TestQualityHTTP:
    @pytest.fixture(scope="class")
    def http_service(self):
        system = LOVO(
            quality_config(index_type="flat", sharded=True, shadow_sample_rate=1.0)
        )
        system.ingest(make_bellevue(num_videos=1, frames_per_video=120))
        engine = ServingEngine(
            system, ServeConfig(num_workers=2, max_wait_ms=1.0, cache_size=32)
        ).start()
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

    def test_explain_round_trip_over_http(self, http_service):
        base, engine = http_service
        payload = self._post(
            base,
            "/v1/query",
            {"query": QUERY_TEXTS[0], "options": {"explain": True}},
        )
        assert "explain" in payload
        trace_id = payload["trace_id"]
        assert payload["explain"]["trace_id"] == trace_id
        stored = self._get(base, f"/v1/explain/{trace_id}")
        assert stored == payload["explain"]

    def test_explain_unknown_trace_is_404(self, http_service):
        base, _ = http_service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(base, "/v1/explain/no-such-trace")
        assert excinfo.value.code == 404
        body = json.load(excinfo.value)
        assert body["error"]["code"] == "explain_not_found"

    def test_removed_slo_and_history_paths_are_404(self, http_service):
        base, _ = http_service
        for path in ("/v1/slo", "/v1/metrics/history"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(base, path)
            assert excinfo.value.code == 404
            body = json.load(excinfo.value)
            assert body["error"]["code"] == "not_found"
            assert path in body["error"]["message"]
        assert "slo" not in self._get(base, "/v1/healthz")

    def test_head_metrics_matches_get(self, http_service):
        base, _ = http_service
        get_request = urllib.request.Request(base + "/v1/metrics")
        with urllib.request.urlopen(get_request, timeout=30) as response:
            get_body = response.read()
            get_type = response.headers["Content-Type"]
        head_request = urllib.request.Request(base + "/v1/metrics", method="HEAD")
        with urllib.request.urlopen(head_request, timeout=30) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == get_type
            assert "charset=utf-8" in response.headers["Content-Type"]
            assert int(response.headers["Content-Length"]) > 0
            assert response.read() == b""
        assert get_body  # the GET body itself is non-empty

    def test_head_unknown_path_is_404(self, http_service):
        base, _ = http_service
        request = urllib.request.Request(base + "/v1/stats", method="HEAD")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 404

    def test_metrics_include_build_info_and_recall(self, http_service):
        base, engine = http_service
        self._post(base, "/v1/query", {"query": QUERY_TEXTS[3]})
        assert engine.quality.flush(timeout=60.0)
        with urllib.request.urlopen(base + "/v1/metrics", timeout=30) as response:
            text = response.read().decode("utf-8")
        parsed = parse_exposition(text)
        assert parsed["lovo_build_info"]["samples"][0]["value"] == 1.0
        assert "lovo_recall_at_k" in parsed

    def test_stats_carry_quality_and_explain_sections(self, http_service):
        base, _ = http_service
        stats = self._get(base, "/v1/stats")
        assert "slo" not in stats
        assert "history" not in stats
        assert "explain" in stats
        assert "quality" in stats
        assert stats["quality"]["sample_rate"] == 1.0
