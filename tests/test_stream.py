"""Tests for the streaming ingest subsystem (:mod:`repro.stream`).

The load-bearing assertion is **bit-exact parity**: streaming N segments
through the background encode→index pipeline produces a system whose query
results are identical — frame ids, patch ids, scores, boxes — to ingesting
the same segments offline in the same order, for every index family, sharded
and unsharded.  On top of that: delta snapshots (warm start + compaction),
standing queries end-to-end over HTTP, the stale-cache-after-ingest
regression, concurrent insert-while-search safety, and the empty-system
snapshot round trip.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import List

import numpy as np
import pytest

from repro import LOVO, LOVOConfig, ServeConfig, StreamConfig
from repro.config import (
    EncoderConfig,
    IndexConfig,
    KeyframeConfig,
    QueryConfig,
    ShardConfig,
)
from repro.core.query import QueryOptions
from repro.core.results import QueryResponse
from repro.core.summary import VideoSummarizer
from repro.errors import (
    ConfigurationError,
    StreamBackpressureError,
    StreamClosedError,
    StreamError,
    SubscriptionNotFoundError,
    SystemNotReadyError,
    VectorDatabaseError,
)
from repro.persist import DeltaSnapshotStore
from repro.serve import ServingEngine
from repro.serve.cache import ResultCache
from repro.serve.http import make_server
from repro.stream import StreamingIngestor, SubscriptionManager
from repro.vectordb.hnsw import HNSWIndex
from repro.video.datasets import make_bellevue, make_cityscapes

QUERY = "A red car driving in the center of the road"


def stream_config(
    index_type: str = "ivfpq", num_shards: int = 1, **stream_overrides
) -> LOVOConfig:
    """A fast test configuration with a selectable index family / sharding."""
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
        shard=ShardConfig(num_shards=num_shards),
        stream=StreamConfig(**stream_overrides),
    )


def result_key(response: QueryResponse) -> List[tuple]:
    """Bit-exact identity of a response's ranked results."""
    return [
        (r.frame_id, r.patch_id, r.score, r.box.to_array().tobytes())
        for r in response.results
    ]


@pytest.fixture(scope="module")
def segments():
    """Three distinct small segments of mixed datasets (seed-separated so ids
    never clash); Cityscapes annotations order their attributes differently
    from a snapshot's sorted keys, which delta replay must survive."""
    return [
        make_bellevue(num_videos=1, frames_per_video=20, seed=1),
        make_cityscapes(num_videos=1, frames_per_video=20, seed=2),
        make_bellevue(num_videos=1, frames_per_video=20, seed=3),
    ]


def stream_segments(system: LOVO, segments, **ingestor_kwargs) -> StreamingIngestor:
    """Push every segment through a fresh pipeline and wait for each ticket."""
    ingestor = StreamingIngestor(system, **ingestor_kwargs).start()
    for ticket in [ingestor.submit(segment) for segment in segments]:
        ticket.result(timeout=120)
    return ingestor


class TestStreamingParity:
    """Streamed ingest is bit-exact with offline ingest — the tentpole."""

    @pytest.mark.parametrize("index_type", ["flat", "hnsw", "ivfpq"])
    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_streamed_matches_offline_bit_exact(self, segments, index_type, num_shards):
        config = stream_config(index_type, num_shards)
        offline = LOVO(config)
        for segment in segments:
            offline.ingest(segment)

        streamed = LOVO(config)
        ingestor = stream_segments(streamed, segments)
        try:
            assert streamed.num_entities == offline.num_entities
            assert streamed.data_version == offline.data_version == len(segments)
            for text in (QUERY, "a person walking on the sidewalk"):
                assert result_key(streamed.query(text)) == result_key(
                    offline.query(text)
                )
            batch_streamed = streamed.query_batch([QUERY, QUERY])
            batch_offline = offline.query_batch([QUERY, QUERY])
            for left, right in zip(batch_streamed.responses, batch_offline.responses):
                assert result_key(left) == result_key(right)
        finally:
            ingestor.stop()

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_queries_stay_consistent_during_live_ingest(self, segments, num_shards):
        """Concurrent queries under ingest never crash or see torn state.

        The sharded variant exercises the scatter-gather merge racing live
        appends: global tie-break positions are published before the shards
        see the vectors, and the global IVF-PQ train is write-locked.
        """
        config = stream_config("flat", num_shards)
        system = LOVO(config)
        system.ingest(segments[0])
        ingestor = StreamingIngestor(system).start()
        errors: List[BaseException] = []
        stop = threading.Event()

        def query_loop() -> None:
            try:
                while not stop.is_set():
                    response = system.query(QUERY, options=QueryOptions(top_n=5))
                    for hit in response.results:
                        assert hit.frame_id
            except BaseException as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        threads = [threading.Thread(target=query_loop) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for ticket in [ingestor.submit(segment) for segment in segments[1:]]:
                ticket.result(timeout=120)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            ingestor.stop()
        assert not errors
        assert system.data_version == len(segments)

    @pytest.mark.parametrize("index_type", ["flat", "ivfpq"])
    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_hits_join_their_metadata_rows_during_live_ingest(
        self, segments, index_type, num_shards
    ):
        """``LOVOStorage.search`` racing streamed appends: every hit already
        has its metadata row, and its frame and video are that row's."""
        config = stream_config(index_type, num_shards)
        system = LOVO(config)
        system.ingest(segments[0])
        appends = [
            make_bellevue(num_videos=1, frames_per_video=10, seed=100 + i) for i in range(8)
        ]
        # One probe per append, taken from its own patches, so hits on the
        # new vectors appear as soon as each append lands.
        summarizer = VideoSummarizer(config)
        probes = np.stack(
            [summarizer.summarize(segment).encodings[5].class_embedding for segment in appends]
        )
        storage = system.storage
        errors: List[BaseException] = []
        videos_seen: set = set()
        rounds = [0, 0]  # full search rounds per thread
        stop = threading.Event()

        def search_loop(slot: int) -> None:
            try:
                while not stop.is_set():
                    for hits in storage.search_batch(probes, 4):
                        for hit in hits:
                            record = storage.patch_record(hit.id)
                            assert hit.metadata == {
                                "frame_id": record.frame_id, "video_id": record.video_id
                            }
                            videos_seen.add(record.video_id)
                    rounds[slot] += 1
            except BaseException as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        threads = [threading.Thread(target=search_loop, args=(slot,)) for slot in range(2)]
        # Frequent thread switches, so searches land between ingest's steps.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        for thread in threads:
            thread.start()
        ingestor = StreamingIngestor(system).start()
        try:
            for ticket in [ingestor.submit(segment) for segment in appends]:
                ticket.result(timeout=120)
            # Every thread completes one more round over the appended data.
            after_ingest = list(rounds)
            deadline = time.monotonic() + 30.0
            while (
                any(done <= start for done, start in zip(rounds, after_ingest))
                and not errors
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            ingestor.stop()
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        streamed = {video.video_id for segment in appends for video in segment.videos}
        assert streamed & videos_seen

    def test_ticket_reports_pipeline_failure(self, segments):
        system = LOVO(stream_config("flat"))
        ingestor = StreamingIngestor(system).start()
        try:
            ticket = ingestor.submit(segments[0])
            assert ticket.result(timeout=120) is not None
            duplicate = ingestor.submit(segments[0])  # same ids → indexing fails
            with pytest.raises(VectorDatabaseError):
                duplicate.result(timeout=120)
            assert ingestor.stats()["failed"] == 1
            # The pipeline survives a failed segment.
            ok = ingestor.submit(segments[1])
            assert ok.result(timeout=120) is not None
        finally:
            ingestor.stop()

    def test_streamed_embeddings_are_unit_rows(self, segments):
        # The encoder emits unit rows, so a streamed embedding-norm signal
        # would be constant; the ingestor keeps none.
        system = LOVO(stream_config("flat"))
        ingestor = StreamingIngestor(system).start()
        try:
            summary = ingestor.submit(segments[0]).result(timeout=120)
            norms = [np.linalg.norm(encoding.embedding) for encoding in summary.encodings]
            assert norms
            np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)
            assert "drift" not in ingestor.stats()
        finally:
            ingestor.stop()

    def test_reject_backpressure_and_closed_errors(self, segments):
        system = LOVO(
            stream_config("flat", encode_queue_size=1, backpressure="reject")
        )
        ingestor = StreamingIngestor(system)
        with pytest.raises(StreamError):
            ingestor.submit(segments[0])  # not started yet
        ingestor.start()
        tickets = []
        with pytest.raises(StreamBackpressureError):
            for _ in range(64):  # far beyond queue+in-flight capacity
                tickets.append(ingestor.submit(segments[0]))
        ingestor.stop(drain=False, timeout=30)
        with pytest.raises(StreamClosedError):
            ingestor.submit(segments[1])
        assert ingestor.stats()["closed"] is True

    def test_stream_config_validation(self):
        with pytest.raises(ConfigurationError):
            StreamConfig(encode_queue_size=0)
        with pytest.raises(ConfigurationError):
            StreamConfig(backpressure="drop")
        with pytest.raises(ConfigurationError):
            StreamConfig(max_duty_cycle=0.0)
        with pytest.raises(ConfigurationError):
            StreamConfig(max_duty_cycle=1.5)
        assert StreamConfig(max_duty_cycle=0.25).max_duty_cycle == 0.25

    def test_duty_cycle_pacer_bounds_busy_fraction(self):
        from repro.stream.ingestor import _DutyCyclePacer

        pacer = _DutyCyclePacer(0.5)
        pacer.throttle()  # first unit runs immediately
        pacer.charge(0.05)
        start = time.monotonic()
        pacer.throttle()  # must sleep until busy/elapsed <= 0.5
        waited = time.monotonic() - start
        pacer.charge(0.0)
        assert waited >= 0.04  # 0.05 busy / 0.5 duty = 0.1 elapsed minimum

    def test_paced_streaming_stays_bit_exact(self, segments):
        offline = LOVO(stream_config("flat"))
        for segment in segments[:2]:
            offline.ingest(segment)

        streamed = LOVO(stream_config("flat"))
        ingestor = StreamingIngestor(
            streamed, config=StreamConfig(max_duty_cycle=0.5)
        ).start()
        try:
            for segment in segments[:2]:
                ingestor.submit(segment)
            assert ingestor.drain(timeout=120)
        finally:
            ingestor.stop()
        assert ingestor.stats()["max_duty_cycle"] == 0.5

        text = "A red car driving in the center of the road"
        assert result_key(streamed.query(text)) == result_key(offline.query(text))


class TestDeltaSnapshots:
    def test_warm_start_replays_deltas_bit_exact(self, segments, tmp_path):
        config = stream_config("ivfpq")
        system = LOVO(config)
        system.ensure_storage()
        store = DeltaSnapshotStore(tmp_path / "stream-snap")
        store.initialize(system)
        ingestor = stream_segments(system, segments, delta_store=store)
        ingestor.stop()
        assert len(store.deltas()) == len(segments)

        warm = store.load_system()
        assert warm.num_entities == system.num_entities
        for text in (QUERY, "A person walking next to a bicycle."):
            assert result_key(warm.query(text)) == result_key(system.query(text))

    def test_compaction_folds_deltas_into_new_base(self, segments, tmp_path):
        config = stream_config("flat")
        system = LOVO(config)
        system.ensure_storage()
        store = DeltaSnapshotStore(tmp_path / "stream-snap")
        store.initialize(system)
        ingestor = stream_segments(system, segments[:2], delta_store=store)
        ingestor.stop()
        reference = result_key(system.query(QUERY))

        compacted = store.compact()
        assert store.deltas() == []
        assert result_key(compacted.query(QUERY)) == reference
        # A fresh load after compaction replays nothing and still matches.
        assert result_key(store.load_system().query(QUERY)) == reference
        # The store keeps accepting deltas after compaction.
        follow_on = StreamingIngestor(compacted, delta_store=store).start()
        follow_on.submit(segments[2]).result(timeout=120)
        follow_on.stop()
        assert len(store.deltas()) == 1
        assert result_key(store.load_system().query(QUERY)) == result_key(
            compacted.query(QUERY)
        )

    def test_corrupted_delta_fails_checksum(self, segments, tmp_path):
        system = LOVO(stream_config("flat"))
        system.ensure_storage()
        store = DeltaSnapshotStore(tmp_path / "stream-snap")
        store.initialize(system)
        ingestor = stream_segments(system, segments[:1], delta_store=store)
        ingestor.stop()
        target = store.root / "deltas" / "delta-000001" / "frames.json"
        target.write_text(target.read_text() + " ", encoding="utf-8")
        from repro.errors import SnapshotCorruptionError

        with pytest.raises(SnapshotCorruptionError):
            store.load_system()

    def test_empty_system_snapshot_round_trips(self, segments, tmp_path):
        """Satellite: zero-dataset system (empty active tail) persists cleanly."""
        config = stream_config("ivfpq")
        cold = LOVO(config)
        cold.ensure_storage()
        cold.save(tmp_path / "empty-snap")

        restored = LOVO.load(tmp_path / "empty-snap")
        assert restored.num_entities == 0
        with pytest.raises(SystemNotReadyError):
            _ = LOVO(config).storage  # untouched systems still raise
        # The restored empty system accepts ingest and then answers queries.
        restored.ingest(segments[0])
        reference = LOVO(config)
        reference.ingest(segments[0])
        assert result_key(restored.query(QUERY)) == result_key(reference.query(QUERY))

        store = DeltaSnapshotStore(tmp_path / "empty-delta")
        empty = LOVO(config)
        empty.ensure_storage()
        store.initialize(empty)
        assert store.deltas() == []
        warm = store.load_system()
        assert warm.num_entities == 0


class TestStandingQueries:
    def test_matches_pushed_from_live_ingest(self, segments):
        system = LOVO(stream_config("flat"))
        ingestor = StreamingIngestor(system).start()
        try:
            subscription = ingestor.subscriptions.register(
                "a car on the road", threshold=-10.0
            )
            ingestor.submit(segments[0]).result(timeout=120)
            events = ingestor.subscriptions.poll(
                subscription.id, timeout=5.0, max_events=8
            )
            assert events
            assert all(event.subscription_id == subscription.id for event in events)
            assert all(event.data_version == 1 for event in events)
            sequences = [event.sequence for event in events]
            assert sequences == sorted(sequences)
        finally:
            ingestor.stop()

    def test_threshold_filters_and_caps_matches(self, segments):
        system = LOVO(stream_config("flat", max_matches_per_segment=3))
        ingestor = StreamingIngestor(system).start()
        try:
            never = ingestor.subscriptions.register("a car", threshold=1e9)
            always = ingestor.subscriptions.register("a car", threshold=-1e9)
            ingestor.submit(segments[0]).result(timeout=120)
            assert ingestor.subscriptions.poll(never.id, timeout=0.1) == []
            events = ingestor.subscriptions.poll(always.id, timeout=5.0, max_events=64)
            assert len(events) == 3  # capped per segment
            scores = [event.score for event in events]
            assert scores == sorted(scores, reverse=True)
        finally:
            ingestor.stop()

    def test_bounded_buffer_drops_oldest_and_counts(self):
        manager = SubscriptionManager(
            encode=lambda text: np.ones(4) / 2.0,
            config=StreamConfig(subscription_buffer_size=2, max_matches_per_segment=32),
        )
        subscription = manager.register("anything", threshold=-1e9)

        class FakeEncoding:
            def __init__(self, index: int) -> None:
                self.patch_id = f"p{index}"
                self.frame_id = f"f{index}"
                self.video_id = "v0"
                self.class_embedding = np.ones(4)

        manager.score_batch([FakeEncoding(i) for i in range(5)], data_version=1)
        events = manager.poll(subscription.id, timeout=0.1, max_events=10)
        assert len(events) == 2  # buffer bound
        assert subscription.dropped_total == 3
        assert manager.stats()["dropped_total"] == 3

    def test_unknown_subscription_raises(self):
        manager = SubscriptionManager(encode=lambda text: np.ones(4))
        with pytest.raises(SubscriptionNotFoundError):
            manager.poll("sub-999999", timeout=0.0)
        with pytest.raises(SubscriptionNotFoundError):
            manager.unregister("sub-999999")
        subscription = manager.register("a car", threshold=0.5)
        manager.unregister(subscription.id)
        with pytest.raises(SubscriptionNotFoundError):
            manager.get(subscription.id)


class TestStandingQueriesHTTP:
    @pytest.fixture()
    def streaming_service(self, segments):
        config = stream_config("flat")
        system = LOVO(config)
        system.ingest(segments[0])
        engine = ServingEngine(
            system, ServeConfig(num_workers=1, max_wait_ms=1.0, cache_size=8)
        ).start()
        ingestor = engine.attach_streaming()
        server = make_server(engine, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield f"http://{host}:{port}", engine, ingestor
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
        with urllib.request.urlopen(base + path, timeout=60) as response:
            return json.load(response)

    def test_subscription_receives_match_from_live_ingest(
        self, streaming_service, segments
    ):
        base, engine, ingestor = streaming_service
        created = self._post(
            base, "/v1/subscriptions", {"query": "a car on the road", "threshold": -10.0}
        )
        assert created["id"].startswith("sub-")

        listed = self._get(base, "/v1/subscriptions")
        assert [entry["id"] for entry in listed["subscriptions"]] == [created["id"]]

        # Long-poll in the background, then push a segment through live ingest.
        results: dict = {}

        def poll() -> None:
            results["events"] = self._get(
                base, f"/v1/subscriptions/{created['id']}/events?timeout=20&max=4"
            )

        poller = threading.Thread(target=poll)
        poller.start()
        ingestor.submit(segments[1]).result(timeout=120)
        poller.join(timeout=60)
        payload = results["events"]
        assert payload["num_events"] >= 1
        event = payload["events"][0]
        assert event["subscription_id"] == created["id"]
        assert event["frame_id"]
        assert event["data_version"] == engine.system.data_version

        fetched = self._get(base, f"/v1/subscriptions/{created['id']}")
        assert fetched["matches_total"] >= payload["num_events"]

        stats = engine.stats()
        assert stats["streaming"]["indexed"] == 1
        assert stats["streaming"]["standing_queries"]["subscriptions"] == 1

        delete = urllib.request.Request(
            base + f"/v1/subscriptions/{created['id']}", method="DELETE"
        )
        with urllib.request.urlopen(delete, timeout=30) as response:
            assert json.load(response)["deleted"] == created["id"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(base, f"/v1/subscriptions/{created['id']}")
        assert excinfo.value.code == 404

    def test_unknown_subscription_maps_to_404(self, streaming_service):
        base, _, _ = streaming_service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(base, "/v1/subscriptions/sub-999999/events?timeout=0")
        assert excinfo.value.code == 404
        assert json.load(excinfo.value)["error"]["code"] == "subscription_not_found"

    def test_subscriptions_unavailable_without_streaming(self, segments):
        system = LOVO(stream_config("flat"))
        system.ingest(segments[0])
        engine = ServingEngine(
            system, ServeConfig(num_workers=1, max_wait_ms=1.0)
        ).start()
        server = make_server(engine, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._post(
                    f"http://{host}:{port}", "/v1/subscriptions", {"query": "a car"}
                )
            assert excinfo.value.code == 503
        finally:
            server.shutdown()
            server.server_close()
            engine.stop()


class TestCacheEpochSatellite:
    """Regression: a cached result must never be served after an ingest."""

    def test_cache_key_includes_epoch(self):
        cache = ResultCache(maxsize=8, ttl_seconds=3600.0)
        options, config = QueryOptions(fast_search_k=128, top_n=10), QueryConfig()
        response = QueryResponse(query="a car", results=[], timings={})
        cache.put("a car", options, config, response, epoch=0)
        hit = cache.get("a car", options, config, epoch=0)
        assert hit is not None and hit.metadata["cache_hit"] is True
        assert cache.get("a car", options, config, epoch=1) is None
        assert cache.get("a car", options, config) is not None  # epoch defaults to 0

    def test_engine_does_not_serve_stale_results_after_ingest(self, segments):
        config = stream_config("flat")
        system = LOVO(config)
        system.ingest(segments[0])
        engine = ServingEngine(
            system,
            ServeConfig(num_workers=1, max_wait_ms=1.0, cache_size=32,
                        cache_ttl_seconds=3600.0),
        ).start()
        try:
            first = engine.query(QUERY, timeout=60.0)
            hit = engine.query(QUERY, timeout=60.0)
            assert hit.metadata["cache_hit"] is True
            assert result_key(hit) == result_key(first)

            system.ingest(segments[1])  # epoch bump → cached entry is dead

            fresh = engine.query(QUERY, timeout=60.0)
            assert fresh.metadata.get("cache_hit", False) is False
            assert result_key(fresh) == result_key(system.query(QUERY))
            # The post-ingest result caches under the new epoch.
            rehit = engine.query(QUERY, timeout=60.0)
            assert rehit.metadata["cache_hit"] is True
            assert result_key(rehit) == result_key(fresh)
        finally:
            engine.stop()


class TestConcurrentIndexSatellite:
    """Satellite: HNSW stays searchable while inserts are in flight."""

    def test_hnsw_insert_while_search(self):
        rng = np.random.default_rng(7)
        dim = 16

        def unit_rows(count: int) -> np.ndarray:
            rows = rng.standard_normal((count, dim))
            return rows / np.linalg.norm(rows, axis=1, keepdims=True)

        index = HNSWIndex(dim, IndexConfig(index_type="hnsw"))
        base = unit_rows(200)
        index.add(list(range(200)), base)
        index.build()

        extra = unit_rows(200)
        queries = unit_rows(16)
        errors: List[BaseException] = []
        stop = threading.Event()

        def search_loop() -> None:
            try:
                while not stop.is_set():
                    for query in queries:
                        hits = index.search(query, 10)
                        assert len(hits) <= 10
                        for hit in hits:
                            assert 0 <= hit.id < 400
            except BaseException as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        searchers = [threading.Thread(target=search_loop) for _ in range(4)]
        for thread in searchers:
            thread.start()
        try:
            for start in range(0, 200, 20):
                index.add(
                    list(range(200 + start, 200 + start + 20)),
                    extra[start : start + 20],
                )
        finally:
            stop.set()
            for thread in searchers:
                thread.join(timeout=30)
        assert not errors
        assert index.ntotal == 400

        # Post-quiescence recall against the exact ranking stays reasonable.
        matrix = np.vstack([base, extra])
        recalls = []
        for query in queries:
            exact = set(np.argsort(-(matrix @ query))[:10].tolist())
            approx = {hit.id for hit in index.search(query, 10)}
            recalls.append(len(exact & approx) / 10.0)
        assert sum(recalls) / len(recalls) >= 0.6
