"""Tests for the per-system rerank-candidate cache (:mod:`repro.core.query`).

A candidate depends only on its frame, the frame's scene and the encoder and
reranker configurations, so a cached candidate must give the same answers as
a freshly built one: every test here compares answers with ``==`` against a
system that re-encodes every batch (``candidate_cache_bytes=0``).  The rest
pin what the cache reports (``num_built_candidate_frames`` and the
``candidate_build`` span's ``built``), its byte bound, the read-only arrays,
that the budget stays out of the configuration and snapshots, and that a
loaded or streamed system starts cold and builds only new frames.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro import LOVO, LOVOConfig
from repro.config import (
    EncoderConfig,
    IndexConfig,
    KeyframeConfig,
    QueryConfig,
)
from repro.core.query import DEFAULT_CANDIDATE_CACHE_BYTES, QueryOptions, QueryRequest
from repro.encoders.cross_modal import CrossModalityReranker
from repro.errors import ConfigurationError
from repro.obs.trace import Trace, activate
from repro.stream import StreamingIngestor
from repro.utils.cache import LRUCache
from repro.video.datasets import make_bellevue, make_cityscapes

TEXTS = [
    "A red car driving in the center of the road",
    "A person walking next to a bicycle",
    "A bus driving on the road",
    "Two cars side by side",
]

ENCODER = EncoderConfig(embedding_dim=64, class_embedding_dim=32, patch_grid=6)
#: Array bytes of one candidate that keeps every row at ``ENCODER``.  A
#: candidate keeps only its confident rows, so this budget holds a few
#: frames: fewer than one query's candidate set.
SMALL_BUDGET = 6 * 6 * (64 + 4 + 1) * 8


def cache_config(index_type: str = "ivfpq") -> LOVOConfig:
    return LOVOConfig(
        encoder=ENCODER,
        keyframes=KeyframeConfig(strategy="uniform", uniform_stride=10),
        index=IndexConfig(
            index_type=index_type, num_subspaces=4, num_centroids=16,
            num_coarse_clusters=8, nprobe=3,
        ),
        query=QueryConfig(fast_search_k=128, rerank_n=20, max_candidate_frames=30),
    )


def make_system(
    index_type: str = "ivfpq", cache_bytes: int = DEFAULT_CANDIDATE_CACHE_BYTES
) -> LOVO:
    return LOVO(cache_config(index_type), candidate_cache_bytes=cache_bytes)


def answers(response) -> List[tuple]:
    return [
        (r.frame_id, r.patch_id, r.score, r.box.to_array().tobytes())
        for r in response.results
    ]


def built(system: LOVO, texts) -> int:
    return system.query_batch(texts).metadata["num_built_candidate_frames"]


@pytest.fixture(scope="module")
def dataset():
    return make_bellevue(num_videos=1, frames_per_video=150)


@pytest.fixture(scope="module", params=["flat", "ivfpq"])
def reference(request, dataset):
    """``(index_type, answers per text)`` of a system with the cache off."""
    system = make_system(request.param, cache_bytes=0)
    system.ingest(dataset)
    return request.param, {text: answers(system.query(text)) for text in TEXTS}


class TestWeightedLRU:
    def test_weight_bounds_the_summed_weights(self):
        cache: LRUCache[str, bytes] = LRUCache(10, weigh=len)
        cache.put("a", b"xxxx")
        cache.put("b", b"xxxx")
        assert cache.weight == 8
        cache.put("c", b"xxxx")  # 12 > 10: the oldest entry goes
        assert "a" not in cache and cache.weight == 8
        cache.get("b")
        cache.put("d", b"xxxxxx")  # 14 > 10: "c" is now the oldest
        assert "c" not in cache and "b" in cache and "d" in cache
        assert cache.weight == 10

    def test_refresh_replaces_the_old_weight(self):
        cache: LRUCache[str, bytes] = LRUCache(10, weigh=len)
        cache.put("a", b"xxxx")
        cache.put("a", b"xx")
        assert len(cache) == 1 and cache.weight == 2
        assert cache.pop("a") == b"xx" and cache.weight == 0

    def test_value_heavier_than_the_budget_is_not_stored(self):
        cache: LRUCache[str, bytes] = LRUCache(10, weigh=len)
        cache.put("a", b"xxxx")
        cache.put("a", b"x" * 11)
        assert "a" not in cache and cache.weight == 0

    def test_unweighted_cache_counts_entries(self):
        cache: LRUCache[int, int] = LRUCache(2)
        for key in range(3):
            cache.put(key, key)
        assert cache.weight == len(cache) == 2 and 0 not in cache


class TestBudget:
    def test_candidate_nbytes_counts_arrays_and_ids(self, dataset):
        system = make_system()
        frame = dataset.videos[0].frames[0]
        reranker = CrossModalityReranker(system.summarizer.concept_space)
        candidate = reranker.candidate(
            frame.frame_id, system.summarizer.encode_single_frame(frame)
        )
        arrays = sum(
            array.nbytes
            for array in (candidate.embeddings, candidate.boxes, candidate.objectness)
        )
        rows = len(candidate.patch_ids)
        assert arrays == rows * (ENCODER.embedding_dim + 4 + 1) * 8
        assert candidate.nbytes > arrays + rows * len(candidate.patch_ids[0])

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            LOVO(cache_config(), candidate_cache_bytes=-1)

    def test_budget_is_not_configuration(self, dataset, tmp_path):
        assert "candidate_cache_bytes" not in LOVOConfig().to_dict()["query"]
        saver = make_system(cache_bytes=0)
        saver.ingest(dataset)
        saver.save(tmp_path / "snap")
        # The saver's budget does not travel: a loaded system takes its own.
        default = LOVO.load(tmp_path / "snap")
        assert built(default, TEXTS[:1]) > 0
        assert built(default, TEXTS[:1]) == 0
        off = LOVO.load(tmp_path / "snap", candidate_cache_bytes=0)
        assert built(off, TEXTS[:1]) == built(off, TEXTS[:1]) > 0


class TestAnswersUnchanged:
    @pytest.mark.parametrize(
        "cache_bytes",
        [DEFAULT_CANDIDATE_CACHE_BYTES, 0, SMALL_BUDGET],
        ids=["default", "off", "small"],
    )
    def test_serial_cold_and_warm(self, reference, dataset, cache_bytes):
        index_type, expected = reference
        system = make_system(index_type, cache_bytes)
        system.ingest(dataset)
        for _ in range(2):
            for text in TEXTS:
                assert answers(system.query(text)) == expected[text]

    @pytest.mark.parametrize(
        "cache_bytes",
        [DEFAULT_CANDIDATE_CACHE_BYTES, 0, SMALL_BUDGET],
        ids=["default", "off", "small"],
    )
    def test_batch_cold_and_warm(self, reference, dataset, cache_bytes):
        index_type, expected = reference
        system = make_system(index_type, cache_bytes)
        system.ingest(dataset)
        for _ in range(2):
            batch = system.query_batch(TEXTS + TEXTS[:2])
            for text, response in zip(TEXTS + TEXTS[:2], batch.responses):
                assert answers(response) == expected[text]


class TestBuiltCount:
    def test_repeated_query_builds_nothing(self, dataset):
        system = make_system()
        system.ingest(dataset)
        first = system.query_batch(TEXTS)
        assert first.metadata["num_built_candidate_frames"] == (
            first.metadata["num_unique_candidate_frames"]
        )
        assert built(system, TEXTS) == 0
        assert built(system, TEXTS[:1]) == 0

    def test_cache_off_builds_every_batch(self, dataset):
        system = make_system(cache_bytes=0)
        system.ingest(dataset)
        for _ in range(2):
            batch = system.query_batch(TEXTS)
            assert batch.metadata["num_built_candidate_frames"] == (
                batch.metadata["num_unique_candidate_frames"]
            )

    def test_small_budget_evicts_but_serves_what_it_holds(self, dataset):
        system = make_system(cache_bytes=SMALL_BUDGET)
        system.ingest(dataset)
        first = system.query_batch(TEXTS[:1]).metadata
        frames = first["num_unique_candidate_frames"]
        assert first["num_built_candidate_frames"] == frames
        # The budget holds only the batch's last few frames.  The repeat
        # takes those before its misses evict them, so it rebuilds the rest.
        rebuilt = built(system, TEXTS[:1])
        assert 0 < rebuilt < frames
        assert built(system, TEXTS[:1]) == rebuilt

    def test_span_reports_built_frames(self, dataset):
        system = make_system()
        system.ingest(dataset)
        spans = []
        for _ in range(2):
            trace = Trace()
            with activate([trace]):
                batch = system.query_batch(TEXTS)
            (build,) = [s for s in trace.spans() if s.name == "candidate_build"]
            spans.append((build.attributes, batch.metadata))
        for attributes, metadata in spans:
            assert attributes == {
                "frames": metadata["num_unique_candidate_frames"],
                "built": metadata["num_built_candidate_frames"],
            }
        assert spans[1][0]["built"] == 0

    def test_rerank_disabled_builds_nothing(self, dataset):
        config = cache_config()
        system = LOVO(config.with_overrides(
            query=QueryConfig(fast_search_k=128, rerank_n=20, rerank_enabled=False)
        ))
        system.ingest(dataset)
        assert built(system, TEXTS) == 0


class TestReadOnly:
    def test_writes_to_a_cached_candidate_raise(self, dataset, monkeypatch):
        system = make_system()
        system.ingest(dataset)
        expected = answers(system.query(TEXTS[0]))

        seen = []
        original = CrossModalityReranker.rerank

        def recording(self, parsed, candidates, top_n):
            seen.extend(candidates)
            return original(self, parsed, candidates, top_n=top_n)

        monkeypatch.setattr(CrossModalityReranker, "rerank", recording)
        assert built(system, TEXTS[:1]) == 0
        assert seen
        for candidate in seen:
            for array in (candidate.embeddings, candidate.boxes, candidate.objectness):
                with pytest.raises(ValueError):
                    array[0] = 0.0
                with pytest.raises(ValueError):
                    array += 1.0
        assert answers(system.query(TEXTS[0])) == expected


class TestColdStarts:
    def test_loaded_system_starts_cold_and_answers_as_live(self, dataset, tmp_path):
        live = make_system()
        live.ingest(dataset)
        request = QueryRequest(TEXTS[1], QueryOptions(top_n=1000))
        live.query(request)
        warm = answers(live.query(request))
        live.save(tmp_path / "snap")

        loaded = LOVO.load(tmp_path / "snap")
        batch = loaded.query_batch([request])
        assert batch.metadata["num_built_candidate_frames"] == (
            batch.metadata["num_unique_candidate_frames"]
        )
        assert answers(batch.responses[0]) == warm
        assert answers(loaded.query(request)) == warm

    def test_streamed_segment_builds_only_its_new_frames(self):
        # Flat search with k above every stored patch makes every key frame
        # a candidate, so a query sees exactly the frames ingested so far.
        system = make_system("flat")
        request = QueryRequest(TEXTS[0], QueryOptions(fast_search_k=4096))
        ingestor = StreamingIngestor(system).start()
        try:
            seen = 0
            for seed, make in [(1, make_bellevue), (2, make_cityscapes), (3, make_bellevue)]:
                segment = make(num_videos=1, frames_per_video=40, seed=seed)
                ingestor.submit(segment).result(timeout=120)
                batch = system.query_batch([request])
                assert batch.metadata["num_unique_candidate_frames"] == system.num_keyframes
                assert batch.metadata["num_built_candidate_frames"] == system.num_keyframes - seen
                seen = system.num_keyframes
        finally:
            ingestor.stop()
        assert seen > 0

        offline = make_system("flat", cache_bytes=0)
        for seed, make in [(1, make_bellevue), (2, make_cityscapes), (3, make_bellevue)]:
            offline.ingest(make(num_videos=1, frames_per_video=40, seed=seed))
        assert answers(system.query(request)) == answers(offline.query(request))


class TestConcurrentQueries:
    @pytest.mark.parametrize(
        "cache_bytes", [DEFAULT_CANDIDATE_CACHE_BYTES, SMALL_BUDGET], ids=["default", "small"]
    )
    def test_eight_threads_answer_as_serial(self, reference, dataset, cache_bytes):
        index_type, expected = reference
        system = make_system(index_type, cache_bytes)
        system.ingest(dataset)
        barrier = threading.Barrier(8)
        results: Dict[int, List[Tuple[str, List[tuple]]]] = {}
        errors: List[BaseException] = []

        def worker(index: int) -> None:
            try:
                barrier.wait(timeout=30)
                order = TEXTS[index % len(TEXTS):] + TEXTS[:index % len(TEXTS)]
                results[index] = [(text, answers(system.query(text))) for text in order * 2]
            except BaseException as error:  # surfaced by the assertion below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(results) == 8
        for pairs in results.values():
            for text, got in pairs:
                assert got == expected[text]


def test_candidate_arrays_are_owned_copies(dataset):
    """Read-only flags are set on copies, never on the encoder's own arrays."""
    system = LOVO(cache_config())
    frame = dataset.videos[0].frames[0]
    arrays = system.summarizer.encode_single_frame(frame)
    reranker = CrossModalityReranker(system.summarizer.concept_space)
    candidate = reranker.candidate(frame.frame_id, arrays)
    assert arrays.embeddings.flags.writeable
    assert not candidate.embeddings.flags.writeable
    assert not np.shares_memory(arrays.embeddings, candidate.embeddings)
