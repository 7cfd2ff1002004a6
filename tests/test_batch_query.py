"""End-to-end parity of ``LOVO.query_batch`` with sequential ``query`` calls.

The batched engine must be a pure throughput optimisation: for every query in
the batch — including duplicates — the returned frames, patches, and scores
must match what a sequential ``query()`` call produces, for all three index
families and for both ablation paths (w/o rerank, w/o ANNS).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LOVO, LOVOConfig
from repro.config import EncoderConfig, IndexConfig, KeyframeConfig, QueryConfig
from repro.core.results import BatchQueryResponse
from repro.errors import QueryError
from repro.eval.runner import run_queries
from repro.eval.workloads import queries_for_dataset
from repro.utils.cache import LRUCache

BELLEVUE_TEXTS = [spec.text for spec in queries_for_dataset("bellevue")]


def batch_config(index_type: str = "ivfpq", **query_overrides) -> LOVOConfig:
    defaults = dict(fast_search_k=96, rerank_n=15, max_candidate_frames=20)
    defaults.update(query_overrides)
    return LOVOConfig(
        encoder=EncoderConfig(embedding_dim=64, class_embedding_dim=32, patch_grid=6),
        keyframes=KeyframeConfig(strategy="uniform", uniform_stride=12),
        index=IndexConfig(
            index_type=index_type,
            num_subspaces=4,
            num_centroids=16,
            num_coarse_clusters=8,
            nprobe=3,
        ),
        query=QueryConfig(**defaults),
    )


@pytest.fixture(scope="module")
def bellevue_dataset(bellevue_small):
    """The shared small Bellevue dataset (150 frames, session-scoped)."""
    return bellevue_small


def ingested(dataset, index_type: str = "ivfpq", **query_overrides) -> LOVO:
    system = LOVO(batch_config(index_type, **query_overrides))
    system.ingest(dataset)
    return system


def assert_response_parity(sequential, batched):
    assert [(r.frame_id, r.patch_id) for r in sequential.results] == [
        (r.frame_id, r.patch_id) for r in batched.results
    ]
    np.testing.assert_allclose(
        [r.score for r in sequential.results],
        [r.score for r in batched.results],
        rtol=1e-9,
        atol=1e-12,
    )


@pytest.mark.parametrize("index_type", ["flat", "hnsw", "ivfpq"])
def test_batch_matches_sequential_per_index(bellevue_dataset, index_type):
    system = ingested(bellevue_dataset, index_type)
    texts = BELLEVUE_TEXTS + [BELLEVUE_TEXTS[0], BELLEVUE_TEXTS[2]]  # with duplicates
    sequential = [system.query(text) for text in texts]
    batch = system.query_batch(texts)
    assert isinstance(batch, BatchQueryResponse)
    assert batch.batch_size == len(texts)
    for seq_response, batch_response in zip(sequential, batch):
        assert_response_parity(seq_response, batch_response)


def test_batch_first_then_sequential_agree(bellevue_dataset):
    """Parity holds regardless of which path populates the caches first."""
    system = ingested(bellevue_dataset, "flat")
    batch = system.query_batch(BELLEVUE_TEXTS)
    for text, batch_response in zip(BELLEVUE_TEXTS, batch):
        assert_response_parity(system.query(text), batch_response)


def test_duplicate_queries_answered_once(bellevue_dataset):
    system = ingested(bellevue_dataset, "flat")
    texts = [BELLEVUE_TEXTS[0]] * 6
    batch = system.query_batch(texts)
    assert batch.metadata["num_unique_queries"] == 1
    reference = [(r.frame_id, r.patch_id, r.score) for r in batch[0].results]
    for response in batch:
        assert [(r.frame_id, r.patch_id, r.score) for r in response.results] == reference


def test_without_rerank_ablation_parity(bellevue_dataset):
    system = ingested(bellevue_dataset, "flat", rerank_enabled=False)
    sequential = [system.query(text) for text in BELLEVUE_TEXTS]
    batch = system.query_batch(BELLEVUE_TEXTS)
    assert batch.metadata["rerank_enabled"] is False
    for seq_response, batch_response in zip(sequential, batch):
        assert_response_parity(seq_response, batch_response)


def test_without_anns_ablation_parity(bellevue_dataset):
    system = ingested(bellevue_dataset, "flat", ann_enabled=False)
    sequential = [system.query(text) for text in BELLEVUE_TEXTS[:2]]
    batch = system.query_batch(BELLEVUE_TEXTS[:2])
    for seq_response, batch_response in zip(sequential, batch):
        assert_response_parity(seq_response, batch_response)


def test_empty_batch(bellevue_dataset):
    system = ingested(bellevue_dataset, "flat")
    batch = system.query_batch([])
    assert len(batch) == 0
    assert batch.batch_size == 0


def test_empty_query_string_raises_like_sequential(bellevue_dataset):
    system = ingested(bellevue_dataset, "flat")
    with pytest.raises(QueryError):
        system.query("   ")
    with pytest.raises(QueryError):
        system.query_batch(["a red car", "   "])


def test_query_batch_requires_ingest():
    system = LOVO(batch_config())
    with pytest.raises(QueryError):
        system.query_batch(["a red car"])


def test_batch_timings_amortised(bellevue_dataset):
    system = ingested(bellevue_dataset, "flat")
    batch = system.query_batch(BELLEVUE_TEXTS)
    for phase, total in batch.timings.items():
        per_query = sum(response.timings[phase] for response in batch)
        assert per_query == pytest.approx(total)
    assert batch.search_seconds >= 0.0


def test_run_queries_batch_and_sequential_same_quality(bellevue_dataset):
    system = ingested(bellevue_dataset, "flat")
    specs = queries_for_dataset("bellevue")[:2]
    batched = run_queries(system, "LOVO", bellevue_dataset, specs, batch=True)
    sequential = run_queries(system, "LOVO", bellevue_dataset, specs, batch=False)
    assert [r.average_precision for r in batched] == pytest.approx(
        [r.average_precision for r in sequential]
    )
    assert all(record.supported for record in batched)


def test_run_queries_auto_detects_batch_support(bellevue_dataset, monkeypatch):
    system = ingested(bellevue_dataset, "flat")
    calls = {"batch": 0}
    original = system.query_batch

    def counting_batch(texts):
        calls["batch"] += 1
        return original(texts)

    monkeypatch.setattr(system, "query_batch", counting_batch)
    specs = queries_for_dataset("bellevue")[:2]
    run_queries(system, "LOVO", bellevue_dataset, specs)
    assert calls["batch"] == 1


class TestTextEncoderBatch:
    def test_encode_batch_matches_encode(self, bellevue_dataset):
        system = ingested(bellevue_dataset, "flat")
        encoder = system.text_encoder
        matrix = encoder.encode_batch(BELLEVUE_TEXTS)
        assert matrix.shape == (len(BELLEVUE_TEXTS), encoder.class_embedding_dim)
        for row, text in zip(matrix, BELLEVUE_TEXTS):
            np.testing.assert_allclose(row, encoder.encode(text), rtol=1e-9)
            assert np.linalg.norm(row) == pytest.approx(1.0)

    def test_encode_batch_empty(self, bellevue_dataset):
        system = ingested(bellevue_dataset, "flat")
        assert system.text_encoder.encode_batch([]).shape == (0, 32)

    def test_repeated_strings_hit_cache(self, bellevue_dataset):
        system = ingested(bellevue_dataset, "flat")
        encoder = system.text_encoder
        encoder.encode_batch(["a red car", "a red car", "a white dog"])
        before = encoder.cache_info()
        encoder.encode_batch(["a red car", "a white dog"])
        after = encoder.cache_info()
        assert after["embed_hits"] > before["embed_hits"]
        assert after["embed_misses"] == before["embed_misses"]


class TestLRUCache:
    def test_put_get_and_counters(self):
        cache = LRUCache(maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" becomes least recent
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert len(cache) == 2

    def test_clear(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)
