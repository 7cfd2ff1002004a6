"""Batch/sequential parity and edge-case contract of the ANN indexes.

``search`` is a batch of one, so every index must answer
``search_batch(queries, k)`` with exactly the hits a sequential ``search``
loop would produce: a row's hits never depend on the rest of the batch.  All
indexes share one edge-case contract: ``k <= 0`` and an empty index yield
empty results, ``k > ntotal`` returns at most ``ntotal`` hits, and malformed
query shapes raise from every entry point, on empty and populated stores.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import IndexConfig, ShardConfig
from repro.core.storage import LOVOStorage
from repro.errors import DimensionMismatchError
from repro.shard.database import ShardedCollection
from repro.vectordb.base import VectorIndex
from repro.vectordb.collection import VectorCollection
from repro.vectordb.flat import FlatIndex
from repro.vectordb.hnsw import HNSWIndex
from repro.vectordb.ivfpq import IVFPQIndex

DIM = 32


def unit_vectors(n=300, dim=DIM, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, dim))
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def make_index(index_type: str, dim: int = DIM) -> VectorIndex:
    if index_type == "flat":
        return FlatIndex(dim)
    if index_type == "hnsw":
        return HNSWIndex(dim, IndexConfig(hnsw_m=8, hnsw_ef_construction=48, hnsw_ef_search=48))
    return IVFPQIndex(
        dim,
        IndexConfig(num_subspaces=4, num_centroids=16, num_coarse_clusters=8, nprobe=4),
    )


def populated_index(index_type: str, vectors: np.ndarray) -> VectorIndex:
    index = make_index(index_type, vectors.shape[1])
    index.add(list(range(len(vectors))), vectors)
    index.build()
    return index


def assert_hits_match(sequential, batched):
    assert [hit.id for hit in sequential] == [hit.id for hit in batched]
    np.testing.assert_allclose(
        [hit.score for hit in sequential],
        [hit.score for hit in batched],
        rtol=1e-9,
        atol=1e-12,
    )


INDEX_TYPES = ["flat", "hnsw", "ivfpq"]


@pytest.mark.parametrize("index_type", INDEX_TYPES)
class TestBatchSequentialParity:
    def test_batch_matches_sequential(self, index_type):
        vectors = unit_vectors()
        index = populated_index(index_type, vectors)
        queries = unit_vectors(16, seed=5)
        batched = index.search_batch(queries, 10)
        assert len(batched) == 16
        for row, hits in zip(queries, batched):
            assert_hits_match(index.search(row, 10), hits)

    def test_duplicate_query_rows_agree(self, index_type):
        vectors = unit_vectors()
        index = populated_index(index_type, vectors)
        query = vectors[3]
        batched = index.search_batch(np.stack([query, query, query]), 5)
        first = [(hit.id, hit.score) for hit in batched[0]]
        for hits in batched[1:]:
            assert [(hit.id, hit.score) for hit in hits] == first

    def test_single_vector_accepted_as_batch_of_one(self, index_type):
        vectors = unit_vectors()
        index = populated_index(index_type, vectors)
        batched = index.search_batch(vectors[0], 5)
        assert len(batched) == 1
        assert_hits_match(index.search(vectors[0], 5), batched[0])


@pytest.mark.parametrize("index_type", INDEX_TYPES)
class TestEdgeCaseContract:
    def test_k_zero_and_negative(self, index_type):
        vectors = unit_vectors(50)
        index = populated_index(index_type, vectors)
        queries = unit_vectors(3, seed=1)
        for k in (0, -2):
            assert index.search(queries[0], k) == []
            assert index.search_batch(queries, k) == [[], [], []]

    def test_empty_index(self, index_type):
        index = make_index(index_type)
        queries = unit_vectors(2, seed=2)
        assert index.search(queries[0], 5) == []
        assert index.search_batch(queries, 5) == [[], []]

    def test_k_exceeding_ntotal_capped(self, index_type):
        vectors = unit_vectors(20)
        index = populated_index(index_type, vectors)
        hits = index.search(vectors[0], 500)
        assert 0 < len(hits) <= 20
        for row_hits in index.search_batch(vectors[:3], 500):
            assert 0 < len(row_hits) <= 20

    def test_bad_query_shape_rejected(self, index_type):
        vectors = unit_vectors(30)
        index = populated_index(index_type, vectors)
        with pytest.raises(DimensionMismatchError):
            index.search_batch(np.ones((2, DIM + 1)), 3)


def make_store(kind: str, populated: bool):
    """An index, collection, sharded collection, or storage over DIM-d vectors."""
    if kind in INDEX_TYPES:
        store = make_index(kind)
        if populated:
            store.add(list(range(60)), unit_vectors(60))
            store.build()
        return store
    config = IndexConfig(index_type="flat")
    if kind == "collection":
        store = VectorCollection("c", DIM, config)
    elif kind == "sharded":
        store = ShardedCollection("c", DIM, config, ShardConfig(num_shards=2))
    else:
        store = LOVOStorage(DIM, config)
    if populated:
        ids = [f"p{i}" for i in range(60)]
        if kind == "storage":
            # Rows first, as LOVOStorage.ingest writes them: hits join to them.
            store.metadata.add_patches(
                ids,
                [f"f{i // 6}" for i in range(60)],
                ["v0"] * 60,
                [i % 6 for i in range(60)],
                np.tile([0.0, 0.0, 1.0, 1.0], (60, 1)),
                np.full(60, 0.5),
            )
            store.collection.insert(ids, unit_vectors(60))
        else:
            store.insert(ids, unit_vectors(60))
    return store


def search_entry_points(store):
    """Every (name, single, batch) search pair a store exposes."""
    pairs = [("search", store.search, store.search_batch)]
    if isinstance(store, LOVOStorage):
        pairs.append((
            "exhaustive",
            lambda query, k: store.search(query, k, use_ann=False),
            lambda queries, k: store.search_batch(queries, k, use_ann=False),
        ))
    elif hasattr(store, "search_exhaustive"):
        pairs.append(("exhaustive", store.search_exhaustive, store.search_exhaustive_batch))
    return pairs


class TestMalformedQueryParity:
    """A wrong-dimension query raises alike from ``search`` and ``search_batch``."""

    @pytest.mark.parametrize("populated", [False, True], ids=["empty", "populated"])
    @pytest.mark.parametrize(
        "kind", [*INDEX_TYPES, "collection", "sharded", "storage"]
    )
    def test_wrong_dimension_raises_everywhere(self, kind, populated):
        store = make_store(kind, populated)
        bad = np.ones(DIM + 1) / np.sqrt(DIM + 1)
        for name, single, batch in search_entry_points(store):
            for k in (5, 0):
                with pytest.raises(DimensionMismatchError):
                    single(bad, k)
                with pytest.raises(DimensionMismatchError):
                    batch(bad[None, :], k)
                with pytest.raises(DimensionMismatchError):
                    batch(np.stack([bad, bad]), k)
            # A well-formed query still answers from both, identically.
            good = unit_vectors(1, seed=5)[0]
            assert single(good, 5) == batch(good[None, :], 5)[0], name


class TestFlatBatchProperty:
    """Property-style check: parity holds for arbitrary shapes and k."""

    @settings(max_examples=25, deadline=None)
    @given(
        num_vectors=st.integers(min_value=1, max_value=80),
        num_queries=st.integers(min_value=1, max_value=12),
        k=st.integers(min_value=-2, max_value=100),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_parity(self, num_vectors, num_queries, k, seed):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(num_vectors, 8))
        vectors /= np.maximum(np.linalg.norm(vectors, axis=1, keepdims=True), 1e-12)
        queries = rng.normal(size=(num_queries, 8))
        index = FlatIndex(8)
        index.add(list(range(num_vectors)), vectors)
        index.build()
        batched = index.search_batch(queries, k)
        assert len(batched) == num_queries
        for row, hits in zip(queries, batched):
            assert_hits_match(index.search(row, k), hits)


class TestCollectionBatch:
    def test_collection_search_batch_parity(self):
        vectors = unit_vectors(120)
        collection = VectorCollection("c", DIM, IndexConfig(index_type="flat"))
        collection.insert([f"p{i}" for i in range(120)], vectors)
        queries = unit_vectors(5, seed=4)
        batched = collection.search_batch(queries, 6)
        assert len(batched) == 5
        for row, hits in zip(queries, batched):
            sequential = collection.search(row, 6)
            assert [hit.id for hit in sequential] == [hit.id for hit in hits]
            np.testing.assert_allclose(
                [hit.score for hit in sequential],
                [hit.score for hit in hits],
                rtol=1e-9,
            )

    def test_storage_search_batch_parity_and_metadata(self):
        storage = make_store("storage", populated=True)
        queries = unit_vectors(5, seed=4)
        for use_ann in (True, False):
            batched = storage.search_batch(queries, 6, use_ann=use_ann)
            assert len(batched) == 5
            for row, hits in zip(queries, batched):
                assert storage.search(row, 6, use_ann=use_ann) == hits
                assert all(hit.metadata for hit in hits)
                for hit in hits:
                    index = int(hit.id[1:])
                    assert hit.metadata == {"frame_id": f"f{index // 6}", "video_id": "v0"}

    def test_collection_exhaustive_batch_parity(self):
        vectors = unit_vectors(90)
        collection = VectorCollection("c", DIM, IndexConfig())
        collection.insert([f"p{i}" for i in range(90)], vectors)
        queries = unit_vectors(4, seed=6)
        batched = collection.search_exhaustive_batch(queries, 8)
        for row, hits in zip(queries, batched):
            sequential = collection.search_exhaustive(row, 8)
            assert [h.id for h in sequential] == [h.id for h in hits]
            np.testing.assert_allclose(
                [h.score for h in sequential], [h.score for h in hits], rtol=1e-9
            )

    def test_collection_batch_edge_cases(self):
        collection = VectorCollection("c", DIM, IndexConfig(index_type="flat"))
        queries = unit_vectors(3, seed=7)
        assert collection.search_batch(queries, 5) == [[], [], []]
        collection.insert(["a"], unit_vectors(1))
        assert collection.search_batch(queries, 0) == [[], [], []]
        assert collection.search_exhaustive_batch(queries, -1) == [[], [], []]
