"""Tests for the Flat, IVF-PQ, and HNSW ANN indexes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import IndexConfig
from repro.errors import DimensionMismatchError, IndexNotBuiltError, VectorDatabaseError
from repro.vectordb.base import exact_scores
from repro.vectordb.flat import FlatIndex
from repro.vectordb.hnsw import HNSWIndex
from repro.vectordb import ivfpq
from repro.vectordb.ivfpq import IVFPQIndex


def unit_vectors(n=400, dim=32, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, dim))
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def recall_against_exact(index, vectors, k=10, num_queries=20) -> float:
    """Fraction of exact top-k neighbours an index recovers."""
    exact = FlatIndex(vectors.shape[1])
    exact.add(list(range(len(vectors))), vectors)
    hits = 0
    for q in range(num_queries):
        query = vectors[q]
        truth = {hit.id for hit in exact.search(query, k)}
        found = {hit.id for hit in index.search(query, k)}
        hits += len(truth & found)
    return hits / (k * num_queries)


class TestFlatIndex:
    def test_exact_top1_is_self(self):
        vectors = unit_vectors()
        index = FlatIndex(32)
        index.add(list(range(len(vectors))), vectors)
        index.build()
        for q in range(5):
            hits = index.search(vectors[q], 1)
            assert hits[0].id == q
            assert hits[0].score == pytest.approx(1.0)

    def test_scores_descending(self):
        vectors = unit_vectors()
        index = FlatIndex(32)
        index.add(list(range(len(vectors))), vectors)
        scores = [hit.score for hit in index.search(vectors[0], 15)]
        assert scores == sorted(scores, reverse=True)

    def test_empty_index_returns_nothing(self):
        index = FlatIndex(8)
        index.build()
        assert index.search(np.ones(8), 5) == []

    def test_mismatched_ids_rejected(self):
        index = FlatIndex(8)
        with pytest.raises(VectorDatabaseError):
            index.add([1, 2], np.ones((3, 8)))

    def test_dimension_checked(self):
        index = FlatIndex(8)
        with pytest.raises(DimensionMismatchError):
            index.add([0], np.ones((1, 4)))
        index.add([0], np.ones((1, 8)))
        with pytest.raises(DimensionMismatchError):
            index.search(np.ones(4), 1)

    def test_ntotal(self):
        index = FlatIndex(8)
        index.add([0, 1], unit_vectors(2, 8))
        assert index.ntotal == 2


class TestIVFPQIndex:
    def config(self) -> IndexConfig:
        return IndexConfig(num_subspaces=4, num_centroids=16, num_coarse_clusters=8, nprobe=4)

    def test_build_requires_vectors(self):
        index = IVFPQIndex(32, self.config())
        with pytest.raises(IndexNotBuiltError):
            index.build()

    def test_dimension_must_divide_subspaces(self):
        with pytest.raises(VectorDatabaseError):
            IVFPQIndex(30, self.config())

    def test_recall_reasonable_on_uniform_vectors(self):
        # Uniform random unit vectors are the worst case for an inverted
        # index (the coarse clusters carry little information); recall just
        # needs to be clearly better than the nprobe/nlist random baseline.
        vectors = unit_vectors()
        index = IVFPQIndex(32, self.config())
        index.add(list(range(len(vectors))), vectors)
        index.build()
        assert recall_against_exact(index, vectors, k=10) > 0.3

    def test_clustered_vectors_retrieve_same_cluster(self):
        # Semantic embeddings (the LOVO case) are strongly clustered.  Within
        # a tight cluster product quantization cannot resolve the exact
        # neighbour order, but nearly everything it returns should come from
        # the query's own cluster — that is the recall LOVO's fast search
        # relies on.
        rng = np.random.default_rng(0)
        centers = rng.normal(size=(8, 32))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        vectors = np.repeat(centers, 50, axis=0) + rng.normal(scale=0.05, size=(400, 32))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        index = IVFPQIndex(32, self.config())
        index.add(list(range(len(vectors))), vectors)
        index.build()
        same_cluster = 0
        total = 0
        for query_id in range(0, 400, 40):
            for hit in index.search(vectors[query_id], 10):
                total += 1
                same_cluster += int(hit.id // 50 == query_id // 50)
        assert same_cluster / total > 0.8

    def test_higher_nprobe_improves_recall(self):
        vectors = unit_vectors(seed=3)
        narrow = IVFPQIndex(32, IndexConfig(num_subspaces=4, num_centroids=16,
                                            num_coarse_clusters=16, nprobe=1))
        wide = IVFPQIndex(32, IndexConfig(num_subspaces=4, num_centroids=16,
                                          num_coarse_clusters=16, nprobe=8))
        for index in (narrow, wide):
            index.add(list(range(len(vectors))), vectors)
            index.build()
        assert recall_against_exact(wide, vectors) >= recall_against_exact(narrow, vectors)

    def test_list_sizes_sum_to_total(self):
        vectors = unit_vectors()
        index = IVFPQIndex(32, self.config())
        index.add(list(range(len(vectors))), vectors)
        index.build()
        _, arrays = index.to_state()
        assert arrays["list_offsets"][-1] == len(vectors)
        assert sorted(arrays["list_ids"].tolist()) == list(range(len(vectors)))

    def test_incremental_insert_after_build(self):
        vectors = unit_vectors()
        index = IVFPQIndex(32, self.config())
        index.add(list(range(300)), vectors[:300])
        index.build()
        index.add(list(range(300, 400)), vectors[300:])
        assert index.ntotal == 400
        hits = index.search(vectors[350], 5)
        assert hits

    @pytest.mark.parametrize("num_clusters", [8, 16])
    def test_append_assignment_matches_centroid_major_scoring(self, num_clusters):
        # Appends score the vectors as the tiled rows against the centroids.
        # The reference is the earlier centroid-major expression; both must
        # pick the same list for every vector at any batch size, tile edges
        # included.
        config = IndexConfig(num_subspaces=4, num_centroids=16,
                             num_coarse_clusters=num_clusters, nprobe=4)
        index = IVFPQIndex(32, config)
        index.add(list(range(300)), unit_vectors(300, seed=5))
        index.build()
        centroids = index._coarse_centroids
        next_id = 300
        for seed, size in enumerate((1, 7, 8, 9, 2047, 2048, 2049)):
            batch = unit_vectors(size, seed=100 + seed)
            reference = exact_scores(centroids, batch)
            np.testing.assert_array_equal(exact_scores(batch, centroids).T, reference)
            ids = list(range(next_id, next_id + size))
            next_id += size
            index.add(ids, batch)
            listed = {
                member: cluster
                for cluster, entry in index._lists.items()
                for member in entry.as_arrays()[0].tolist()
            }
            assert [listed[member] for member in ids] == reference.argmax(axis=0).tolist()

    def test_append_during_a_search_of_restored_lists(self, monkeypatch):
        # A writer scheduled in the middle of a search: the append runs the
        # moment the search first stacks a code matrix.  The search must
        # answer from one point in time, never pairing the ids of one with
        # the codes of another, and restored lists must hold their arrays
        # from the start rather than rebuild them on a read.
        vectors = unit_vectors()
        index = IVFPQIndex(32, self.config())
        index.add(list(range(300)), vectors[:300])
        index.build()
        meta, arrays = index.to_state()
        expected = IVFPQIndex.from_state(32, self.config(), meta, arrays).search(vectors[0], 5)
        restored = IVFPQIndex.from_state(32, self.config(), meta, arrays)

        class AppendOnFirstVstack:
            """``numpy`` as the ivfpq module sees it, with the append hooked in."""

            append = staticmethod(lambda: restored.add([1000], vectors[:1]))

            def __getattr__(self, name):
                return getattr(np, name)

            def vstack(self, *args, **kwargs):
                append, self.append = self.append, None
                if append is not None:
                    append()
                return np.vstack(*args, **kwargs)

        hook = AppendOnFirstVstack()
        monkeypatch.setattr(ivfpq, "np", hook)
        assert restored.search(vectors[0], 5) == expected
        assert hook.append is None
        monkeypatch.undo()
        assert 1000 in [hit.id for hit in restored.search(vectors[0], 5)]

        fresh = IVFPQIndex.from_state(32, self.config(), meta, arrays)
        sizes = [(entry._arrays[0].shape[0], entry._arrays[1].shape[0])
                 for entry in fresh._lists.values()]
        assert sum(size for size, _ in sizes) == 300
        assert all(ids == codes for ids, codes in sizes)

    def test_search_builds_lazily(self):
        vectors = unit_vectors(100)
        index = IVFPQIndex(32, self.config())
        index.add(list(range(100)), vectors)
        hits = index.search(vectors[0], 3)
        assert len(hits) == 3


class TestHNSWIndex:
    def config(self) -> IndexConfig:
        return IndexConfig(hnsw_m=8, hnsw_ef_construction=48, hnsw_ef_search=48)

    def test_recall_close_to_exact(self):
        vectors = unit_vectors(seed=2)
        index = HNSWIndex(32, self.config())
        index.add(list(range(len(vectors))), vectors)
        assert recall_against_exact(index, vectors, k=10) > 0.7

    def test_top1_usually_self(self):
        vectors = unit_vectors(200)
        index = HNSWIndex(32, self.config())
        index.add(list(range(200)), vectors)
        matches = sum(1 for q in range(30) if index.search(vectors[q], 1)[0].id == q)
        assert matches >= 25

    def test_empty_index(self):
        index = HNSWIndex(16, self.config())
        assert index.search(np.ones(16), 3) == []

    def test_degree_statistics_bounded(self):
        vectors = unit_vectors(300)
        config = self.config()
        index = HNSWIndex(32, config)
        index.add(list(range(300)), vectors)
        degrees = [len(neighbours) for neighbours in index._layers[0].values()]
        assert len(degrees) == 300
        assert max(degrees) <= config.hnsw_m * 2

    def test_mismatched_ids_rejected(self):
        index = HNSWIndex(8, self.config())
        with pytest.raises(VectorDatabaseError):
            index.add([1], np.ones((2, 8)))

    def test_external_ids_preserved(self):
        vectors = unit_vectors(50)
        external = [1000 + i for i in range(50)]
        index = HNSWIndex(32, self.config())
        index.add(external, vectors)
        hit = index.search(vectors[7], 1)[0]
        assert hit.id == 1007
