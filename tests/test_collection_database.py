"""Tests for the vector collection and the metadata store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import IndexConfig, ShardConfig
from repro.errors import MetadataError, VectorDatabaseError
from repro.shard.database import ShardedCollection
from repro.utils.geometry import BoundingBox
from repro.vectordb.collection import VectorCollection
from repro.vectordb.metadata import FrameRecord, MetadataStore, PatchRecord
from tests.conftest import add_patch_records


def unit_vectors(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, dim))
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


class TestVectorCollection:
    def make(self, index_type="flat") -> VectorCollection:
        config = IndexConfig(index_type=index_type, num_subspaces=4, num_centroids=8,
                             num_coarse_clusters=4, nprobe=2)
        return VectorCollection("patches", dim=16, config=config)

    def test_insert_and_search(self):
        collection = self.make()
        vectors = unit_vectors(20, 16)
        collection.insert([f"p{i}" for i in range(20)], vectors)
        hits = collection.search(vectors[3], 5)
        assert hits[0].id == "p3"
        # A collection stores ids and vectors only; LOVOStorage joins the rest.
        assert all(hit.metadata == {} for hit in hits)

    def test_duplicate_ids_rejected(self):
        collection = self.make()
        collection.insert(["a"], unit_vectors(1, 16))
        with pytest.raises(VectorDatabaseError):
            collection.insert(["a"], unit_vectors(1, 16))

    def test_dimension_mismatch_rejected(self):
        collection = self.make()
        with pytest.raises(VectorDatabaseError):
            collection.insert(["a"], unit_vectors(1, 8))

    def test_id_count_checked(self):
        collection = self.make()
        with pytest.raises(VectorDatabaseError, match="Got 2 ids for 3 vectors"):
            collection.insert(["a", "b"], unit_vectors(3, 16))
        assert collection.num_entities == 0

    def test_empty_collection_search(self):
        assert self.make().search(np.ones(16), 3) == []

    def test_exhaustive_search_matches_flat(self):
        collection = self.make(index_type="ivfpq")
        vectors = unit_vectors(64, 16)
        collection.insert([f"p{i}" for i in range(64)], vectors)
        exhaustive = collection.search_exhaustive(vectors[5], 1)
        assert exhaustive[0].id == "p5"

    def test_get_vector(self):
        collection = self.make()
        vectors = unit_vectors(3, 16)
        collection.insert(["a", "b", "c"], vectors)
        np.testing.assert_allclose(collection.get_vector("b"), vectors[1])
        with pytest.raises(VectorDatabaseError):
            collection.get_vector("missing")

    def test_ids_and_counts(self):
        collection = self.make()
        collection.insert(["a", "b"], unit_vectors(2, 16))
        assert collection.ids() == ["a", "b"]
        assert collection.num_entities == 2
        assert collection.storage_bytes() == 2 * 16 * 4  # float32 rows

    def test_invalid_construction(self):
        with pytest.raises(VectorDatabaseError):
            VectorCollection("", dim=8)
        with pytest.raises(VectorDatabaseError):
            VectorCollection("x", dim=0)

    @pytest.mark.parametrize("index_type", ["flat", "ivfpq", "hnsw"])
    def test_all_index_types_work(self, index_type):
        collection = self.make(index_type=index_type)
        vectors = unit_vectors(80, 16, seed=2)
        collection.insert([f"p{i}" for i in range(80)], vectors)
        collection.flush()
        hits = collection.search(vectors[10], 5)
        assert len(hits) == 5
        assert any(hit.id == "p10" for hit in hits)


class TestRejectedInsert:
    """A rejected insert leaves the collection exactly as it was."""

    @staticmethod
    def make(index_type, num_shards):
        config = IndexConfig(index_type=index_type, num_subspaces=4, num_centroids=8,
                             num_coarse_clusters=4, nprobe=4)
        if num_shards == 1:
            return VectorCollection("c", 16, config)
        return ShardedCollection("c", 16, config, ShardConfig(num_shards=num_shards))

    @staticmethod
    def snapshot(collection, query):
        return (
            collection.num_entities,
            [(hit.id, hit.score) for hit in collection.search(query, 10)],
            [(hit.id, hit.score) for hit in collection.search_exhaustive(query, 10)],
        )

    @pytest.mark.parametrize("num_shards", [1, 3])
    @pytest.mark.parametrize("index_type", ["flat", "ivfpq", "hnsw"])
    def test_duplicate_in_batch_changes_nothing(self, index_type, num_shards):
        collection = self.make(index_type, num_shards)
        vectors = unit_vectors(42, 16, seed=3)
        collection.insert([f"p{i}" for i in range(40)] + ["a"], vectors[:41])
        b_vector = vectors[41]
        before = self.snapshot(collection, b_vector)

        with pytest.raises(VectorDatabaseError, match="Duplicate id 'a'"):
            collection.insert(["b", "a"], np.stack([b_vector, vectors[40]]))
        with pytest.raises(VectorDatabaseError, match="Duplicate id 'b'"):
            collection.insert(["b", "b"], np.stack([b_vector, b_vector]))

        assert self.snapshot(collection, b_vector) == before
        assert "b" not in collection.ids()

        collection.insert(["b"], b_vector[None, :])
        assert collection.num_entities == before[0] + 1
        assert collection.search_exhaustive(b_vector, 1)[0].id == "b"
        assert "b" in [hit.id for hit in collection.search(b_vector, 5)]


class TestMetadataStore:
    def patch(self, patch_id="f0/p0", frame_id="f0") -> PatchRecord:
        return PatchRecord(
            patch_id=patch_id,
            frame_id=frame_id,
            video_id="v0",
            patch_index=0,
            box=BoundingBox(0.1, 0.2, 0.3, 0.4),
            objectness=0.5,
        )

    def test_round_trip_patch(self):
        store = MetadataStore()
        add_patch_records(store, [self.patch()])
        record = store.get_patch("f0/p0")
        assert record.frame_id == "f0"
        assert record.box.w == pytest.approx(0.3)

    def test_missing_patch_raises(self):
        with pytest.raises(MetadataError):
            MetadataStore().get_patch("nope")

    def test_frames_round_trip(self):
        store = MetadataStore()
        store.add_frames([FrameRecord("f0", "v0", 0, 0.0), FrameRecord("f1", "v0", 1, 0.033)])
        assert store.count_frames() == 2
        assert store.get_frame("f1").frame_index == 1
        assert store.get_frame("missing") is None
        assert [record.frame_id for record in store.list_frames()] == ["f0", "f1"]

    def test_counts(self):
        store = MetadataStore()
        add_patch_records(store, [self.patch(), self.patch("f0/p1")])
        assert store.count_patches() == 2

    def test_patch_frames_one_lookup_returns_every_row(self):
        store = MetadataStore()
        add_patch_records(store, [self.patch(f"p{i}", frame_id=f"f{i % 2}") for i in range(2000)])
        requested = [f"p{i}" for i in reversed(range(2000))] + ["p7"]
        found = store.patch_frames(requested)
        assert found == {f"p{i}": (f"f{i % 2}", "v0") for i in range(2000)}
        assert all(type(frame) is str and type(video) is str for frame, video in found.values())
        assert store.patch_frames([]) == {}

    def test_patch_frames_missing_row_raises(self):
        store = MetadataStore()
        add_patch_records(store, [self.patch("a")])
        with pytest.raises(MetadataError, match="'b'"):
            store.patch_frames(["a", "b", "a"])

