"""The corpus is stored once, in float32.

Every vector is rounded to float32 where it enters the store (the sharded
collection's insert, before the partitioner reads it), each collection keeps
one contiguous float32 matrix, and every artifact that carries vectors writes
float32.  Scoring stays float64 arithmetic on the exact upcast, so these tests
pin that nothing else moved: stored rows are exactly the rounded inputs,
``exact_scores`` on a float32 matrix equals it on the upcast bit for bit, and
the live system, a save -> load and a delta replay give bit-identical hits
and rows for every index family, unsharded and sharded.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LOVO, LOVOConfig
from repro.config import EncoderConfig, IndexConfig, KeyframeConfig, QueryConfig, ShardConfig
from repro.persist import DeltaSnapshotStore
from repro.shard.database import ShardedCollection
from repro.utils.serialization import load_arrays
from repro.vectordb.base import exact_scores
from repro.vectordb.collection import VectorCollection
from repro.video.datasets import make_bellevue, make_cityscapes

DIM = 16
FAMILIES = ("flat", "ivfpq", "hnsw")

#: npz arrays that carry stored vectors (entities, flat and HNSW raw
#: vectors, delta class embeddings; schema-3 deltas store no patch
#: ``embeddings``).  IVF-PQ centroids and codebooks are trained parameters,
#: not stored vectors, and stay float64.
VECTOR_MEMBERS = {"vectors", "matrix", "class_embeddings"}


def index_config(index_type: str) -> IndexConfig:
    # ef_search covers every test collection, so HNSW is exact and sharded
    # HNSW answers equal unsharded ones.
    return IndexConfig(
        index_type=index_type,
        num_subspaces=4,
        num_centroids=8,
        num_coarse_clusters=4,
        nprobe=4,
        hnsw_ef_search=256,
    )


def unit_rows(rng: np.random.Generator, count: int, dim: int = DIM) -> np.ndarray:
    rows = rng.normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def bits(array: np.ndarray) -> np.ndarray:
    """The raw bit patterns of a float64 array (tells -0.0 from 0.0)."""
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def hit_tuples(hit_lists) -> List[List[tuple]]:
    return [[(hit.id, hit.score) for hit in hits] for hits in hit_lists]


def vector_members(root: Path) -> Dict[str, np.dtype]:
    """Every vector-carrying npz array under ``root`` with its dtype."""
    found = {}
    for path in sorted(root.rglob("*.npz")):
        for name, array in load_arrays(path).items():
            if name in VECTOR_MEMBERS:
                found[f"{path.relative_to(root)}:{name}"] = array.dtype
    return found


class TestExactScoresOnFloat32:
    @pytest.mark.parametrize("rows", [0, 1, 7, 2047, 2048, 2049, 4100])
    @pytest.mark.parametrize("queries", [1, 8, 9])
    def test_equals_the_float64_upcast_bitwise(self, rows, queries):
        rng = np.random.default_rng(rows * 31 + queries)
        matrix = unit_rows(rng, rows).astype(np.float32)
        batch = unit_rows(rng, queries)
        scored = exact_scores(matrix, batch)
        assert scored.dtype == np.float64
        np.testing.assert_array_equal(bits(scored), bits(exact_scores(matrix.astype(np.float64), batch)))

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(min_value=0, max_value=300),
        queries=st.integers(min_value=0, max_value=20),
        dim=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property(self, rows, queries, dim, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(rows, dim)).astype(np.float32)
        batch = rng.normal(size=(queries, dim))
        np.testing.assert_array_equal(
            bits(exact_scores(matrix, batch)), bits(exact_scores(matrix.astype(np.float64), batch))
        )


class TestCollectionStoresFloat32:
    @settings(max_examples=12, deadline=None)
    @given(
        index_type=st.sampled_from(FAMILIES),
        partitioner=st.sampled_from(["hash", "kmeans"]),
        batches=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_rows_hits_and_snapshots(self, tmp_path_factory, index_type, partitioner, batches, seed):
        rng = np.random.default_rng(seed)
        inputs = unit_rows(rng, 40 + sum(batches))
        # The first batch is big enough to train IVF-PQ; the rest are appends.
        sizes = [40, *batches]
        ids = [f"v{i:04d}" for i in range(inputs.shape[0])]
        queries = unit_rows(rng, 5)
        stores = {}
        for num_shards in (1, 3):
            store = ShardedCollection(
                "c",
                DIM,
                index_config(index_type),
                ShardConfig(num_shards=num_shards, partitioner=partitioner),
            )
            start = 0
            for size in sizes:
                store.insert(ids[start : start + size], inputs[start : start + size])
                store.flush()
                start += size
            stores[num_shards] = store

            rounded = inputs.astype(np.float32)
            for position, external_id in enumerate(ids):
                row = store.get_vector(external_id)
                assert row.dtype == np.float32
                assert np.array_equal(row, rounded[position])
            assert store.storage_bytes() == inputs.shape[0] * DIM * 4

            root = tmp_path_factory.mktemp(f"{index_type}-{num_shards}")
            store.save(root)
            members = vector_members(root)
            assert members and all(dtype == np.float32 for dtype in members.values()), members
            loaded = ShardedCollection.load(root, "c")
            assert hit_tuples(loaded.search_batch(queries, 10)) == hit_tuples(
                store.search_batch(queries, 10)
            )
            assert hit_tuples(loaded.search_exhaustive_batch(queries, 10)) == hit_tuples(
                store.search_exhaustive_batch(queries, 10)
            )
            for external_id in ids:
                assert np.array_equal(loaded.get_vector(external_id), store.get_vector(external_id))

        # Rounding before the partitioner leaves sharded = unsharded intact.
        assert hit_tuples(stores[3].search_batch(queries, 10)) == hit_tuples(
            stores[1].search_batch(queries, 10)
        )
        assert hit_tuples(stores[3].search_exhaustive_batch(queries, 10)) == hit_tuples(
            stores[1].search_exhaustive_batch(queries, 10)
        )


class TestConcurrentGrowth:
    def test_readers_never_see_a_torn_row(self):
        """Inserts that grow the matrix race lock-free readers: every id a
        reader can see resolves to its own rounded row, every row it can
        score has an id, and every score is that row's exact score."""
        rng = np.random.default_rng(11)
        inputs = unit_rows(rng, 7 * 80)
        rounded = inputs.astype(np.float32)
        queries = unit_rows(rng, 3)
        collection = VectorCollection("c", DIM, IndexConfig(index_type="flat"))
        collection.insert([f"v{i}" for i in range(7)], inputs[:7])
        errors: List[BaseException] = []
        stop = threading.Event()

        def read_loop() -> None:
            try:
                while not stop.is_set():
                    rows = collection.rows()
                    ids = collection.ids()
                    assert len(ids) >= rows.shape[0]
                    for external_id in (ids[0], ids[len(ids) // 2], ids[-1]):
                        row = collection.get_vector(external_id)
                        assert np.array_equal(row, rounded[int(external_id[1:])])
                    hit_lists = collection.search_exhaustive_batch(queries, 5)
                    for column, hits in enumerate(hit_lists):
                        for hit in hits:
                            row = rounded[int(hit.id[1:])][None, :]
                            assert hit.score == exact_scores(row, queries)[0, column]
            except BaseException as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        readers = [threading.Thread(target=read_loop) for _ in range(4)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in readers:
                thread.start()
            for start in range(7, inputs.shape[0], 7):
                collection.insert(
                    [f"v{i}" for i in range(start, start + 7)], inputs[start : start + 7]
                )
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in readers)
        assert not errors, errors[0]
        assert np.array_equal(collection.rows(), rounded)


def system_config(index_type: str, num_shards: int) -> LOVOConfig:
    return LOVOConfig(
        encoder=EncoderConfig(embedding_dim=32, class_embedding_dim=DIM, patch_grid=4),
        keyframes=KeyframeConfig(strategy="uniform", uniform_stride=10),
        index=index_config(index_type),
        query=QueryConfig(fast_search_k=32, rerank_n=8, max_candidate_frames=8),
        shard=ShardConfig(num_shards=num_shards),
    )


@pytest.mark.parametrize("num_shards", [1, 3])
@pytest.mark.parametrize("index_type", FAMILIES)
class TestLiveSnapshotReplayParity:
    def test_bit_identical_rows_and_hits(self, tmp_path, index_type, num_shards):
        live = LOVO(system_config(index_type, num_shards))
        base = live.ingest(make_bellevue(num_videos=1, frames_per_video=40, seed=3))
        store = DeltaSnapshotStore(tmp_path / "store")
        store.initialize(live)
        segment = make_cityscapes(num_videos=1, frames_per_video=30, seed=4)
        appended = live.summarizer.summarize(segment)
        store.append(segment.name, appended)
        live.ingest_summary(segment.name, appended)
        live.save(tmp_path / "snapshot")

        inputs = {
            encoding.patch_id: encoding.class_embedding
            for encoding in [*base.encodings, *appended.encodings]
        }
        collection = live.storage.collection
        assert sorted(collection.ids()) == sorted(inputs)
        for external_id, vector in inputs.items():
            assert np.array_equal(collection.get_vector(external_id), vector.astype(np.float32))

        for root in (tmp_path / "snapshot", tmp_path / "store"):
            members = vector_members(root)
            assert members and all(dtype == np.float32 for dtype in members.values()), members

        queries = unit_rows(np.random.default_rng(5), 4)
        text = "A red car driving in the center of the road"
        expected_hits = hit_tuples(live.storage.search_batch(queries, 12))
        expected_exhaustive = hit_tuples(live.storage.search_batch(queries, 12, use_ann=False))
        expected_answer = [
            (r.frame_id, r.patch_id, r.box, r.score) for r in live.query(text).results
        ]
        for restored in (LOVO.load(tmp_path / "snapshot"), store.load_system()):
            assert hit_tuples(restored.storage.search_batch(queries, 12)) == expected_hits
            assert (
                hit_tuples(restored.storage.search_batch(queries, 12, use_ann=False))
                == expected_exhaustive
            )
            stored = restored.storage.collection
            assert stored.ids() == collection.ids()
            for external_id in inputs:
                assert np.array_equal(
                    stored.get_vector(external_id), collection.get_vector(external_id)
                )
            answer = [(r.frame_id, r.patch_id, r.box, r.score) for r in restored.query(text).results]
            assert answer == expected_answer
