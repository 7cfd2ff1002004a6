"""Tests for the sharded scatter-gather vector database (:mod:`repro.shard`).

The headline guarantee is **bit-exact parity**: a sharded database answers
every search with exactly the hits, scores, and ordering of a single
unsharded :class:`~repro.vectordb.collection.VectorCollection` over the same
inserts — across all three index families, for single and batched queries,
through save/load, and while replicas are failing over mid-run.
"""

from __future__ import annotations

import json
import threading
import time
from typing import List

import numpy as np
import pytest

from repro.config import IndexConfig, LOVOConfig, ShardConfig
from repro.errors import (
    ConfigurationError,
    DimensionMismatchError,
    ShardError,
    ShardUnavailableError,
    SnapshotCorruptionError,
    VectorDatabaseError,
)
from repro.shard import (
    HashPartitioner,
    KMeansPartitioner,
    ReplicaGroup,
    ShardRouter,
    ShardedCollection,
    make_partitioner,
    merge_top_k,
    merge_top_k_batches,
    stable_shard_hash,
)
from repro.vectordb.collection import SearchHit, VectorCollection

DIM = 32
NUM_VECTORS = 600
NUM_QUERIES = 7
TOP_K = 10

# HNSW graph search is exact once ef_search covers the whole shard; parity
# tests pin that regime (the guarantee documented for the sharded backend).
INDEX_CONFIGS = {
    "flat": IndexConfig(index_type="flat"),
    "hnsw": IndexConfig(index_type="hnsw", hnsw_ef_search=2 * NUM_VECTORS),
    "ivfpq": IndexConfig(index_type="ivfpq"),
}


def make_data(seed: int = 7, count: int = NUM_VECTORS):
    rng = np.random.default_rng(seed)
    ids = [f"vec-{i:05d}" for i in range(count)]
    vectors = rng.normal(size=(count, DIM))
    queries = rng.normal(size=(NUM_QUERIES, DIM))
    return ids, vectors, queries


def hit_key(hits: List[SearchHit]) -> List[tuple]:
    """Bit-exact identity of a ranked hit list."""
    return [(hit.id, hit.score) for hit in hits]


def build_pair(index_config: IndexConfig, shard_config: ShardConfig, seed: int = 7):
    """The same inserts into an unsharded and a sharded collection."""
    ids, vectors, queries = make_data(seed)
    plain = VectorCollection("c", DIM, index_config)
    plain.insert(ids, vectors)
    sharded = ShardedCollection("c", DIM, index_config, shard_config)
    sharded.insert(ids, vectors)
    return plain, sharded, queries


class TestPartitioners:
    def test_stable_hash_is_deterministic_and_in_range(self):
        for num_shards in (1, 2, 4, 7):
            for i in range(100):
                shard = stable_shard_hash(f"id-{i}", num_shards)
                assert 0 <= shard < num_shards
                assert shard == stable_shard_hash(f"id-{i}", num_shards)

    def test_hash_partitioner_spreads_load(self):
        partitioner = HashPartitioner(4)
        ids = [f"vec-{i}" for i in range(1000)]
        assignments = partitioner.assign(ids, np.zeros((1000, DIM)))
        counts = np.bincount(assignments, minlength=4)
        assert counts.min() > 100  # no shard starves under a uniform id stream

    def test_kmeans_partitioner_groups_nearby_vectors(self):
        rng = np.random.default_rng(3)
        centers = np.array([[10.0] * DIM, [-10.0] * DIM])
        vectors = np.vstack([
            centers[0] + rng.normal(scale=0.1, size=(50, DIM)),
            centers[1] + rng.normal(scale=0.1, size=(50, DIM)),
        ])
        partitioner = KMeansPartitioner(num_shards=2, seed=1, iterations=8)
        assignments = partitioner.assign([f"v{i}" for i in range(100)], vectors)
        # Each cluster must land wholly on one shard.
        assert len(set(assignments[:50].tolist())) == 1
        assert len(set(assignments[50:].tolist())) == 1
        assert assignments[0] != assignments[-1]

    def test_partitioner_state_round_trip(self):
        config = ShardConfig(num_shards=3, partitioner="kmeans")
        partitioner = make_partitioner(config)
        ids, vectors, _ = make_data(seed=5, count=200)
        before = partitioner.assign(ids, vectors)
        meta, arrays = partitioner.to_state()
        restored = type(partitioner).from_state(config, meta, arrays)
        after = restored.assign(ids, vectors)
        assert np.array_equal(before, after)

    def test_unknown_partitioner_state_is_corruption(self):
        from repro.shard.partition import Partitioner

        with pytest.raises(SnapshotCorruptionError):
            Partitioner.from_state(ShardConfig(), {"kind": "nope"}, {})

    def test_unknown_partitioner_name_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardConfig(partitioner="alphabetical")


class TestMerge:
    def test_merge_is_exact_against_global_sort(self):
        rng = np.random.default_rng(11)
        hits = [
            SearchHit(id=f"h{i}", score=float(score))
            for i, score in enumerate(rng.normal(size=60))
        ]
        shards = [sorted(hits[i::3], key=lambda h: -h.score)[:TOP_K] for i in range(3)]
        merged = merge_top_k(shards, TOP_K)
        expected = sorted(hits, key=lambda h: -h.score)[:TOP_K]
        assert hit_key(merged) == hit_key(expected)

    def test_tie_rank_orders_equal_scores(self):
        rank = {"b": 1, "a": 0}
        shards = [[SearchHit(id="b", score=1.0)], [SearchHit(id="a", score=1.0)]]
        merged = merge_top_k(shards, 2, tie_rank=lambda hit: rank[hit.id])
        assert [hit.id for hit in merged] == ["a", "b"]

    def test_single_list_keeps_its_tie_order(self):
        # One shard's index already ranked its ties like a lone database;
        # the merge must not re-rank them by tie_rank.
        rank = {"a": 0, "b": 1}
        hits = [SearchHit(id="b", score=1.0), SearchHit(id="a", score=1.0)]
        merged = merge_top_k([hits], 2, tie_rank=lambda hit: rank[hit.id])
        assert [hit.id for hit in merged] == ["b", "a"]

    def test_batch_merge_rejects_misaligned_shards(self):
        with pytest.raises(ShardError):
            merge_top_k_batches([[[]], [[], []]], 3)


@pytest.mark.parametrize("index_kind", sorted(INDEX_CONFIGS))
@pytest.mark.parametrize(
    "partitioner, num_shards",
    [("hash", 3), ("kmeans", 3), ("hash", 1), ("kmeans", 1)],
    ids=["hash", "kmeans", "hash-1shard", "kmeans-1shard"],
)
class TestScatterGatherParity:
    """Sharded results must be bit-identical to the single database, at 3
    shards and at the 1 shard every unsharded system runs on."""

    def test_search_and_batch_parity(self, index_kind, partitioner, num_shards):
        shard_config = ShardConfig(num_shards=num_shards, partitioner=partitioner)
        plain, sharded, queries = build_pair(INDEX_CONFIGS[index_kind], shard_config)
        for query in queries:
            assert hit_key(sharded.search(query, TOP_K)) == hit_key(
                plain.search(query, TOP_K)
            )
        sharded_rows = sharded.search_batch(queries, TOP_K)
        plain_rows = plain.search_batch(queries, TOP_K)
        assert [hit_key(row) for row in sharded_rows] == [
            hit_key(row) for row in plain_rows
        ]

    def test_exhaustive_parity(self, index_kind, partitioner, num_shards):
        shard_config = ShardConfig(num_shards=num_shards, partitioner=partitioner)
        plain, sharded, queries = build_pair(INDEX_CONFIGS[index_kind], shard_config)
        sharded_rows = sharded.search_exhaustive_batch(
            queries, TOP_K
        )
        plain_rows = plain.search_exhaustive_batch(queries, TOP_K)
        assert [hit_key(row) for row in sharded_rows] == [
            hit_key(row) for row in plain_rows
        ]

    def test_parity_survives_incremental_insert(self, index_kind, partitioner, num_shards):
        shard_config = ShardConfig(num_shards=num_shards, partitioner=partitioner)
        plain, sharded, queries = build_pair(INDEX_CONFIGS[index_kind], shard_config)
        # Force both builds, then grow both sides identically.
        plain.search(queries[0], TOP_K)
        sharded.search(queries[0], TOP_K)
        rng = np.random.default_rng(23)
        extra_ids = [f"extra-{i}" for i in range(40)]
        extra = rng.normal(size=(40, DIM))
        plain.insert(extra_ids, extra)
        sharded.insert(extra_ids, extra)
        for query in queries:
            assert hit_key(sharded.search(query, TOP_K)) == hit_key(
                plain.search(query, TOP_K)
            )


class TestShardedDatabaseSurface:
    """The sharded collection's own surface: routing, validation, topology."""

    def test_single_shard_runs_inline(self):
        sharded = ShardedCollection("c", DIM, shard_config=ShardConfig(num_shards=1))
        assert sharded.router._executor is None

    def test_insert_validation_matches_unsharded(self):
        collection = ShardedCollection("c", DIM, IndexConfig(index_type="flat"), ShardConfig(num_shards=2))
        with pytest.raises(VectorDatabaseError, match="ids for"):
            collection.insert(["a"], np.zeros((2, DIM)))
        with pytest.raises(VectorDatabaseError, match="-d vectors"):
            collection.insert(["a"], np.zeros((1, DIM + 1)))
        collection.insert(["a"], np.zeros((1, DIM)))
        with pytest.raises(VectorDatabaseError, match="Duplicate id"):
            collection.insert(["a"], np.zeros((1, DIM)))

    def test_vector_routing(self):
        ids, vectors, _ = make_data(seed=9, count=100)
        collection = ShardedCollection("c", DIM, IndexConfig(index_type="flat"), ShardConfig(num_shards=4))
        collection.insert(ids, vectors)
        assert collection.ids() == ids
        assert sum(collection.shard_sizes()) == len(ids)
        for i in (0, 17, 99):
            # Stored rows are the float32 rounding of the inserted vectors.
            assert np.array_equal(collection.get_vector(ids[i]), vectors[i].astype(np.float32))
        with pytest.raises(VectorDatabaseError):
            collection.get_vector("unknown")

    def test_adopt_unsharded_collection_preserves_results(self, tmp_path):
        ids, vectors, queries = make_data(seed=13)
        plain = VectorCollection("c", DIM, IndexConfig(index_type="ivfpq"))
        plain.insert(ids, vectors)
        # The unsharded layout: one database.json + collections/ at the
        # root, with no sharded.json beside them.
        plain.save(tmp_path / "collections" / "0000")
        (tmp_path / "database.json").write_text(
            json.dumps({"collections": [{"name": "c", "path": "collections/0000"}]})
        )
        sharded = ShardedCollection.load(tmp_path, "c")
        assert sharded.num_shards == 1
        assert sharded.ids() == ids
        for query in queries:
            assert hit_key(sharded.search(query, TOP_K)) == hit_key(
                plain.search(query, TOP_K)
            )

    def test_status_reports_topology(self):
        ids, vectors, _ = make_data(seed=1, count=60)
        sharded = ShardedCollection("c", DIM, IndexConfig(index_type="flat"), ShardConfig(num_shards=2, num_replicas=2))
        sharded.insert(
            ids, vectors
        )
        status = sharded.status()
        assert status["num_shards"] == 2
        assert sum(entry["entities"] for entry in status["shards"]) == 60
        assert all(entry["healthy_replicas"] == 2 for entry in status["shards"])


class TestReadsSkipTheWriteLock:
    @pytest.mark.parametrize("num_shards", [1, 2])
    @pytest.mark.parametrize("index_kind", sorted(INDEX_CONFIGS))
    def test_search_of_built_collection_does_not_wait_for_writer(
        self, index_kind, num_shards
    ):
        ids, vectors, queries = make_data(seed=37, count=200)
        collection = ShardedCollection("c", DIM, INDEX_CONFIGS[index_kind], ShardConfig(num_shards=num_shards))
        collection.insert(ids, vectors)
        collection.flush()
        held, release = threading.Event(), threading.Event()

        def writer() -> None:
            with collection._write_lock:
                held.set()
                release.wait(10.0)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            assert held.wait(5.0)
            start = time.perf_counter()
            collection.search_batch(queries, TOP_K)
            collection.search_exhaustive_batch(queries, TOP_K)
            elapsed = time.perf_counter() - start
        finally:
            release.set()
            thread.join()
        assert elapsed < 1.0


class TestSaveLoad:
    @pytest.mark.parametrize("index_kind", sorted(INDEX_CONFIGS))
    def test_round_trip_preserves_results(self, tmp_path, index_kind):
        shard_config = ShardConfig(num_shards=3, partitioner="kmeans")
        plain, sharded, queries = build_pair(INDEX_CONFIGS[index_kind], shard_config)
        sharded.save(tmp_path / "snap")
        restored = ShardedCollection.load(tmp_path / "snap", "c")
        assert restored.num_shards == 3
        for query in queries:
            assert hit_key(restored.search(query, TOP_K)) == hit_key(
                plain.search(query, TOP_K)
            )

    def test_loaded_database_accepts_new_inserts(self, tmp_path):
        shard_config = ShardConfig(num_shards=2)
        plain, sharded, queries = build_pair(INDEX_CONFIGS["ivfpq"], shard_config)
        # Build the unsharded index now: save() builds the sharded one, so
        # both sides must take the incremental-insert path for the extras.
        plain.search(queries[0], TOP_K)
        sharded.save(tmp_path / "snap")
        restored = ShardedCollection.load(tmp_path / "snap", "c")
        rng = np.random.default_rng(31)
        extra_ids = [f"late-{i}" for i in range(20)]
        extra = rng.normal(size=(20, DIM))
        plain.insert(extra_ids, extra)
        restored.insert(extra_ids, extra)
        for query in queries:
            assert hit_key(restored.search(query, TOP_K)) == hit_key(
                plain.search(query, TOP_K)
            )

    def test_empty_shard_keeps_shared_ivfpq_codebooks_through_reload(self, tmp_path):
        # Shard 2 is empty at save, so it writes no index state; the loaded
        # copy must still share the global centroids and codebooks, or an
        # append to it trains its own and answers drift from the live ones.
        rng = np.random.default_rng(43)
        candidates = [f"vec-{i:05d}" for i in range(1000)]
        kept = [c for c in candidates if stable_shard_hash(c, 3) != 2][:300]
        late = [c for c in candidates if stable_shard_hash(c, 3) == 2][:40]
        queries = rng.normal(size=(NUM_QUERIES, DIM))
        live = ShardedCollection("c", DIM, INDEX_CONFIGS["ivfpq"], ShardConfig(num_shards=3))
        live.insert(kept, rng.normal(size=(len(kept), DIM)))
        live.save(tmp_path / "snap")
        assert live.shard_sizes()[2] == 0
        loaded = ShardedCollection.load(tmp_path / "snap", "c")
        extra = rng.normal(size=(len(late), DIM))
        live.insert(late, extra)
        loaded.insert(late, extra)
        assert loaded.shard_sizes() == live.shard_sizes()
        assert [hit_key(row) for row in loaded.search_batch(queries, TOP_K)] == [
            hit_key(row) for row in live.search_batch(queries, TOP_K)
        ]

    def test_snapshot_of_another_collection_is_corruption(self, tmp_path):
        _, sharded, _ = build_pair(INDEX_CONFIGS["flat"], ShardConfig(num_shards=2))
        sharded.save(tmp_path / "snap")
        with pytest.raises(SnapshotCorruptionError, match="exactly the collection"):
            ShardedCollection.load(tmp_path / "snap", "other")

    def test_missing_shard_directory_is_corruption(self, tmp_path):
        _, sharded, _ = build_pair(INDEX_CONFIGS["flat"], ShardConfig(num_shards=2))
        sharded.save(tmp_path / "snap")
        import shutil

        shutil.rmtree(tmp_path / "snap" / "shards" / "0001")
        with pytest.raises(SnapshotCorruptionError):
            ShardedCollection.load(tmp_path / "snap", "c")


class FlakyBackend:
    """Replica wrapper that fails a configurable number of calls."""

    def __init__(self, inner, failures: int = 0) -> None:
        self._inner = inner
        self._failures = failures
        self.calls = 0
        self._lock = threading.Lock()

    def _call(self) -> None:
        with self._lock:
            self.calls += 1
            if self._failures > 0:
                self._failures -= 1
                raise RuntimeError("replica crashed")

    def search_batch(self, queries, k):
        self._call()
        return self._inner.search_batch(queries, k)

    def search_exhaustive_batch(self, queries, k):
        self._call()
        return self._inner.search_exhaustive_batch(queries, k)


class TestReplicaFailover:
    def test_round_robin_rotates_across_healthy_replicas(self):
        group = ReplicaGroup(0)
        group.add("a")
        second = group.add("b")
        assert [replica.backend for replica in group.rotation()] == ["a", "b"]
        assert [replica.backend for replica in group.rotation()] == ["b", "a"]
        group.mark_unhealthy(second)
        assert [replica.backend for replica in group.rotation()] == ["a"]
        assert group.status() == {"shard": 0, "replicas": 2, "healthy_replicas": 1}

    def test_failover_marks_replica_unhealthy_and_recovers(self):
        ids, vectors, queries = make_data(seed=17, count=120)
        plain = VectorCollection("c", DIM, IndexConfig(index_type="flat"))
        plain.insert(
            ids, vectors
        )
        sharded = ShardedCollection("c", DIM, IndexConfig(index_type="flat"), ShardConfig(num_shards=2))
        sharded.insert(
            ids, vectors
        )
        flaky = FlakyBackend(sharded.shard_collections[0], failures=1)
        sharded.add_replica(0, flaky)
        group = sharded.replica_groups[0]
        expected = hit_key(plain.search(queries[0], TOP_K))
        # The round-robin rotation reaches the flaky replica within two
        # searches; its one crash must fail over with identical results.
        for _ in range(4):
            assert hit_key(sharded.search(queries[0], TOP_K)) == expected
        unhealthy = [replica for replica in group.replicas if not replica.healthy]
        assert len(unhealthy) == 1
        assert flaky.calls >= 1
        # mark_healthy returns the replica to the rotation.
        group.mark_healthy(unhealthy[0])
        assert all(replica.healthy for replica in group.replicas)

    def test_all_replicas_dead_raises_shard_unavailable(self):
        ids, vectors, queries = make_data(seed=19, count=50)
        sharded = ShardedCollection("c", DIM, IndexConfig(index_type="flat"), ShardConfig(num_shards=2))
        sharded.insert(
            ids, vectors
        )
        sharded.search(queries[0], TOP_K)  # build once
        group = sharded.replica_groups[1]
        for replica in group.replicas:
            group.mark_unhealthy(replica)
        with pytest.raises(ShardUnavailableError) as excinfo:
            sharded.search(queries[0], TOP_K)
        assert excinfo.value.retryable is True
        assert excinfo.value.code == "shard_unavailable"

    def test_single_replica_error_reaches_caller_and_keeps_shard_healthy(self):
        ids, vectors, queries = make_data(seed=41, count=120)
        plain = VectorCollection("c", DIM, IndexConfig(index_type="flat"))
        plain.insert(
            ids, vectors
        )
        sharded = ShardedCollection("c", DIM, IndexConfig(index_type="flat"), ShardConfig(num_shards=2))
        sharded.insert(
            ids, vectors
        )
        replica = sharded.replica_groups[0].replicas[0]
        replica.backend = FlakyBackend(replica.backend, failures=1)
        with pytest.raises(RuntimeError, match="replica crashed"):
            sharded.search(queries[0], TOP_K)
        assert hit_key(sharded.search(queries[0], TOP_K)) == hit_key(
            plain.search(queries[0], TOP_K)
        )
        assert replica.healthy
        assert sharded.status()["health"] == "ok"

    def test_request_errors_do_not_trigger_failover(self):
        sharded = ShardedCollection("c", DIM, IndexConfig(index_type="flat"), ShardConfig(num_shards=2, num_replicas=2))
        sharded.insert(
            ["a"], np.zeros((1, DIM))
        )
        with pytest.raises(DimensionMismatchError):
            sharded.router.scatter(
                lambda backend: backend.search_batch(np.zeros((1, DIM + 1)), TOP_K)
            )
        for group in sharded.replica_groups:
            assert all(replica.healthy for replica in group.replicas)

    def test_failover_mid_run_drops_zero_queries(self):
        """Replicas dying mid-stream must not lose or corrupt any query."""
        ids, vectors, queries = make_data(seed=29, count=300)
        plain = VectorCollection("c", DIM, IndexConfig(index_type="flat"))
        plain.insert(
            ids, vectors
        )
        expected = {
            i: hit_key(plain.search(queries[i % NUM_QUERIES], TOP_K))
            for i in range(NUM_QUERIES)
        }

        sharded = ShardedCollection("c", DIM, IndexConfig(index_type="flat"), ShardConfig(num_shards=3))
        sharded.insert(
            ids, vectors
        )
        # Every shard gets a replica that will crash partway through the run.
        for shard_index, shard in enumerate(sharded.shard_collections):
            sharded.add_replica(shard_index, FlakyBackend(shard, failures=3))

        errors: List[BaseException] = []
        mismatches: List[int] = []

        def client(worker: int) -> None:
            try:
                for i in range(NUM_QUERIES):
                    got = sharded.search(queries[i % NUM_QUERIES], TOP_K)
                    if hit_key(got) != expected[i]:
                        mismatches.append(worker)
            except BaseException as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        threads = [threading.Thread(target=client, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors  # zero dropped queries
        assert not mismatches  # zero corrupted answers
        # The flaky replicas did crash (and were taken out of rotation).
        unhealthy = [
            replica
            for group in sharded.replica_groups
            for replica in group.replicas
            if not replica.healthy
        ]
        assert unhealthy

    def test_add_replica_validates_index(self):
        sharded = ShardedCollection("c", DIM, shard_config=ShardConfig(num_shards=2))
        with pytest.raises(ShardError):
            sharded.add_replica(5, object())

    def test_router_requires_groups(self):
        with pytest.raises(ShardError):
            ShardRouter([])


@pytest.fixture(scope="module")
def mixed_corpus():
    """Bellevue 2x40 + Cityscapes 1x60 (seed 1) and queries for both."""
    from repro.eval.workloads import queries_for_dataset
    from repro.video import make_bellevue, make_cityscapes

    datasets = [
        make_bellevue(num_videos=2, frames_per_video=40, seed=1),
        make_cityscapes(num_videos=1, frames_per_video=60, seed=1),
    ]
    texts = [
        spec.text
        for name in ("bellevue", "cityscapes")
        for spec in queries_for_dataset(name)[:2]
    ]
    return datasets, texts


def result_key(response) -> List[tuple]:
    """Bit-exact identity of a response's ranked results."""
    return [
        (r.frame_id, r.patch_id, r.score, r.box.to_array().tobytes())
        for r in response.results
    ]


class TestEndToEndLOVO:
    """Sharded (3 shards) vs unsharded LOVO answers on a mixed corpus.

    Flat and IVF-PQ are bit-exact: flat scores are computed in fixed-shape
    tiles independent of the row subset, and IVF-PQ shards share globally
    trained centroids and codebooks.  HNSW is left out: a per-shard graph
    search is only exact while ``hnsw_ef_search`` covers the whole shard, and
    at the default ``hnsw_ef_search`` its answers differ on this corpus.
    """

    @staticmethod
    def _assert_parity(index_type: str, corpus) -> None:
        from repro.core.system import LOVO

        datasets, texts = corpus
        index = IndexConfig(index_type=index_type)
        plain = LOVO(LOVOConfig(index=index))
        sharded = LOVO(LOVOConfig(index=index, shard=ShardConfig(num_shards=3)))
        for system in (plain, sharded):
            for dataset in datasets:
                system.ingest(dataset)
        assert sharded.storage.collection.num_shards > 1
        assert not plain.storage.collection.num_shards > 1
        for text in texts:
            expected = result_key(plain.query(text))
            assert expected
            assert result_key(sharded.query(text)) == expected
        plain_batch = plain.query_batch(texts).responses
        sharded_batch = sharded.query_batch(texts).responses
        assert [result_key(r) for r in sharded_batch] == [
            result_key(r) for r in plain_batch
        ]

    def test_lovo_query_parity_sharded_vs_unsharded(self, mixed_corpus):
        self._assert_parity("ivfpq", mixed_corpus)

    def test_lovo_query_parity_sharded_vs_unsharded_flat(self, mixed_corpus):
        self._assert_parity("flat", mixed_corpus)

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_one_replica_error_fails_one_query_only(self, num_shards):
        from repro.core.system import LOVO
        from repro.video import make_bellevue

        system = LOVO(LOVOConfig(shard=ShardConfig(num_shards=num_shards)))
        system.ingest(make_bellevue(num_videos=1, frames_per_video=30))
        text = "A red car driving in the center of the road"
        expected = result_key(system.query(text))
        replica = system.storage.collection.replica_groups[0].replicas[0]
        replica.backend = FlakyBackend(replica.backend, failures=1)
        with pytest.raises(RuntimeError, match="replica crashed"):
            system.query(text)
        assert result_key(system.query(text)) == expected
        assert system.storage.backend_status()["health"] == "ok"

    def test_lovo_snapshot_round_trip_with_shards(self, tmp_path):
        from repro.core.system import LOVO
        from repro.video import make_bellevue

        dataset = make_bellevue(num_videos=1, frames_per_video=30)
        system = LOVO(LOVOConfig(shard=ShardConfig(num_shards=2)))
        system.ingest(dataset)
        text = "A red car driving in the center of the road"
        before = system.query(text)
        system.save(tmp_path / "snap")
        restored = LOVO.load(tmp_path / "snap")
        assert restored.storage.collection.num_shards > 1
        after = restored.query(text)
        assert [(r.frame_id, r.score) for r in before.results] == [
            (r.frame_id, r.score) for r in after.results
        ]
