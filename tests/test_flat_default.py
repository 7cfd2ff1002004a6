"""The default vector path: exact flat search over the one stored matrix.

A flat collection builds no index.  It scores its own float32 matrix, so its
answers must equal a NumPy brute-force oracle bit for bit (at any shard
count and after any sequence of appends), it must hold each vector once,
and saving, loading and delta replay must not move a bit.  Flat snapshots
written before flat collections stopped keeping an index (``index.npz`` with
``matrix`` and ``ids``) must still load.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import List, Tuple

import numpy as np
import pytest

from repro import LOVO, LOVOConfig, QueryRequest
from repro.config import EncoderConfig, IndexConfig, KeyframeConfig, QueryConfig, ShardConfig
from repro.persist import DeltaSnapshotStore
from repro.shard.database import ShardedCollection
from repro.utils.serialization import load_arrays
from repro.vectordb.collection import VectorCollection
from repro.video.datasets import make_bellevue, make_cityscapes
from tests.conftest import assert_recorded_answer, fixture_answer

DIM = 16

#: Written by the last release whose flat index stored ``matrix``/``ids``,
#: with ``tests/fixtures/make_schema2_flat.py``.
SCHEMA2_FLAT_FIXTURES = Path(__file__).resolve().parent / "fixtures" / "schema2_flat"


def unit_rows(count: int, seed: int, dim: int = DIM) -> np.ndarray:
    rows = np.random.default_rng(seed).normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def oracle(rows: np.ndarray, queries: np.ndarray, k: int) -> List[List[Tuple[int, float]]]:
    """Brute force in NumPy: every (row, query) score from one zero-padded
    2048 x 8 GEMM tile, as the store's scoring pins them, ranked by score."""
    stored = rows.astype(np.float32).astype(np.float64)
    scores = np.empty((queries.shape[0], stored.shape[0]))
    row_tile = np.zeros((2048, DIM))
    query_tile = np.zeros((8, DIM))
    for column, query in enumerate(queries):
        query_tile[0] = query
        for start in range(0, stored.shape[0], 2048):
            chunk = stored[start : start + 2048]
            row_tile[:] = 0.0
            row_tile[: chunk.shape[0]] = chunk
            scores[column, start : start + chunk.shape[0]] = (row_tile @ query_tile.T)[
                : chunk.shape[0], 0
            ]
    ranked = []
    for row in scores:
        top = np.argsort(-row, kind="stable")[:k]
        ranked.append([(int(position), float(row[position])) for position in top])
    return ranked


def as_pairs(hit_lists) -> List[List[Tuple[int, float]]]:
    return [[(int(hit.id[1:]), hit.score) for hit in hits] for hits in hit_lists]


class TestFlatSearchEqualsTheOracle:
    def test_flat_is_the_default(self):
        assert IndexConfig().index_type == "flat"
        assert QueryConfig().max_candidate_frames == 30

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_search_batch_is_bit_exact(self, num_shards):
        rows = unit_rows(2500, seed=1)
        store = ShardedCollection("c", DIM, IndexConfig(), ShardConfig(num_shards=num_shards))
        store.insert([f"p{i}" for i in range(len(rows))], rows)
        queries = unit_rows(11, seed=2)
        for k in (1, 10, 256):
            assert as_pairs(store.search_batch(queries, k)) == oracle(rows, queries, k)

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_streamed_appends_stay_bit_exact(self, num_shards):
        rows = unit_rows(700, seed=3)
        store = ShardedCollection("c", DIM, IndexConfig(), ShardConfig(num_shards=num_shards))
        queries = unit_rows(5, seed=4)
        stored = 0
        # Uneven appends, across several doublings of the row buffer.
        for size in (1, 2, 13, 64, 120, 500):
            ids = [f"p{i}" for i in range(stored, stored + size)]
            store.insert(ids, rows[stored : stored + size])
            stored += size
            expected = oracle(rows[:stored], queries, 32)
            assert as_pairs(store.search_batch(queries, 32)) == expected
            assert as_pairs(store.search_exhaustive_batch(queries, 32)) == expected


def array_owners(value, seen: set, owners: dict) -> None:
    """Every ndarray reachable from ``value``, by the object owning its memory."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        owner = value
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        owners[id(owner)] = owner
    elif isinstance(value, dict):
        for item in value.values():
            array_owners(item, seen, owners)
    elif isinstance(value, (list, tuple)):
        for item in value:
            array_owners(item, seen, owners)
    elif hasattr(value, "__dict__") and type(value).__module__.startswith("repro."):
        array_owners(vars(value), seen, owners)


class TestOneCopy:
    def test_a_flat_collection_holds_its_vectors_once(self):
        rows = unit_rows(1000, seed=5)
        collection = VectorCollection("c", DIM)
        collection.insert([f"p{i}" for i in range(len(rows))], rows)
        collection.search(rows[0], 5)
        owners: dict = {}
        array_owners(collection, set(), owners)
        assert sum(array.nbytes for array in owners.values()) == rows.astype(np.float32).nbytes
        assert collection.storage_bytes() == rows.astype(np.float32).nbytes

    def test_a_flat_snapshot_writes_no_index_state(self, tmp_path):
        rows = unit_rows(40, seed=6)
        collection = VectorCollection("c", DIM)
        collection.insert([f"p{i}" for i in range(len(rows))], rows)
        collection.save(tmp_path / "c")
        assert not (tmp_path / "c" / "index.npz").exists()
        document = json.loads((tmp_path / "c" / "collection.json").read_text())
        assert document["index_meta"] == {"kind": "flat"}
        loaded = VectorCollection.load(tmp_path / "c")
        assert np.array_equal(loaded.rows(), rows.astype(np.float32))


def default_system_config() -> LOVOConfig:
    """A small encoder; index, budget and rerank depth left at their defaults."""
    return LOVOConfig(
        encoder=EncoderConfig(embedding_dim=64, class_embedding_dim=32, patch_grid=6),
        keyframes=KeyframeConfig(strategy="uniform", uniform_stride=2),
    )


TEXTS = [
    "A red car driving on the road.",
    "A car in the center of the road",
    "A car side by side with another car",
    "A person walking on the sidewalk.",
]


def answers(system: LOVO) -> list:
    return [
        [(r.frame_id, r.patch_id, r.box, r.score) for r in response.results]
        for response in system.query_batch([QueryRequest(text) for text in TEXTS])
    ]


class TestFlatSystemParity:
    @pytest.fixture(scope="class")
    def live(self):
        system = LOVO(default_system_config())
        system.ingest(make_bellevue(num_videos=1, frames_per_video=80))  # 40 key frames
        assert system.storage.index_type == "flat"
        return system

    def test_rerank_depth_40_returns_at_most_the_budget_of_30_frames(self, live):
        assert live.config.query.rerank_n == 40
        responses = live.query_batch([QueryRequest(text) for text in TEXTS])
        assert max(response.metadata["num_candidates"] for response in responses) == 30
        for response in responses:
            assert len({result.frame_id for result in response.results}) <= 30

    def test_snapshot_equals_live(self, live, tmp_path):
        live.save(tmp_path / "snap")
        assert answers(LOVO.load(tmp_path / "snap")) == answers(live)

    def test_delta_replay_equals_live(self, tmp_path):
        system = LOVO(default_system_config())
        system.ingest(make_bellevue(num_videos=1, frames_per_video=60))
        store = DeltaSnapshotStore(tmp_path / "store")
        store.initialize(system)
        segment = make_cityscapes(num_videos=1, frames_per_video=40)
        summary = system.summarizer.summarize(segment)
        store.append(segment.name, summary)
        system.ingest_summary(segment.name, summary)
        assert answers(store.load_system()) == answers(system)


class TestSchemaTwoFlatFixtures:
    """Flat snapshots that stored their rows as the index's ``matrix`` load,
    and answer as the release that wrote them did: the same frames, patches,
    boxes and order, and scores within the float32 rerank bound."""

    @pytest.fixture(scope="class")
    def expected(self) -> dict:
        return json.loads((SCHEMA2_FLAT_FIXTURES / "expected.json").read_text())

    @pytest.fixture
    def fixtures(self, tmp_path) -> Path:
        """A scratch copy, so no test can alter the committed files."""
        shutil.copytree(SCHEMA2_FLAT_FIXTURES, tmp_path / "schema2_flat")
        return tmp_path / "schema2_flat"

    def test_fixtures_hold_the_old_layout(self, fixtures):
        for collection in fixtures.glob("**/collections/0000"):
            index = load_arrays(collection / "index.npz")
            assert sorted(index) == ["ids", "matrix"]
            assert index["matrix"].dtype == np.float32
            assert "vectors" not in load_arrays(collection / "entities.npz")
            meta = json.loads((collection / "collection.json").read_text())["index_meta"]
            assert meta == {"kind": "flat", "raw_vectors": "matrix"}

    def test_snapshot_answers_as_recorded(self, fixtures, expected):
        loaded = LOVO.load(fixtures / "snapshot")
        assert_recorded_answer(fixture_answer(loaded, expected), expected["snapshot"])

    def test_delta_store_replays_as_recorded(self, fixtures, expected):
        system = DeltaSnapshotStore(fixtures / "deltastore").load_system()
        assert_recorded_answer(fixture_answer(system, expected), expected["deltastore"])

    def test_resave_drops_the_index_state(self, fixtures, expected, tmp_path):
        LOVO.load(fixtures / "snapshot").save(tmp_path / "resaved")
        assert not list((tmp_path / "resaved").glob("**/index.npz"))
        resaved = LOVO.load(tmp_path / "resaved")
        assert_recorded_answer(fixture_answer(resaved, expected), expected["snapshot"])
