"""Snapshot persistence: round-trip parity, error paths, and the manifest.

Covers the acceptance criteria of the persistence subsystem: a
saved-then-loaded system returns bit-identical ``query()`` /
``query_batch()`` results for all three index families, corrupted or
version-skewed snapshots fail with the typed :class:`PersistenceError`
hierarchy (never bare ``IOError``/``ValueError``), and
:class:`MetadataStore` records survive the columnar round trip for
arbitrary values (hypothesis property test).
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import LOVO, LOVOConfig, QueryOptions, QueryRequest
from repro.config import (
    EncoderConfig,
    IndexConfig,
    KeyframeConfig,
    QueryConfig,
    ServeConfig,
    ShardConfig,
)
from repro.core.storage import LOVOStorage
from repro.errors import (
    ConfigurationError,
    PersistenceError,
    ReproError,
    SnapshotCorruptionError,
    SnapshotVersionError,
)
from repro.persist import SNAPSHOT_SCHEMA_VERSION, DeltaSnapshotStore, read_manifest
from repro.persist.manifest import (
    collect_artifacts,
    config_payload_hash,
    sha256_file,
    write_manifest,
)
from repro.stream import StreamingIngestor
from repro.utils.geometry import BoundingBox
from repro.shard.database import ShardedCollection
from repro.vectordb.collection import VectorCollection
from repro.vectordb.metadata import FrameRecord, MetadataStore, PatchRecord
from repro.video.datasets import make_bellevue, make_cityscapes
from tests.conftest import RETIRED_AT_OLD_DEFAULTS

QUERIES = [
    "A red car driving in the center of the road",
    "A woman in a black dress",
    "A red car side by side with another car",
]


def persist_config(index_type: str) -> LOVOConfig:
    """A small configuration exercising the given index family."""
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
        query=QueryConfig(fast_search_k=64, rerank_n=10, max_candidate_frames=20),
    )


def ingested_system(index_type: str) -> LOVO:
    """A mixed-dataset system: Cityscapes annotations carry attribute dicts
    whose insertion order is not key order, which a snapshot must survive."""
    system = LOVO(persist_config(index_type))
    system.ingest(make_bellevue(num_videos=1, frames_per_video=80))
    system.ingest(make_cityscapes(num_videos=1, frames_per_video=60, seed=1))
    return system


def result_tuples(response):
    return [(r.frame_id, r.patch_id, r.score, r.box) for r in response.results]


@pytest.fixture(scope="module", params=["flat", "hnsw", "ivfpq"])
def saved_system(request, tmp_path_factory):
    """One ingested-and-saved system per index family (module-scoped)."""
    system = ingested_system(request.param)
    root = tmp_path_factory.mktemp(f"snapshot_{request.param}")
    manifest = system.save(root)
    return request.param, system, root, manifest


class TestRoundTripParity:
    def test_query_results_bit_identical(self, saved_system):
        _, system, root, _ = saved_system
        loaded = LOVO.load(root)
        for text in QUERIES:
            assert result_tuples(loaded.query(text)) == result_tuples(system.query(text))

    def test_query_batch_bit_identical(self, saved_system):
        _, system, root, _ = saved_system
        loaded = LOVO.load(root)
        before = system.query_batch(QUERIES)
        after = loaded.query_batch(QUERIES)
        for response_before, response_after in zip(before.responses, after.responses):
            assert result_tuples(response_after) == result_tuples(response_before)

    def test_two_dataset_scores_exactly_equal(self, tmp_path):
        # Every rerank score, not only the top results, must survive save ->
        # load bit for bit; people and bicycles only occur in Cityscapes.
        system = LOVO(LOVOConfig())
        system.ingest(make_bellevue(num_videos=1, frames_per_video=150))
        system.ingest(make_cityscapes(num_videos=1, frames_per_video=150))
        system.save(tmp_path / "snap")
        loaded = LOVO.load(tmp_path / "snap")
        request = QueryRequest(
            "A person walking next to a bicycle.", QueryOptions(top_n=1000)
        )
        live = [(r.patch_id, r.score) for r in system.query(request).results]
        warm = [(r.patch_id, r.score) for r in loaded.query(request).results]
        assert len(live) > 10
        assert warm == live

    def test_counters_and_reports_survive(self, saved_system):
        index_type, system, root, manifest = saved_system
        loaded = LOVO.load(root)
        assert loaded.num_entities == system.num_entities
        assert loaded.num_keyframes == system.num_keyframes
        assert loaded.ingested_datasets == system.ingested_datasets
        report = loaded.storage_report()
        assert report["index_type"] == index_type
        assert report["num_entities"] == system.num_entities
        assert manifest.info["index_type"] == index_type

    def test_loaded_system_supports_further_ingest(self, saved_system):
        _, _, root, _ = saved_system
        loaded = LOVO.load(root)
        before_entities = loaded.num_entities
        loaded.ingest(make_cityscapes(num_videos=1, frames_per_video=40))
        assert loaded.num_entities > before_entities
        assert loaded.query(QUERIES[0]).results

    def test_custom_reranker_config_survives(self, tmp_path):
        from repro.encoders.cross_modal import RerankerConfig

        custom = RerankerConfig(relation_bonus=0.9, relation_penalty=0.5, seed=99)
        system = LOVO(persist_config("flat"), custom)
        system.ingest(make_bellevue(num_videos=1, frames_per_video=60))
        system.save(tmp_path / "snap")
        loaded = LOVO.load(tmp_path / "snap")
        assert loaded._reranker.config == custom
        for text in QUERIES[:2]:
            assert result_tuples(loaded.query(text)) == result_tuples(system.query(text))

    def test_ablation_paths_survive(self, tmp_path):
        config = persist_config("flat").with_overrides(
            query=QueryConfig(
                fast_search_k=64, rerank_n=10, max_candidate_frames=20,
                rerank_enabled=False, ann_enabled=False,
            )
        )
        system = LOVO(config)
        system.ingest(make_bellevue(num_videos=1, frames_per_video=60))
        system.save(tmp_path / "snap")
        loaded = LOVO.load(tmp_path / "snap")
        assert loaded.config.query.rerank_enabled is False
        for text in QUERIES[:2]:
            assert result_tuples(loaded.query(text)) == result_tuples(system.query(text))


class TestManifest:
    def test_manifest_contents(self, saved_system):
        _, system, root, manifest = saved_system
        reread = read_manifest(root)
        assert reread.schema_version == SNAPSHOT_SCHEMA_VERSION
        assert reread.repro_version == repro.__version__
        assert reread.config_hash == manifest.config_hash
        assert reread.artifacts  # every non-manifest file is checksummed
        listed = {Path(name) for name in reread.artifacts}
        on_disk = {
            path.relative_to(root)
            for path in root.rglob("*")
            if path.is_file() and path.name != "manifest.json"
        }
        assert listed == on_disk

    def test_save_requires_ingest(self, tmp_path):
        with pytest.raises(PersistenceError):
            LOVO(persist_config("flat")).save(tmp_path / "empty")

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(PersistenceError):
            LOVO.load(tmp_path / "nowhere")

    def test_version_skew_rejected(self, tmp_path):
        system = ingested_system("flat")
        root = tmp_path / "snap"
        system.save(root)
        manifest_path = root / "manifest.json"
        document = json.loads(manifest_path.read_text())
        document["schema_version"] = SNAPSHOT_SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(document))
        with pytest.raises(SnapshotVersionError):
            LOVO.load(root)

    def test_corrupted_artifact_rejected(self, tmp_path):
        system = ingested_system("flat")
        root = tmp_path / "snap"
        system.save(root)
        payload = root / "storage" / "metadata.npz"
        payload.write_bytes(b"\x00" + payload.read_bytes()[1:])
        with pytest.raises(SnapshotCorruptionError):
            LOVO.load(root)

    def test_missing_artifact_rejected(self, tmp_path):
        system = ingested_system("flat")
        root = tmp_path / "snap"
        system.save(root)
        (root / "frames.json.gz").unlink()
        with pytest.raises(PersistenceError):
            LOVO.load(root)

    def test_non_numeric_schema_version_rejected(self, tmp_path):
        system = ingested_system("flat")
        root = tmp_path / "snap"
        system.save(root)
        manifest_path = root / "manifest.json"
        document = json.loads(manifest_path.read_text())
        document["schema_version"] = "garbage"
        manifest_path.write_text(json.dumps(document))
        with pytest.raises(SnapshotCorruptionError):
            LOVO.load(root)

    def test_tampered_config_rejected(self, tmp_path):
        system = ingested_system("flat")
        root = tmp_path / "snap"
        system.save(root)
        config_path = root / "config.json"
        document = json.loads(config_path.read_text())
        document["query"]["rerank_n"] = 999
        config_path.write_text(json.dumps(document))
        # Keep the artifact checksum consistent so the *config hash* check is
        # what trips (simulates a manifest/config pair from different saves).
        manifest_path = root / "manifest.json"
        manifest_doc = json.loads(manifest_path.read_text())
        manifest_doc["artifacts"]["config.json"] = sha256_file(config_path)
        manifest_path.write_text(json.dumps(manifest_doc))
        with pytest.raises(SnapshotCorruptionError):
            LOVO.load(root)

    def test_pre_serve_snapshot_without_serve_section_loads(self, tmp_path):
        """Snapshots written before ServeConfig existed must keep loading.

        Their ``config.json`` has no ``serve`` section and their manifest's
        config hash was computed over that smaller payload; loading must fill
        in serving defaults rather than reporting corruption.
        """
        system = ingested_system("flat")
        root = tmp_path / "snap"
        system.save(root)
        config_path = root / "config.json"
        document = json.loads(config_path.read_text())
        del document["serve"]
        config_path.write_text(json.dumps(document))
        manifest_path = root / "manifest.json"
        manifest_doc = json.loads(manifest_path.read_text())
        manifest_doc["config_hash"] = config_payload_hash(document)
        manifest_doc["artifacts"]["config.json"] = sha256_file(config_path)
        manifest_path.write_text(json.dumps(manifest_doc))

        loaded = LOVO.load(root)
        assert loaded.config.serve == ServeConfig()
        assert result_tuples(loaded.query(QUERIES[0])) == result_tuples(
            system.query(QUERIES[0])
        )

    def test_resave_removes_stale_manifest_first(self, tmp_path):
        system = ingested_system("flat")
        root = tmp_path / "snap"
        system.save(root)
        system.save(root)  # overwrite in place
        loaded = LOVO.load(root)
        assert loaded.num_entities == system.num_entities

    def test_layer_level_loads_raise_typed_errors(self, tmp_path):
        with pytest.raises(PersistenceError):
            VectorCollection.load(tmp_path / "missing")
        with pytest.raises(PersistenceError):
            ShardedCollection.load(tmp_path / "missing", LOVOStorage.COLLECTION_NAME)
        with pytest.raises(PersistenceError):
            LOVOStorage.load(tmp_path / "missing")
        with pytest.raises(PersistenceError):
            MetadataStore.load(tmp_path / "missing.npz")

    def test_unparsable_manifest_rejected(self, tmp_path):
        system = ingested_system("flat")
        root = tmp_path / "snap"
        system.save(root)
        (root / "manifest.json").write_text("{not json")
        with pytest.raises(SnapshotCorruptionError):
            LOVO.load(root)

    def test_errors_are_repro_errors(self):
        assert issubclass(PersistenceError, ReproError)
        assert issubclass(SnapshotVersionError, PersistenceError)
        assert issubclass(SnapshotCorruptionError, PersistenceError)


def _update_json(path: Path, update) -> dict:
    document = json.loads(path.read_text())
    update(document)
    path.write_text(json.dumps(document, sort_keys=True))
    return document


def write_retired_keys(root: Path, **changed: object) -> None:
    """Make a fresh snapshot look like one written while the retired config
    fields existed: every file that stores a config section gets the retired
    keys at their old defaults (or at ``changed``), and the manifest is
    rewritten to match."""
    retired = {
        section: {key: changed.get(key, value) for key, value in keys.items()}
        for section, keys in RETIRED_AT_OLD_DEFAULTS.items()
    }

    def add_sections(document):
        for section, keys in retired.items():
            document[section].update(keys)

    config_doc = _update_json(root / "config.json", add_sections)
    storage_files = [root / "storage" / "storage.json", *root.rglob("collection.json")]
    for path in storage_files:
        _update_json(path, lambda document: document["index_config"].update(retired["index"]))
    for path in root.rglob("sharded.json"):
        _update_json(path, lambda document: document["shard_config"].update(retired["shard"]))
    manifest = read_manifest(root)
    write_manifest(
        root,
        replace(
            manifest,
            config_hash=config_payload_hash(config_doc),
            artifacts=collect_artifacts(root),
        ),
    )


@pytest.fixture(scope="module", params=[("flat", 1), ("flat", 2), ("ivfpq", 1), ("ivfpq", 2)],
                ids=["flat-1", "flat-2", "ivfpq-1", "ivfpq-2"])
def live_system(request):
    index_type, num_shards = request.param
    system = LOVO(persist_config(index_type).with_overrides(
        shard=ShardConfig(num_shards=num_shards)
    ))
    system.ingest(make_bellevue(num_videos=1, frames_per_video=80))
    system.ingest(make_cityscapes(num_videos=1, frames_per_video=60, seed=1))
    return system


class TestRetiredConfigKeys:
    """Snapshots written while the retired config fields existed still load."""

    def test_old_snapshot_answers_equal_live(self, live_system, tmp_path):
        live_system.save(tmp_path)
        write_retired_keys(tmp_path)
        assert "kmeans_iterations" in (tmp_path / "storage" / "storage.json").read_text()
        loaded = LOVO.load(tmp_path)
        assert loaded.config == live_system.config
        before = live_system.query_batch(QUERIES)
        after = loaded.query_batch(QUERIES)
        for response_before, response_after in zip(before.responses, after.responses):
            assert result_tuples(response_after) == result_tuples(response_before)

    @pytest.mark.parametrize("key, value", [("kmeans_iterations", 20), ("slo_max_events", 1)])
    def test_retired_key_at_other_value_is_rejected(self, live_system, tmp_path, key, value):
        live_system.save(tmp_path)
        write_retired_keys(tmp_path, **{key: value})
        with pytest.raises(ConfigurationError, match=f"{key}={value}"):
            LOVO.load(tmp_path)

    @pytest.mark.parametrize(
        "filename, section, key",
        [
            ("storage.json", "index_config", "kmeans_iterations"),
            ("collection.json", "index_config", "kmeans_iterations"),
            ("sharded.json", "shard_config", "partition_seed"),
        ],
    )
    def test_each_storage_parser_checks_retired_keys(self, tmp_path, filename, section, key):
        # config.json is left alone, so the storage-level parser is the one
        # that must notice the changed value.
        system = LOVO(persist_config("ivfpq").with_overrides(shard=ShardConfig(num_shards=2)))
        system.ingest(make_bellevue(num_videos=1, frames_per_video=40))
        system.save(tmp_path)
        paths = list(tmp_path.rglob(filename))
        assert paths
        _update_json(paths[0], lambda document: document[section].update({key: 99}))
        with pytest.raises(ConfigurationError, match=f"{key}=99"):
            LOVOStorage.load(tmp_path / "storage")


def rewrite_manifest(root: Path) -> None:
    """Recompute the manifest's artifact checksums after editing a snapshot."""
    write_manifest(root, replace(read_manifest(root), artifacts=collect_artifacts(root)))


def write_unsharded_layout(root: Path) -> None:
    """Make a fresh 1-shard snapshot look like one an unsharded system wrote
    before every system was sharded: ``storage/vectordb/shards/0000/*``
    moves up into ``storage/vectordb/``, ``sharded.json`` and ``sharded.npz``
    are dropped, and the manifest is rewritten to match."""
    vectordb = root / "storage" / "vectordb"
    shard = vectordb / "shards" / "0000"
    for child in shard.iterdir():
        child.rename(vectordb / child.name)
    shard.rmdir()
    (vectordb / "shards").rmdir()
    (vectordb / "sharded.json").unlink()
    (vectordb / "sharded.npz").unlink()
    rewrite_manifest(root)


def assert_same_answers(system: LOVO, reference: LOVO) -> None:
    for text in QUERIES:
        assert result_tuples(system.query(text)) == result_tuples(reference.query(text))
    before = reference.query_batch(QUERIES)
    after = system.query_batch(QUERIES)
    for response_before, response_after in zip(before.responses, after.responses):
        assert result_tuples(response_after) == result_tuples(response_before)


@pytest.mark.parametrize("index_type", ["flat", "ivfpq", "hnsw"])
class TestUnshardedLayout:
    """Snapshots in the older unsharded layout load as a 1-shard system
    without re-inserting or retraining."""

    def test_old_layout_answers_equal_live(self, tmp_path, index_type):
        system = ingested_system(index_type)
        system.save(tmp_path / "old")
        write_unsharded_layout(tmp_path / "old")
        assert (tmp_path / "old" / "storage" / "vectordb" / "database.json").is_file()
        loaded = LOVO.load(tmp_path / "old")
        assert loaded.storage.collection.num_shards == 1
        assert_same_answers(loaded, system)
        # Saving again writes the one sharded layout.
        loaded.save(tmp_path / "new")
        assert (tmp_path / "new" / "storage" / "vectordb" / "sharded.json").is_file()
        assert_same_answers(LOVO.load(tmp_path / "new"), system)

    def test_delta_store_over_old_layout_base(self, tmp_path, index_type):
        system = LOVO(persist_config(index_type))
        system.ingest(make_bellevue(num_videos=1, frames_per_video=80))
        store = DeltaSnapshotStore(tmp_path / "store")
        store.initialize(system)
        write_unsharded_layout(store.base_path)
        ingestor = StreamingIngestor(system, delta_store=store).start()
        try:
            segment = make_cityscapes(num_videos=1, frames_per_video=60, seed=1)
            ingestor.submit(segment).result(timeout=120)
        finally:
            ingestor.stop()
        assert len(store.deltas()) == 1
        assert_same_answers(store.load_system(), system)


def write_entity_metadata(root: Path, system: LOVO) -> None:
    """Make a fresh snapshot look like one written while vector collections
    kept per-entity metadata: every shard's ``collection.json`` gets the
    ``entity_metadata`` list (each entity's frame and video, in insertion
    order), and the manifest is rewritten to match."""
    paths = list((root / "storage" / "vectordb").rglob("collection.json"))
    assert paths
    for path in paths:
        ids = [str(i) for i in np.load(path.parent / "entities.npz")["ids"].tolist()]
        rows = system.storage.metadata.patch_frames(ids)
        entries = [
            {"frame_id": rows[patch_id][0], "video_id": rows[patch_id][1]}
            for patch_id in ids
        ]
        _update_json(path, lambda document, entries=entries: document.update(
            entity_metadata=entries
        ))
    rewrite_manifest(root)


@pytest.mark.parametrize("num_shards", [1, 3])
@pytest.mark.parametrize("index_type", ["flat", "ivfpq", "hnsw"])
class TestEntityMetadataLayout:
    """Snapshots whose collections still store per-entity metadata load;
    the stored list is ignored and the answers equal the live system's."""

    @staticmethod
    def system(index_type: str, num_shards: int) -> LOVO:
        return LOVO(persist_config(index_type).with_overrides(
            shard=ShardConfig(num_shards=num_shards)
        ))

    def test_old_snapshot_answers_equal_live(self, tmp_path, index_type, num_shards):
        system = self.system(index_type, num_shards)
        system.ingest(make_bellevue(num_videos=1, frames_per_video=80))
        system.ingest(make_cityscapes(num_videos=1, frames_per_video=60, seed=1))
        system.save(tmp_path / "old")
        write_entity_metadata(tmp_path / "old", system)
        assert "entity_metadata" in next(
            (tmp_path / "old").rglob("collection.json")
        ).read_text()
        loaded = LOVO.load(tmp_path / "old")
        assert_same_answers(loaded, system)
        # Saving again drops the list.
        loaded.save(tmp_path / "new")
        for path in (tmp_path / "new").rglob("collection.json"):
            assert "entity_metadata" not in json.loads(path.read_text())
        assert_same_answers(LOVO.load(tmp_path / "new"), system)

    def test_delta_store_over_old_snapshot_base(self, tmp_path, index_type, num_shards):
        system = self.system(index_type, num_shards)
        system.ingest(make_bellevue(num_videos=1, frames_per_video=80))
        store = DeltaSnapshotStore(tmp_path / "store")
        store.initialize(system)
        write_entity_metadata(store.base_path, system)
        ingestor = StreamingIngestor(system, delta_store=store).start()
        try:
            segment = make_cityscapes(num_videos=1, frames_per_video=60, seed=1)
            ingestor.submit(segment).result(timeout=120)
        finally:
            ingestor.stop()
        assert len(store.deltas()) == 1
        assert_same_answers(store.load_system(), system)


class TestRetiredRerankerField:
    """``extra_relation_checks`` was a reranker field that nothing read;
    snapshots store it as ``{}``."""

    @staticmethod
    def _store_extra_checks(root: Path, value: dict) -> None:
        _update_json(
            root / "system.json",
            lambda document: document["reranker_config"].update(
                {"extra_relation_checks": value}
            ),
        )
        rewrite_manifest(root)

    def test_empty_value_loads(self, tmp_path):
        system = ingested_system("flat")
        system.save(tmp_path)
        self._store_extra_checks(tmp_path, {})
        assert_same_answers(LOVO.load(tmp_path), system)

    def test_other_value_is_corruption(self, tmp_path):
        system = ingested_system("flat")
        system.save(tmp_path)
        self._store_extra_checks(tmp_path, {"left_of": 0.5})
        with pytest.raises(SnapshotCorruptionError, match="extra_relation_checks"):
            LOVO.load(tmp_path)


class TestVectorLayers:
    def test_collection_round_trip_and_post_load_insert(self, tmp_path):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(40, 16))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        collection = VectorCollection("patches", 16, IndexConfig(index_type="flat"))
        ids = [f"p{i:03d}" for i in range(40)]
        collection.insert(ids, vectors)
        collection.save(tmp_path / "col")
        loaded = VectorCollection.load(tmp_path / "col")
        query = vectors[7]
        assert [(h.id, h.score) for h in loaded.search(query, 5)] == [
            (h.id, h.score) for h in collection.search(query, 5)
        ]
        assert loaded.ids() == ids
        assert np.array_equal(loaded.get_vector("p003"), collection.get_vector("p003"))
        document = json.loads((tmp_path / "col" / "collection.json").read_text())
        assert "entity_metadata" not in document
        # Inserting after a load must extend, not clobber, the restored state.
        extra = rng.normal(size=(4, 16))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        loaded.insert([f"q{i}" for i in range(4)], extra)
        assert loaded.num_entities == 44
        assert loaded.search(extra[0], 1)[0].id == "q0"
        assert "p007" in [h.id for h in loaded.search(query, 3)]

    def test_flat_and_hnsw_snapshots_store_vectors_once(self, tmp_path):
        rng = np.random.default_rng(9)
        vectors = rng.normal(size=(30, 16))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        for index_type in ("flat", "hnsw"):
            collection = VectorCollection("c", 16, IndexConfig(index_type=index_type))
            collection.insert([f"{index_type}{i}" for i in range(30)], vectors)
            collection.save(tmp_path / index_type)
            entities = np.load(tmp_path / index_type / "entities.npz")
            if index_type == "flat":
                # A flat collection has no index state: the rows live here.
                assert "vectors" in entities.files
                assert not (tmp_path / index_type / "index.npz").exists()
            else:
                assert "vectors" not in entities.files  # carried by the index state
            loaded = VectorCollection.load(tmp_path / index_type)
            # Stored rows are the float32 rounding of the inserted vectors.
            assert np.array_equal(
                loaded.get_vector(f"{index_type}3"), vectors[3].astype(np.float32)
            )

    def test_empty_collection_round_trip(self, tmp_path):
        collection = VectorCollection("empty", 8, IndexConfig(index_type="flat"))
        collection.save(tmp_path / "col")
        loaded = VectorCollection.load(tmp_path / "col")
        assert loaded.num_entities == 0
        assert loaded.search(np.zeros(8), 3) == []

    def test_database_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        collection = ShardedCollection(
            "alpha", 8, IndexConfig(index_type="flat"), ShardConfig(num_shards=2)
        )
        collection.insert([f"alpha{i}" for i in range(12)], rng.normal(size=(12, 8)))
        collection.save(tmp_path / "db")
        loaded = ShardedCollection.load(tmp_path / "db", "alpha")
        assert loaded.ids() == collection.ids()
        assert loaded.shard_sizes() == collection.shard_sizes()
        query = rng.normal(size=8)
        assert loaded.search(query, 5) == collection.search(query, 5)

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_vectordb_layout_is_pinned(self, tmp_path, num_shards):
        config = replace(persist_config("flat"), shard=ShardConfig(num_shards=num_shards))
        system = LOVO(config)
        system.ingest(make_bellevue(num_videos=1, frames_per_video=30))
        system.save(tmp_path / "snap")
        vectordb = tmp_path / "snap" / "storage" / "vectordb"
        expected = {"sharded.json", "sharded.npz"}
        # A flat collection keeps no index state, so no shard has an index.npz.
        for shard in range(num_shards):
            expected |= {
                f"shards/{shard:04d}/database.json",
                f"shards/{shard:04d}/collections/0000/collection.json",
                f"shards/{shard:04d}/collections/0000/entities.npz",
            }
        found = {
            path.relative_to(vectordb).as_posix()
            for path in vectordb.rglob("*")
            if path.is_file()
        }
        assert found == expected
        for shard in range(num_shards):
            document = json.loads(
                (vectordb / "shards" / f"{shard:04d}" / "database.json").read_text()
            )
            assert document == {
                "collections": [
                    {"name": LOVOStorage.COLLECTION_NAME, "path": "collections/0000"}
                ]
            }

    def test_storage_load_rejects_a_mismatched_collection(self, tmp_path):
        storage = LOVOStorage(8, IndexConfig(index_type="flat"))
        storage.collection.insert(["p0"], np.ones((1, 8)))
        storage.save(tmp_path / "storage")
        path = tmp_path / "storage" / "storage.json"
        document = json.loads(path.read_text())
        document["dim"] = 16
        path.write_text(json.dumps(document))
        with pytest.raises(SnapshotCorruptionError, match="does not match"):
            LOVOStorage.load(tmp_path / "storage")

    def test_storage_round_trip(self, tmp_path):
        system = ingested_system("ivfpq")
        storage = system.storage
        storage.save(tmp_path / "storage")
        loaded = LOVOStorage.load(tmp_path / "storage")
        assert loaded.num_entities == storage.num_entities
        assert loaded.index_type == "ivfpq"
        assert loaded.metadata.count_frames() == storage.metadata.count_frames()
        assert loaded.metadata.count_patches() == storage.metadata.count_patches()
        some_patch = storage.metadata.get_patch(storage.collection.ids()[0])
        assert loaded.patch_record(some_patch.patch_id) == some_patch


identifiers = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), max_codepoint=0x2FF),
    min_size=1,
    max_size=12,
)
finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
sizes = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)

frame_records = st.builds(
    FrameRecord,
    frame_id=identifiers,
    video_id=identifiers,
    frame_index=st.integers(min_value=0, max_value=10**6),
    timestamp=finite,
)
patch_records = st.builds(
    PatchRecord,
    patch_id=identifiers,
    frame_id=identifiers,
    video_id=identifiers,
    patch_index=st.integers(min_value=0, max_value=10**4),
    box=st.builds(BoundingBox, x=finite, y=finite, w=sizes, h=sizes),
    objectness=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class TestMetadataRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(
        frames=st.lists(frame_records, max_size=8, unique_by=lambda r: r.frame_id),
        patches=st.lists(patch_records, max_size=8, unique_by=lambda r: r.patch_id),
    )
    def test_records_survive_columnar_round_trip(self, frames, patches):
        store = MetadataStore()
        store.add_frames(frames)
        store.add_patches(patches)
        loaded = MetadataStore.from_arrays(store.to_arrays())
        assert sorted(loaded.list_frames(), key=lambda r: r.frame_id) == sorted(
            store.list_frames(), key=lambda r: r.frame_id
        )
        before, after = store.to_arrays(), loaded.to_arrays()
        for name in before:
            if name.startswith("patch_"):
                assert after[name].dtype == before[name].dtype
                assert np.array_equal(after[name], before[name])

    def test_empty_store_arrays_keep_their_dtypes(self):
        arrays = MetadataStore().to_arrays()
        assert all(value.shape[0] == 0 for value in arrays.values())
        assert arrays["patch_boxes"].shape == (0, 4)
        assert {name: value.dtype.kind for name, value in arrays.items()} == {
            "frame_ids": "U", "frame_video_ids": "U", "frame_indexes": "i",
            "frame_timestamps": "f", "patch_ids": "U", "patch_frame_ids": "U",
            "patch_video_ids": "U", "patch_indexes": "i", "patch_boxes": "f",
            "patch_objectness": "f",
        }

    def test_save_load_file(self, tmp_path):
        store = MetadataStore()
        store.add_frames([FrameRecord("f0", "v0", 0, 0.5)])
        store.add_patches(
            [PatchRecord("p0", "f0", "v0", 3, BoundingBox(0.1, 0.2, 0.3, 0.4), 0.9)]
        )
        store.save(tmp_path / "meta.npz")
        loaded = MetadataStore.load(tmp_path / "meta.npz")
        assert loaded.get_patch("p0") == store.get_patch("p0")
        assert loaded.get_frame("f0") == store.get_frame("f0")

    def test_missing_column_rejected(self):
        store = MetadataStore()
        arrays = store.to_arrays()
        del arrays["patch_boxes"]
        with pytest.raises(SnapshotCorruptionError):
            MetadataStore.from_arrays(arrays)


class TestVersionSingleSourcing:
    def test_version_matches_pyproject(self):
        pyproject = Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        assert f'version = "{repro.__version__}"' in pyproject.read_text()

    def test_version_stamped_into_manifest(self, saved_system):
        _, _, _, manifest = saved_system
        assert manifest.repro_version == repro.__version__


#: Written by the last schema-1 release with ``tests/fixtures/make_schema1.py``.
SCHEMA1_FIXTURES = Path(__file__).resolve().parent / "fixtures" / "schema1"


def fixture_answer(system: LOVO, expected: dict) -> list:
    """The fixture query's answer, in the layout of ``expected.json``."""
    response = system.query(QueryRequest(expected["query"], QueryOptions(top_n=expected["top_n"])))
    return [
        {
            "frame_id": result.frame_id,
            "patch_id": result.patch_id,
            "box": [result.box.x, result.box.y, result.box.w, result.box.h],
            "score": result.score,
        }
        for result in response.results
    ]


class TestSchemaOneFixtures:
    """Schema-1 snapshots and deltas (float64 vectors, indented ``frames.json``)
    still load, and answer exactly as the release that wrote them did."""

    @pytest.fixture(scope="class")
    def expected(self) -> dict:
        return json.loads((SCHEMA1_FIXTURES / "expected.json").read_text())

    @pytest.fixture
    def fixtures(self, tmp_path) -> Path:
        """A scratch copy, so no test can alter the committed files."""
        shutil.copytree(SCHEMA1_FIXTURES, tmp_path / "schema1")
        return tmp_path / "schema1"

    def test_fixtures_are_schema_one(self, fixtures):
        assert read_manifest(fixtures / "snapshot").schema_version == 1
        assert (fixtures / "snapshot" / "frames.json").is_file()
        entities = fixtures.glob("**/entities.npz")
        assert all(np.load(path)["vectors"].dtype == np.float64 for path in entities)
        delta = json.loads((fixtures / "deltastore/deltas/delta-000001/delta.json").read_text())
        assert delta["schema_version"] == 1

    def test_snapshot_answers_as_recorded(self, fixtures, expected):
        # IVF-PQ: ids, boxes, order and scores all bit-exact.
        assert fixture_answer(LOVO.load(fixtures / "snapshot"), expected) == expected["snapshot"]

    def test_delta_store_replays_as_recorded(self, fixtures, expected):
        system = DeltaSnapshotStore(fixtures / "deltastore").load_system()
        assert fixture_answer(system, expected) == expected["deltastore"]

    def test_resave_writes_schema_two_with_the_same_answers(self, fixtures, expected, tmp_path):
        loaded = LOVO.load(fixtures / "snapshot")
        stored = loaded.storage.collection
        rows = [stored.get_vector(external_id) for external_id in stored.ids()]
        assert all(row.dtype == np.float32 for row in rows)
        # Re-saving over the schema-1 directory leaves no schema-1 artifact.
        manifest = loaded.save(fixtures / "snapshot")
        assert manifest.schema_version == SNAPSHOT_SCHEMA_VERSION == 2
        assert "frames.json" not in manifest.artifacts
        assert "frames.json.gz" in manifest.artifacts
        reloaded = LOVO.load(fixtures / "snapshot")
        assert fixture_answer(reloaded, expected) == expected["snapshot"]
        again = reloaded.storage.collection
        for external_id, row in zip(stored.ids(), rows):
            assert np.array_equal(again.get_vector(external_id), row)

    def test_compacted_delta_store_answers_as_recorded(self, fixtures, expected):
        store = DeltaSnapshotStore(fixtures / "deltastore")
        compacted = store.compact()
        assert read_manifest(store.base_path).schema_version == 2
        assert store.deltas() == []
        assert fixture_answer(compacted, expected) == expected["deltastore"]
        assert fixture_answer(store.load_system(), expected) == expected["deltastore"]

    @pytest.mark.parametrize("version", [0, 3, -1])
    def test_other_schema_versions_are_rejected(self, fixtures, version):
        manifest_path = fixtures / "snapshot" / "manifest.json"
        document = json.loads(manifest_path.read_text())
        document["schema_version"] = version
        manifest_path.write_text(json.dumps(document))
        with pytest.raises(SnapshotVersionError):
            LOVO.load(fixtures / "snapshot")
