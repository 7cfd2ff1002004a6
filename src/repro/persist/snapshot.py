"""Whole-system snapshots: write once, serve from any process.

A snapshot directory captures everything a built LOVO system needs to answer
queries — configuration, the vector database (every index family serialises
its exact built state), the relational metadata store, the key-frame
registry with annotations, and the frame→scene map — so a fresh process can
:func:`load_system` and return bit-identical ``query()`` / ``query_batch()``
results without re-running the ingest pipeline.

Layout of a snapshot at ``<root>/``::

    manifest.json           schema version, repro version, config hash,
                            SHA-256 checksum of every other file (written last)
    config.json             full LOVOConfig (the system is deterministic
                            given this plus the stored state)
    system.json             dataset names, frame→scene map, ingest counters
    frames.json.gz          ordered key frames incl. object annotations
                            (gzip-compressed compact JSON)
    storage/storage.json    vector-store dimensionality and index config
    storage/metadata.npz    relational frame/patch records, patch rows in
                            the collection's global order (no patch ids)
    storage/vectordb/sharded.json
                            shard config and the collection's routing state
    storage/vectordb/sharded.npz
                            the shard of each global position (with the
                            shards' ids, the global insertion order) and
                            partitioner arrays
    storage/vectordb/shards/NNNN/database.json
                            names the shard's one collection (``0000`` only
                            when unsharded)
    storage/vectordb/shards/NNNN/collections/0000/...
                            that shard's ``VectorCollection``: its ids (the
                            one stored copy of each patch id) in
                            ``entities.npz``, IVF-PQ or HNSW index state in
                            ``index.npz`` (a flat collection has none), and
                            the float32 vectors once — in the HNSW index
                            state (``raw_vectors``), else in ``entities.npz``

Every ``.npz`` is written by :func:`~repro.utils.serialization.save_arrays`,
which stores a float array as byte planes when that makes it smaller.  The
vectors are one :class:`~repro.shard.database.ShardedCollection`.  Snapshots
whose ``storage/vectordb/`` holds the older unsharded layout
(``database.json`` + ``collections/``, no ``sharded.json``) load as a 1-shard
system.

This is schema version 3.  Schema-2 snapshots still load: their ``.npz``
files are plain ``np.savez_compressed`` archives, ``sharded.npz`` holds the
ordered ids (``c0000_order``) and ``metadata.npz`` its own ``patch_ids``.
So do schema-1 snapshots: they hold float64 vectors, which are rounded to
float32 on load exactly as an insert rounds them, and an indented
``frames.json``.  So do flat collections written when a flat index kept its
own copy of the rows (``index.npz`` holding ``matrix`` and ``ids``); only
``matrix`` is read back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence

import repro
from repro.config import LOVOConfig
from repro.core.storage import LOVOStorage
from repro.errors import PersistenceError, ReproError, SnapshotCorruptionError
from repro.persist.frames import (
    LEGACY_FRAMES_FILENAME,
    frames_from_list,
    frames_to_list,
    read_frames,
    write_frames,
)
from repro.persist.manifest import (
    SNAPSHOT_SCHEMA_VERSION,
    SnapshotManifest,
    collect_artifacts,
    config_hash,
    config_payload_hash,
    read_manifest,
    verify_artifacts,
    write_manifest,
)
from repro.utils.serialization import load_json, save_json
from repro.video.model import Frame


@dataclass
class RestoredSystem:
    """Everything :func:`load_system` recovers from a snapshot."""

    config: LOVOConfig
    storage: LOVOStorage
    keyframes: List[Frame]
    frame_scene: Dict[str, str] = field(default_factory=dict)
    datasets: List[str] = field(default_factory=list)
    frames_processed: int = 0
    total_frames: int = 0
    reranker_config: Dict[str, Any] | None = None
    manifest: SnapshotManifest | None = None


def save_system(
    path: str | Path,
    *,
    config: LOVOConfig,
    storage: LOVOStorage,
    keyframes: Sequence[Frame],
    frame_scene: Mapping[str, str],
    datasets: Sequence[str],
    frames_processed: int,
    total_frames: int,
    reranker_config: Mapping[str, Any] | None = None,
    info: Mapping[str, Any] | None = None,
) -> SnapshotManifest:
    """Write a complete system snapshot and return its manifest.

    The manifest is written last, after every artifact has been checksummed,
    so a directory with a valid manifest is a complete snapshot (a crash
    mid-save leaves no manifest and the directory fails to load cleanly).
    When overwriting an existing snapshot, its old manifest is removed first
    so the invariant also holds across a crashed re-save.
    """
    root = Path(path)
    try:
        root.mkdir(parents=True, exist_ok=True)
        (root / "manifest.json").unlink(missing_ok=True)
        # A schema-1 snapshot being overwritten: its frame registry file has
        # a different name, and would otherwise linger as an artifact.
        (root / LEGACY_FRAMES_FILENAME).unlink(missing_ok=True)
        save_json(root / "config.json", config.to_dict())
        save_json(
            root / "system.json",
            {
                "datasets": list(datasets),
                "frame_scene": dict(frame_scene),
                "frames_processed": int(frames_processed),
                "total_frames": int(total_frames),
                "reranker_config": dict(reranker_config) if reranker_config else None,
            },
        )
        write_frames(root, {"keyframes": frames_to_list(keyframes)})
        storage.save(root / "storage")
    except ReproError:
        raise
    except (OSError, ValueError, TypeError) as error:
        raise PersistenceError(f"Failed to write snapshot at {root}: {error}") from error

    manifest = SnapshotManifest(
        schema_version=SNAPSHOT_SCHEMA_VERSION,
        repro_version=repro.__version__,
        config_hash=config_hash(config),
        artifacts=collect_artifacts(root),
        info={
            "num_keyframes": len(keyframes),
            "num_entities": storage.num_entities,
            "index_type": storage.index_type,
            **(dict(info) if info else {}),
        },
    )
    write_manifest(root, manifest)
    return manifest


def load_system(path: str | Path) -> RestoredSystem:
    """Validate and load a snapshot written by :func:`save_system`.

    Validation runs before deserialisation: the manifest's schema version is
    checked (:class:`~repro.errors.SnapshotVersionError` on skew) and every
    artifact is re-checksummed (:class:`~repro.errors.SnapshotCorruptionError`
    on mismatch, :class:`~repro.errors.PersistenceError` on missing files).
    """
    root = Path(path)
    manifest = read_manifest(root)
    verify_artifacts(root, manifest)
    try:
        config_doc = load_json(root / "config.json")
        # Hash the payload *as stored*: parsing may add newer configuration
        # sections (with defaults) that an older snapshot legitimately lacks.
        if config_payload_hash(config_doc) != manifest.config_hash:
            raise SnapshotCorruptionError(
                f"Snapshot at {root} has a configuration that does not match "
                "its manifest's config hash"
            )
        config = LOVOConfig.from_dict(config_doc)
        system_doc = load_json(root / "system.json")
        frames_doc = read_frames(root, manifest.schema_version)
        keyframes = frames_from_list(frames_doc.get("keyframes", []))
        storage = LOVOStorage.load(root / "storage")
    except ReproError:
        raise
    except (OSError, KeyError, ValueError, TypeError) as error:
        raise SnapshotCorruptionError(
            f"Snapshot at {root} could not be deserialised: {error}"
        ) from error
    return RestoredSystem(
        config=config,
        storage=storage,
        keyframes=keyframes,
        frame_scene={
            str(k): str(v) for k, v in dict(system_doc.get("frame_scene", {})).items()
        },
        datasets=[str(name) for name in system_doc.get("datasets", [])],
        frames_processed=int(system_doc.get("frames_processed", 0)),
        total_frames=int(system_doc.get("total_frames", 0)),
        reranker_config=system_doc.get("reranker_config"),
        manifest=manifest,
    )
