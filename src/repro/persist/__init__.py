"""Snapshot persistence subsystem: save/load the whole built LOVO system.

The paper's economics are "summarise and index once, serve queries forever"
(§IV–§VI); this package makes the "once" durable.  A snapshot is a directory
with a versioned, checksummed ``manifest.json`` plus JSON / ``.npz``
artifacts (written through the canonical codec in
:mod:`repro.utils.serialization`) capturing every layer of a built system:
all three index families, the vector collections, the relational metadata
store, and the key-frame registry.

High-level entry points live on the objects themselves —
``LOVO.save(path)`` / ``LOVO.load(path)``, and ``save()``/``load()`` on
``VectorCollection``, ``ShardedCollection`` (the one vector store; each
shard a ``VectorCollection``), and ``LOVOStorage``.  The whole-system entry
points are :func:`save_system` / :func:`load_system` here.
"""

from repro.persist.delta import DeltaSnapshotStore
from repro.persist.manifest import (
    MANIFEST_FILENAME,
    SNAPSHOT_SCHEMA_VERSION,
    SnapshotManifest,
    read_manifest,
    sha256_file,
    verify_artifacts,
)
from repro.persist.snapshot import RestoredSystem, load_system, save_system

__all__ = [
    "MANIFEST_FILENAME",
    "SNAPSHOT_SCHEMA_VERSION",
    "SnapshotManifest",
    "DeltaSnapshotStore",
    "RestoredSystem",
    "read_manifest",
    "sha256_file",
    "verify_artifacts",
    "save_system",
    "load_system",
]
