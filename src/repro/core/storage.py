"""Database Storage module (paper §V).

Stores the class embeddings produced by the video summary in a vector
collection (exact flat search by default) and the associated metadata — key-frame ids,
patch ids, bounding boxes — in the relational metadata store, linked by the
shared patch id.  The vector collection keeps only ids and vectors; each
search hit gets its key frame and video by a join on the patch id against the
metadata store, the one place they are stored.  Provides the lookups the
query strategy needs: ANN search over the embeddings, exhaustive search for
the w/o-ANNS ablation, and the patch records behind a hit.

The vector side is one :class:`~repro.shard.database.ShardedCollection`
(one shard unless configured otherwise), each shard a plain
:class:`~repro.vectordb.collection.VectorCollection`; there is no registry of
named collections.  :meth:`LOVOStorage.save` writes ``storage.json``,
``metadata.npz`` and the collection's ``vectordb/`` tree in the sharded
layout; :meth:`LOVOStorage.load` also reads the older unsharded layout.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro.config import IndexConfig, ShardConfig, parse_section
from repro.encoders.vision import PatchEncoding
from repro.errors import SnapshotCorruptionError, VectorDatabaseError
from repro.shard.database import ShardedCollection
from repro.utils.serialization import load_json, save_json
from repro.vectordb.base import as_single_query
from repro.vectordb.collection import SearchHit
from repro.vectordb.metadata import FrameRecord, MetadataStore, PatchRecord
from repro.video.model import Frame

class LOVOStorage:
    """Vector collection + relational metadata, linked by patch id.

    The vectors live in one :class:`~repro.shard.database.ShardedCollection`
    with ``shard_config.num_shards`` shards (one by default), each a plain
    :class:`~repro.vectordb.collection.VectorCollection`.  Answers are
    bit-identical at every shard count, so nothing above this class knows
    how many shards there are.
    """

    COLLECTION_NAME = "lovo_patches"

    def __init__(
        self,
        dim: int,
        index_config: IndexConfig | None = None,
        metadata: MetadataStore | None = None,
        shard_config: ShardConfig | None = None,
        collection: ShardedCollection | None = None,
    ) -> None:
        """Empty storage, or (from :meth:`load`) storage over a restored ``collection``."""
        self._dim = dim
        self._index_config = index_config or IndexConfig()
        self._metadata = metadata or MetadataStore()
        self._collection = collection or ShardedCollection(
            self.COLLECTION_NAME, dim, self._index_config, shard_config
        )

    @property
    def collection(self) -> ShardedCollection:
        """The underlying vector collection of class embeddings."""
        return self._collection

    def backend_status(self) -> Dict[str, object]:
        """Backend topology for health/stats endpoints and manifests.

        Always carries a ``"health"`` key: ``"ok"`` / ``"degraded"`` (some
        replicas down, every shard still answerable) / ``"unavailable"``
        (at least one shard has no healthy replica).  ``"sharded"`` is true
        when there is more than one shard.
        """
        return {"sharded": self._collection.num_shards > 1, **self._collection.status()}

    @property
    def metadata(self) -> MetadataStore:
        """The relational metadata store."""
        return self._metadata

    @property
    def num_entities(self) -> int:
        """Number of stored patch vectors."""
        return self._collection.num_entities

    @property
    def index_type(self) -> str:
        """The ANN index family backing the collection."""
        return self._collection.index_type

    def ingest(self, keyframes: Sequence[Frame], encodings: Sequence[PatchEncoding]) -> None:
        """Insert key frames and patch encodings, then build the index."""
        if not encodings:
            raise VectorDatabaseError("Cannot ingest an empty set of patch encodings")
        # Metadata rows first: a search racing this ingest may see the new
        # vectors as soon as they are inserted, and every hit must then
        # already have its row to join against.
        self._metadata.add_frames(
            FrameRecord(
                frame_id=frame.frame_id,
                video_id=frame.video_id,
                frame_index=frame.index,
                timestamp=frame.timestamp,
            )
            for frame in keyframes
        )
        self._metadata.add_patches(
            PatchRecord(
                patch_id=encoding.patch_id,
                frame_id=encoding.frame_id,
                video_id=encoding.video_id,
                patch_index=encoding.patch_index,
                box=encoding.box,
                objectness=encoding.objectness,
            )
            for encoding in encodings
        )
        ids = [encoding.patch_id for encoding in encodings]
        # Stacked straight into float32, the precision the collection
        # stores, so no float64 copy of the batch is made.
        vectors = np.stack(
            [encoding.class_embedding for encoding in encodings], dtype=np.float32
        )
        self._collection.insert(ids, vectors)
        self._collection.flush()

    def search(self, query_vector: np.ndarray, k: int, use_ann: bool = True) -> List[SearchHit]:
        """Top-``k`` patch search for one query vector: a batch of one."""
        return self.search_batch(as_single_query(query_vector), k, use_ann)[0]

    def search_batch(
        self, query_vectors: np.ndarray, k: int, use_ann: bool = True
    ) -> List[List[SearchHit]]:
        """Top-``k`` patch search for ``m`` query vectors at once; exhaustive
        when ``use_ann`` is false.

        Every hit's ``metadata`` is its ``{"frame_id", "video_id"}``, joined
        from the metadata store by patch id in one lookup for the whole
        batch, after the collection search and outside its locks.  A hit
        without a metadata row raises :class:`~repro.errors.MetadataError`.
        """
        if use_ann:
            hit_lists = self._collection.search_batch(query_vectors, k)
        else:
            hit_lists = self._collection.search_exhaustive_batch(query_vectors, k)
        rows = self._metadata.patch_frames(
            list(dict.fromkeys(hit.id for hits in hit_lists for hit in hits))
        )
        located = {
            patch_id: {"frame_id": frame_id, "video_id": video_id}
            for patch_id, (frame_id, video_id) in rows.items()
        }
        return [
            [SearchHit(hit.id, hit.score, located[hit.id]) for hit in hits]
            for hits in hit_lists
        ]

    def patch_record(self, patch_id: str) -> PatchRecord:
        """Relational record of one patch."""
        return self._metadata.get_patch(patch_id)

    def save(self, path: str | Path) -> None:
        """Persist the vector collection and metadata store to a directory."""
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        save_json(
            root / "storage.json",
            {"dim": self._dim, "index_config": asdict(self._index_config)},
        )
        self._collection.save(root / "vectordb")
        self._metadata.save(root / "metadata.npz")

    @classmethod
    def load(cls, path: str | Path) -> "LOVOStorage":
        """Restore storage saved by :meth:`save` without touching ingest."""
        root = Path(path)
        document = load_json(root / "storage.json")
        dim = int(document["dim"])
        index_config = parse_section("index", document["index_config"])
        collection = ShardedCollection.load(root / "vectordb", cls.COLLECTION_NAME)
        if collection.dim != dim or collection.index_type != index_config.index_type:
            raise SnapshotCorruptionError(
                f"Stored {cls.COLLECTION_NAME!r} collection "
                f"({collection.dim}-d, {collection.index_type}) does not match the "
                f"storage config ({dim}-d, {index_config.index_type})"
            )
        metadata = MetadataStore.load(root / "metadata.npz")
        return cls(dim, index_config, metadata, collection=collection)

    def storage_report(self) -> dict:
        """Summary of what is stored (used by reports and ablations)."""
        return {
            "num_entities": self.num_entities,
            "num_keyframes": self._metadata.count_frames(),
            "index_type": self.index_type,
            "vector_bytes": self._collection.storage_bytes(),
        }
