"""Vector collection: named set of vectors with string primary keys.

A collection is the Milvus-style unit the rest of the system talks to: it
maps external string ids (patch ids) to internal integer ids and answers
searches exactly (``"flat"``, the default :class:`~repro.config.IndexConfig`)
or through an approximate index it owns (``"ivfpq"`` or ``"hnsw"``).  It
stores nothing else per entity: what a patch id refers to (its key frame,
video and box) lives in the relational
:class:`~repro.vectordb.metadata.MetadataStore`, which
:class:`~repro.core.storage.LOVOStorage` joins to search hits by patch id.

The vectors themselves are one contiguous float32 matrix in insertion order:
every vector is rounded to float32 once, on insert, and all scoring runs in
float64 on the exact upcast of the stored rows.  A flat collection searches
that matrix itself, so it holds no index and no second copy of the rows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Type

import numpy as np

from repro.config import IndexConfig, parse_section
from repro.errors import SnapshotCorruptionError, VectorDatabaseError
from repro.utils.serialization import load_arrays, load_json, save_arrays, save_json
from repro.vectordb.base import (
    IndexHit,
    VectorIndex,
    as_query_matrix,
    as_single_query,
    exact_top_k,
)
from repro.vectordb.hnsw import HNSWIndex
from repro.vectordb.ivfpq import IVFPQIndex
from repro.utils.locking import create_rlock


@dataclass(frozen=True)
class SearchHit:
    """One search result.

    A collection leaves ``metadata`` empty; :class:`~repro.core.storage.
    LOVOStorage` fills it with the hit's ``frame_id`` and ``video_id``.
    """

    id: str
    score: float
    metadata: Mapping[str, object] = field(default_factory=dict)


#: Approximate index families by the ``"kind"`` tag their serialised state
#: carries.  A flat collection's state is ``{"kind": "flat"}`` alone.
INDEX_KINDS: Dict[str, Type[VectorIndex]] = {
    "hnsw": HNSWIndex,
    "ivfpq": IVFPQIndex,
}


def build_index(dim: int, config: IndexConfig) -> VectorIndex | None:
    """Instantiate the ANN index described by ``config``; ``None`` for flat,
    which searches the collection's own matrix."""
    if config.index_type == "flat":
        return None
    return INDEX_KINDS[config.index_type](dim, config)


class VectorCollection:
    """A named, indexable collection of unit-norm vectors."""

    def __init__(self, name: str, dim: int, config: IndexConfig | None = None) -> None:
        if not name:
            raise VectorDatabaseError("Collection name must be non-empty")
        if dim <= 0:
            raise VectorDatabaseError("Collection dimensionality must be positive")
        self._name = name
        self._dim = dim
        self._config = config or IndexConfig()
        self._index = build_index(dim, self._config)
        self._external_to_internal: Dict[str, int] = {}
        self._internal_to_external: List[str] = []
        # ``_buffer`` has room for more rows than are stored; ``_vectors`` is
        # the published view of the stored rows, ``_buffer[:num_entities]``.
        self._buffer = np.zeros((0, dim), dtype=np.float32)
        self._vectors = self._buffer
        self._built = False
        self._insert_lock = create_rlock("VectorCollection._insert_lock")

    @property
    def name(self) -> str:
        """Collection name."""
        return self._name

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return self._dim

    @property
    def index_type(self) -> str:
        """Which ANN index backs the collection."""
        return self._config.index_type

    @property
    def config(self) -> IndexConfig:
        """The index configuration."""
        return self._config

    @property
    def num_entities(self) -> int:
        """Number of stored vectors."""
        return len(self._internal_to_external)

    def insert(  # lovo: ignore[LOVO005] the id maps and vector matrix ARE the stored corpus
        self, ids: Sequence[str], vectors: np.ndarray
    ) -> None:
        """Insert entities, rounded to float32; ids must be unique within the
        collection."""
        data = np.asarray(vectors, dtype=np.float32)
        if data.ndim == 1:
            data = data[None, :]
        if data.shape[0] != len(ids):
            raise VectorDatabaseError(
                f"Got {len(ids)} ids for {data.shape[0]} vectors"
            )
        if data.shape[1] != self._dim:
            raise VectorDatabaseError(
                f"Collection {self._name!r} stores {self._dim}-d vectors, got {data.shape[1]}-d"
            )

        # Writers are serialised; concurrent searches stay lock-free.  The
        # rows are written first, then the id maps, then the view of the
        # stored rows is published with one assignment, and only then does
        # the index see the new internal ids.  So an id a racing reader can
        # look up already has its row in ``_buffer``, a row it can score
        # already has its id, and every index hit resolves to a complete
        # (external id, vector) pair — never a torn read.  Every id is
        # checked before anything is written, so a rejected batch leaves the
        # collection exactly as it was.
        with self._insert_lock:
            seen = set()
            for external_id in ids:
                if external_id in self._external_to_internal or external_id in seen:
                    raise VectorDatabaseError(
                        f"Duplicate id {external_id!r} in collection {self._name!r}"
                    )
                seen.add(external_id)
            start = len(self._internal_to_external)
            stop = start + len(ids)
            buffer = self._buffer
            if stop > buffer.shape[0]:
                # Grow by doubling into a new buffer: readers keep the old
                # one, whose first ``start`` rows stay valid and unchanged.
                grown = np.empty((max(stop, 2 * buffer.shape[0]), self._dim), dtype=np.float32)
                if start:
                    grown[:start] = buffer[:start]
                buffer = grown
            buffer[start:stop] = data
            self._buffer = buffer
            for position, external_id in enumerate(ids):
                self._external_to_internal[external_id] = start + position
                self._internal_to_external.append(external_id)
            self._vectors = buffer[:stop]
            if self._index is not None:
                self._index.add(list(range(start, stop)), data)
            self._built = False

    def flush(self) -> None:
        """Build (train) the underlying index; called automatically on search."""
        # Serialised against insert (and against other flushes): two racing
        # first-searches must not both run an IVFPQ training pass, and
        # ``_built`` must not be set back to True over an insert that just
        # cleared it.  The RLock keeps flush-under-insert re-entrant.
        with self._insert_lock:
            if self.num_entities == 0 or self._built:
                return
            if self._index is not None:
                self._index.build()
            self._built = True

    def search(self, query: np.ndarray, k: int) -> List[SearchHit]:
        """ANN search for one query vector: a batch of one."""
        return self.search_batch(as_single_query(query), k)[0]

    def search_batch(self, queries: np.ndarray, k: int) -> List[List[SearchHit]]:
        """ANN search for ``m`` queries at once; one hit list per query row.

        Delegates to the index's multi-query search so the per-batch work
        (matrix products, coarse-quantizer scoring) is shared across queries;
        a flat collection is its own exact index.
        """
        if self._index is None:
            return self.search_exhaustive_batch(queries, k)
        batch = self._as_query_matrix(queries)
        if self.num_entities == 0 or k <= 0:
            return [[] for _ in range(batch.shape[0])]
        if not self._built:
            self.flush()
        return [
            [self._to_search_hit(hit) for hit in row]
            for row in self._index.search_batch(batch, k)
        ]

    def search_exhaustive(self, query: np.ndarray, k: int) -> List[SearchHit]:
        """Exact brute-force search regardless of the configured index.

        Used by the "w/o ANNS" ablation of Table IV, and as the search of a
        flat collection.
        """
        return self.search_exhaustive_batch(as_single_query(query), k)[0]

    def search_exhaustive_batch(self, queries: np.ndarray, k: int) -> List[List[SearchHit]]:
        """Exact brute-force multi-query search over the published matrix."""
        batch = self._as_query_matrix(queries)
        matrix = self._vectors
        if matrix.shape[0] == 0 or k <= 0:
            return [[] for _ in range(batch.shape[0])]
        external = self._internal_to_external
        return [
            [SearchHit(id=external[position], score=score) for position, score in row]
            for row in exact_top_k(matrix, batch, k)
        ]

    def _to_search_hit(self, hit: IndexHit) -> SearchHit:
        return SearchHit(id=self._internal_to_external[hit.id], score=hit.score)

    def _as_query_matrix(self, queries: np.ndarray) -> np.ndarray:
        return as_query_matrix(
            queries, self._dim, context=f"collection {self._name!r} queries"
        )

    def get_vector(self, external_id: str) -> np.ndarray:
        """Return a copy of the stored (float32) vector for an id."""
        try:
            internal = self._external_to_internal[external_id]
        except KeyError as error:
            raise VectorDatabaseError(
                f"Id {external_id!r} not found in collection {self._name!r}"
            ) from error
        return self._buffer[internal].copy()

    def rows(self) -> np.ndarray:
        """All stored vectors as one read-only float32 matrix in insertion
        order (a view, not a copy)."""
        view = self._vectors.view()
        view.flags.writeable = False
        return view

    def ids(self) -> List[str]:
        """All external ids in insertion order."""
        return list(self._internal_to_external)

    def save(self, path: str | Path) -> None:
        """Persist the collection (vectors, ids, built index) to a directory.

        The index is finalised first so the serialised state answers queries
        identically to the in-memory collection; :meth:`load` restores it
        without replaying any inserts.
        """
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        if not self.num_entities:
            index_meta = None
        elif self._index is None:
            index_meta = {"kind": "flat"}
        else:
            self.flush()
            index_meta, index_arrays = self._index.to_state()
            save_arrays(root / "index.npz", index_arrays)
        save_json(
            root / "collection.json",
            {
                "name": self._name,
                "dim": self._dim,
                "num_entities": self.num_entities,
                "index_config": asdict(self._config),
                "index_meta": index_meta,
            },
        )
        entities: Dict[str, np.ndarray] = {
            "ids": (
                np.asarray(self._internal_to_external, dtype=np.str_)
                if self._internal_to_external
                else np.zeros(0, dtype="<U1")
            ),
        }
        # When the index state already carries the raw vectors in insertion
        # order (HNSW), storing them again here would double the snapshot's
        # dominant payload; load() pulls them from the index.
        if index_meta is None or "raw_vectors" not in index_meta:
            entities["vectors"] = self._vectors
        save_arrays(root / "entities.npz", entities)

    @classmethod
    def load(cls, path: str | Path) -> "VectorCollection":
        """Restore a collection saved by :meth:`save`."""
        root = Path(path)
        document = load_json(root / "collection.json")
        config = parse_section("index", document["index_config"])
        collection = cls(str(document["name"]), int(document["dim"]), config)
        entities = load_arrays(root / "entities.npz")
        ids = entities["ids"].tolist()
        # Snapshots written while collections kept per-entity metadata also
        # carry an "entity_metadata" list; it duplicates the metadata store
        # and is ignored.
        index_meta = document.get("index_meta")
        index_arrays = None
        if ids:
            if index_meta is None:
                raise SnapshotCorruptionError(
                    f"Collection {document['name']!r} has entities but no index state"
                )
            if index_meta.get("kind") != config.index_type:
                raise SnapshotCorruptionError(
                    f"Collection {document['name']!r} stores a {index_meta.get('kind')!r} "
                    f"index but is configured for {config.index_type!r}"
                )
            # Flat collections written before they stopped keeping an index
            # stored their rows in it as ``matrix`` (with ``ids``, their
            # positions); only the rows are read back.
            if index_meta.get("kind") != "flat" or "raw_vectors" in index_meta:
                index_arrays = load_arrays(root / "index.npz")
        # Schema-1 snapshots hold float64 rows; they are rounded here as an
        # insert rounds them, and an HNSW index restores from the rounded
        # rows too, so the loaded collection is float32 throughout.
        if "vectors" in entities:
            vectors = np.asarray(entities["vectors"], dtype=np.float32)
        else:
            raw_key = str((index_meta or {}).get("raw_vectors"))
            if index_arrays is None or raw_key not in index_arrays:
                raise SnapshotCorruptionError(
                    f"Collection {document['name']!r} snapshot stores no raw vectors"
                )
            vectors = index_arrays[raw_key] = np.asarray(
                index_arrays[raw_key], dtype=np.float32
            )
        if vectors.ndim != 2 or (vectors.shape[0] and vectors.shape[1] != collection._dim):
            raise SnapshotCorruptionError(
                f"Collection {document['name']!r} vectors must have shape "
                f"(n, {collection._dim}), got {vectors.shape}"
            )
        if not (len(ids) == vectors.shape[0] == int(document["num_entities"])):
            raise SnapshotCorruptionError(
                f"Collection {document['name']!r} snapshot is inconsistent: "
                f"{len(ids)} ids, {vectors.shape[0]} vectors, "
                f"{document['num_entities']} entities declared"
            )
        collection._internal_to_external = ids
        collection._external_to_internal = {
            external_id: position for position, external_id in enumerate(ids)
        }
        if len(collection._external_to_internal) != len(ids):
            raise SnapshotCorruptionError(
                f"Collection {document['name']!r} snapshot contains duplicate ids"
            )
        collection._buffer = collection._vectors = vectors
        if ids:
            if collection._index is not None:
                assert index_meta is not None and index_arrays is not None
                collection._index = INDEX_KINDS[config.index_type].from_state(
                    collection._dim, config, index_meta, index_arrays
                )
            collection._built = True
        return collection

    def storage_bytes(self) -> int:
        """Bytes the stored vectors take (for reporting)."""
        return int(self._vectors.nbytes)
