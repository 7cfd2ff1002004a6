"""The vector store: one collection, partitioned across N shards.

:class:`ShardedCollection` is the one vector store of
:class:`~repro.core.storage.LOVOStorage`; an unsharded system is simply the
1-shard case.  Each shard is a plain
:class:`~repro.vectordb.collection.VectorCollection`, fronted by a replica
group.  Entities are partitioned across shards at insert time (hash or
k-means, see :mod:`repro.shard.partition`); searches fan out across all
shards through a :class:`~repro.shard.router.ShardRouter` (inline for one
shard, one thread per shard otherwise) and the per-shard top-``k`` lists are
merged into the exact global top-``k``.

Bit-exact parity with a single :class:`VectorCollection` over the same
inserts is the design invariant, at every shard count:

* **flat** — per-shard exact search over a row-subset of the same matrix;
  the union of per-shard top-``k`` provably contains the global top-``k``.
* **HNSW** — per-shard graphs are exact whenever ``ef_search`` covers the
  shard (the regime the parity tests pin); merged results then equal the
  exhaustive ranking.
* **IVF-PQ** — the subtle one.  Training per shard would produce different
  centroids and codebooks than the unsharded index, so instead one *global*
  index is trained on all vectors in global insertion order (bitwise the
  same computation as the unsharded build) and its inverted lists are then
  **split by shard membership** into per-shard indexes that share coarse
  centroids and PQ codebooks.  Every stored code, reconstruction, and
  probed-cluster ranking is then identical to the unsharded index, and the
  merge tie-breaks equal scores by global insertion order exactly like the
  unsharded ``lexsort`` on internal ids.

Snapshot layout (see :meth:`ShardedCollection.save`)::

    sharded.json            shard config and the collection's routing state
    sharded.npz             the shard of each global position (the global
                            insertion order, with the shards' ids) and the
                            partitioner arrays
    shards/NNNN/database.json
                            names the shard's one collection directory
    shards/NNNN/collections/0000/...
                            that shard's VectorCollection snapshot
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.config import IndexConfig, ShardConfig, parse_section
from repro.errors import ShardError, SnapshotCorruptionError, VectorDatabaseError
from repro.obs.trace import span as obs_span
from repro.shard.partition import Partitioner, make_partitioner
from repro.shard.router import ReplicaGroup, ShardRouter, merge_top_k_batches
from repro.utils.serialization import load_arrays, load_json, save_arrays, save_json
from repro.vectordb.base import as_query_matrix, as_single_query
from repro.vectordb.collection import SearchHit, VectorCollection
from repro.vectordb.ivfpq import IVFPQIndex
from repro.utils.locking import create_rlock

#: Keys of the IVF-PQ state arrays that describe inverted-list *membership*
#: (split per shard); everything else (centroids, codebooks) is shared.
_IVFPQ_LIST_KEYS = {"list_clusters", "list_offsets", "list_ids", "list_codes"}

#: ``sharded.npz`` members that hold the global order, not partitioner state:
#: the shard of each global position, or (schema 1 and 2) the ordered ids.
_GLOBAL_ORDER_KEYS = {"c0000_shards", "c0000_order"}

#: Where each shard directory keeps its one collection, relative to the shard.
_SHARD_COLLECTION_PATH = "collections/0000"


def _ivfpq_shard_index(
    dim: int,
    config: IndexConfig,
    shared: Mapping[str, np.ndarray],
    clusters: Sequence[int] = (),
    offsets: Sequence[int] = (0,),
    ids: Sequence[int] = (),
    codes: Sequence[np.ndarray] = (),
) -> IVFPQIndex:
    """A built IVF-PQ shard index: shared centroids/codebooks, its own lists."""
    arrays = dict(shared)
    arrays["list_clusters"] = np.asarray(clusters, dtype=np.int64)
    arrays["list_offsets"] = np.asarray(offsets, dtype=np.int64)
    arrays["list_ids"] = np.asarray(ids, dtype=np.int64)
    arrays["list_codes"] = (
        np.vstack(codes).astype(np.int32, copy=False)
        if len(codes)
        else np.zeros((0, config.num_subspaces), dtype=np.int32)
    )
    return IVFPQIndex.from_state(dim, config, {"kind": "ivfpq", "count": len(ids)}, arrays)


def _merge_shard_ids(shard_of_position: np.ndarray, shard_ids: Sequence[List[str]]) -> List[str]:
    """The global insertion order, from the shard of each global position and
    each shard's ids in its own insertion order (which keeps the global
    relative order: an insert hands each shard its ids in batch order)."""
    column = np.asarray(shard_of_position)
    counts = [len(ids) for ids in shard_ids]
    if (
        column.ndim != 1
        or column.dtype.kind not in "iu"
        or (column.size and not 0 <= int(column.min()) <= int(column.max()) < len(counts))
        or np.bincount(column.astype(np.int64), minlength=len(counts)).tolist() != counts
    ):
        raise SnapshotCorruptionError(
            "Sharded snapshot's shard-of-position column does not match the shards' sizes"
        )
    readers = [iter(ids) for ids in shard_ids]
    return [next(readers[shard]) for shard in column.tolist()]


def _save_shard(collection: VectorCollection, directory: Path) -> None:
    """Write one shard: its collection plus the ``database.json`` naming it."""
    collection.save(directory / _SHARD_COLLECTION_PATH)
    save_json(
        directory / "database.json",
        {"collections": [{"name": collection.name, "path": _SHARD_COLLECTION_PATH}]},
    )


def _load_shard(directory: Path, name: str) -> VectorCollection:
    """Read one shard written by :func:`_save_shard` (or an older unsharded
    database): its ``database.json`` must name exactly the collection ``name``."""
    entries = load_json(directory / "database.json").get("collections", [])
    names = [entry.get("name") for entry in entries]
    if names != [name]:
        raise SnapshotCorruptionError(
            f"Shard snapshot {str(directory)!r} must hold exactly the collection "
            f"{name!r}, found {names}"
        )
    collection = VectorCollection.load(directory / str(entries[0]["path"]))
    if collection.name != name:
        raise SnapshotCorruptionError(
            f"Collection at {entries[0]['path']!r} claims name {collection.name!r}, "
            f"manifest says {name!r}"
        )
    return collection


class ShardedCollection:
    """One named collection, partitioned across shard collections.

    Mirrors the :class:`VectorCollection` API (insert/flush/search/batch/
    exhaustive/get/ids/storage/save/load) so callers never branch on
    shardedness.  Each shard is fronted by a replica group: by default the
    ``num_replicas`` replicas route to the same in-process shard (giving the
    round-robin/health semantics without duplicating memory), and
    :meth:`add_replica` attaches independently loaded copies.
    """

    SHARD_DIR = "shards"

    def __init__(
        self,
        name: str,
        dim: int,
        config: IndexConfig | None = None,
        shard_config: ShardConfig | None = None,
        shards: Sequence[VectorCollection] | None = None,
    ) -> None:
        """Create an empty collection, or assemble one over loaded ``shards``."""
        self._name = name
        self._dim = dim
        self._config = config or IndexConfig()
        self._shard_config = shard_config or ShardConfig()
        if shards is None:
            shards = [
                VectorCollection(name, dim, self._config)
                for _ in range(self._shard_config.num_shards)
            ]
        self._primaries = list(shards)
        self._groups = [ReplicaGroup(index) for index in range(len(self._primaries))]
        for group, shard in zip(self._groups, self._primaries):
            for _ in range(self._shard_config.num_replicas):
                group.add(shard)
        self._router = ShardRouter(self._groups)
        self._partitioner: Partitioner = make_partitioner(self._shard_config)
        self._order: List[str] = []
        self._global_position: Dict[str, int] = {}
        self._assignment: Dict[str, int] = {}
        self._ivfpq_ready = False
        # Whether every stored vector is searchable without a flush.  It is
        # set only at the end of a flush, so it implies the global IVF-PQ
        # train has run: an IVF-PQ shard never trains itself.
        self._built = False
        # Serialises writers (streaming appends) and the one-time global
        # IVF-PQ train against each other; searches of a built collection
        # never take it.
        self._write_lock = create_rlock("ShardedCollection._write_lock")

    @property
    def name(self) -> str:
        """Collection name."""
        return self._name

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return self._dim

    @property
    def config(self) -> IndexConfig:
        """The (shared) index configuration of every shard."""
        return self._config

    @property
    def index_type(self) -> str:
        """Which ANN index family backs the shards."""
        return self._config.index_type

    @property
    def num_shards(self) -> int:
        """Number of shards the collection is partitioned across."""
        return len(self._primaries)

    @property
    def num_entities(self) -> int:
        """Number of stored vectors across all shards."""
        return len(self._order)

    @property
    def shard_collections(self) -> List[VectorCollection]:
        """The primary per-shard collections, indexed by shard."""
        return list(self._primaries)

    def shard_of(self, external_id: str) -> int:
        """Which shard stores an id (raises like a missing-id lookup)."""
        try:
            return self._assignment[external_id]
        except KeyError as error:
            raise VectorDatabaseError(
                f"Id {external_id!r} not found in collection {self._name!r}"
            ) from error

    def insert(self, ids: Sequence[str], vectors: np.ndarray) -> None:
        """Partition entities across shards; same contract as the unsharded insert.

        Vectors are rounded to float32 here, once, before the partitioner
        reads them, so a k-means assignment sees exactly the values the
        shards store (and a reloaded or replayed collection reproduces it).
        """
        data = np.asarray(vectors, dtype=np.float32)
        if data.ndim == 1:
            data = data[None, :]
        if data.shape[0] != len(ids):
            raise VectorDatabaseError(f"Got {len(ids)} ids for {data.shape[0]} vectors")
        if data.shape[1] != self._dim:
            raise VectorDatabaseError(
                f"Collection {self._name!r} stores {self._dim}-d vectors, got {data.shape[1]}-d"
            )
        batch_ids = [str(external_id) for external_id in ids]
        with self._write_lock:
            seen = set()
            for external_id in batch_ids:
                if external_id in self._global_position or external_id in seen:
                    raise VectorDatabaseError(
                        f"Duplicate id {external_id!r} in collection {self._name!r}"
                    )
                seen.add(external_id)

            assignments = self._partitioner.assign(batch_ids, data)
            if assignments.shape[0] != len(batch_ids):
                raise ShardError("Partitioner returned a misaligned assignment array")
            # Global bookkeeping is published *before* the vectors reach the
            # per-shard collections: a racing search that already sees a new
            # vector then resolves its merge tie-break to the final global
            # position, never the end-of-order fallback.
            start = len(self._order)
            for position, external_id in enumerate(batch_ids):
                self._global_position[external_id] = start + position
                self._order.append(external_id)
                self._assignment[external_id] = int(assignments[position])
            self._built = False
            try:
                for shard in range(self.num_shards):
                    positions = np.nonzero(assignments == shard)[0]
                    if positions.size == 0:
                        continue
                    if positions.size == len(batch_ids):
                        # The whole batch goes to this shard: no row copy.
                        self._primaries[shard].insert(batch_ids, data)
                        continue
                    self._primaries[shard].insert(
                        [batch_ids[int(p)] for p in positions], data[positions]
                    )
            except BaseException:
                # A failed batch must not leave ghost bookkeeping behind.
                for external_id in batch_ids:
                    self._global_position.pop(external_id, None)
                    self._assignment.pop(external_id, None)
                del self._order[start:]
                raise

    def flush(self) -> None:
        """Build every shard index (IVF-PQ: global train, then split per shard)."""
        if self.num_entities == 0:
            return
        with self._write_lock:
            if self._config.index_type == "ivfpq" and not self._ivfpq_ready:
                self._build_ivfpq_from_global_train()
            for collection in self._primaries:
                if collection.num_entities:
                    collection.flush()
            self._built = True

    def _build_ivfpq_from_global_train(self) -> None:
        """Train one global IVF-PQ index, then split its lists by shard.

        The trainer sees every vector in global insertion order with its
        global position as the internal id — bitwise the exact computation
        the unsharded collection performs — so centroids, codebooks, coarse
        assignments, and PQ codes all match the unsharded index.  Each
        shard then receives only its own members, with ids remapped to the
        shard-local internal ids (which preserve global relative order, so
        per-shard tie-breaking matches the global one).
        """
        if self.num_shards == 1:
            matrix = self._primaries[0].rows()
        else:
            # Scatter each shard's rows to their global positions.
            matrix = np.empty((len(self._order), self._dim), dtype=np.float32)
            for collection in self._primaries:
                positions = [self._global_position[i] for i in collection.ids()]
                matrix[positions] = collection.rows()
        trainer = IVFPQIndex(self._dim, self._config)
        trainer.add(list(range(len(self._order))), matrix)
        _, arrays = trainer.to_state()

        shared = {key: value for key, value in arrays.items() if key not in _IVFPQ_LIST_KEYS}
        clusters = arrays["list_clusters"]
        offsets = arrays["list_offsets"]
        member_ids = arrays["list_ids"]
        member_codes = arrays["list_codes"]

        local_of = [
            {external_id: local for local, external_id in enumerate(collection.ids())}
            for collection in self._primaries
        ]
        split_clusters: List[List[int]] = [[] for _ in self._primaries]
        split_offsets: List[List[int]] = [[0] for _ in self._primaries]
        split_ids: List[List[int]] = [[] for _ in self._primaries]
        split_codes: List[List[np.ndarray]] = [[] for _ in self._primaries]
        for slot, cluster in enumerate(clusters):
            start, stop = int(offsets[slot]), int(offsets[slot + 1])
            buckets: Dict[int, List[int]] = {}
            for member in range(start, stop):
                external_id = self._order[int(member_ids[member])]
                buckets.setdefault(self._assignment[external_id], []).append(member)
            for shard, members in buckets.items():
                split_clusters[shard].append(int(cluster))
                split_ids[shard].extend(
                    local_of[shard][self._order[int(member_ids[m])]] for m in members
                )
                split_codes[shard].append(member_codes[members])
                split_offsets[shard].append(len(split_ids[shard]))

        for shard, collection in enumerate(self._primaries):
            collection._index = _ivfpq_shard_index(
                self._dim,
                self._config,
                shared,
                split_clusters[shard],
                split_offsets[shard],
                split_ids[shard],
                split_codes[shard],
            )
            collection._built = True
        self._ivfpq_ready = True

    def _tie_rank(self, hit: SearchHit) -> int:
        return self._global_position.get(hit.id, len(self._order))

    def search(self, query: np.ndarray, k: int) -> List[SearchHit]:
        """Scatter-gather search for one query vector: a batch of one."""
        return self.search_batch(as_single_query(query), k)[0]

    def search_batch(self, queries: np.ndarray, k: int) -> List[List[SearchHit]]:
        """Scatter a query batch to every shard and merge row-wise top-``k``."""
        batch = as_query_matrix(
            queries, self._dim, context=f"collection {self._name!r} queries"
        )
        if self.num_entities == 0 or k <= 0:
            return [[] for _ in range(batch.shape[0])]
        if not self._built:
            self.flush()
        per_shard = self._router.scatter(lambda backend: backend.search_batch(batch, k))
        with obs_span("merge", num_shards=self.num_shards, k=k):
            return merge_top_k_batches(per_shard, k, self._tie_rank)

    def search_exhaustive(self, query: np.ndarray, k: int) -> List[SearchHit]:
        """Exact brute-force search, scattered and merged (w/o-ANNS ablation)."""
        return self.search_exhaustive_batch(as_single_query(query), k)[0]

    def search_exhaustive_batch(self, queries: np.ndarray, k: int) -> List[List[SearchHit]]:
        """Exact brute-force multi-query search across every shard."""
        batch = as_query_matrix(
            queries, self._dim, context=f"collection {self._name!r} queries"
        )
        if self.num_entities == 0 or k <= 0:
            return [[] for _ in range(batch.shape[0])]
        per_shard = self._router.scatter(
            lambda backend: backend.search_exhaustive_batch(batch, k)
        )
        with obs_span("merge", num_shards=self.num_shards, k=k):
            return merge_top_k_batches(per_shard, k, self._tie_rank)

    def get_vector(self, external_id: str) -> np.ndarray:
        """Return the stored vector for an id (routed to its shard)."""
        return self._primaries[self.shard_of(external_id)].get_vector(external_id)

    def ids(self) -> List[str]:
        """All external ids in global insertion order."""
        return list(self._order)

    def shard_sizes(self) -> List[int]:
        """Entity count per shard (diagnostics / balance reporting)."""
        return [collection.num_entities for collection in self._primaries]

    def storage_bytes(self) -> int:
        """Bytes the stored vectors take across all shards (for reporting)."""
        return sum(collection.storage_bytes() for collection in self._primaries)

    @property
    def router(self) -> ShardRouter:
        """The scatter-gather router (exposes replica health)."""
        return self._router

    @property
    def replica_groups(self) -> List[ReplicaGroup]:
        """Per-shard replica groups, indexed by shard."""
        return list(self._groups)

    def add_replica(self, shard_index: int, backend: object) -> None:
        """Attach one more replica backend to a shard's group.

        The backend must answer the shard's ``search_batch`` and
        ``search_exhaustive_batch`` calls identically (typically a
        separately loaded copy of the same shard snapshot).
        """
        if not 0 <= shard_index < len(self._groups):
            raise ShardError(
                f"Shard index {shard_index} out of range for {len(self._groups)} shards"
            )
        self._groups[shard_index].add(backend)

    def status(self) -> Dict[str, object]:
        """Shard/replica health and balance summary (for ``/v1/stats``).

        The overall ``"health"`` classifies the replica topology: ``"ok"``
        (every replica healthy), ``"degraded"`` (some replicas down but every
        shard still has at least one), or ``"unavailable"`` (a shard has no
        healthy replica left — scatter queries will fail).
        """
        shards = [
            {**group_status, "entities": primary.num_entities}
            for group_status, primary in zip(self._router.status(), self._primaries)
        ]
        if any(entry["healthy_replicas"] == 0 for entry in shards):
            health = "unavailable"
        elif any(entry["healthy_replicas"] < entry["replicas"] for entry in shards):
            health = "degraded"
        else:
            health = "ok"
        return {"num_shards": self.num_shards, "health": health, "shards": shards}

    def save(self, path: str | Path) -> None:
        """Persist the collection and every shard to a directory tree.

        Layout: ``sharded.json`` (shard config + the collection's routing
        state), ``sharded.npz`` (the shard of each global position, from
        which :meth:`load` merges the shards' ids back into the global
        insertion order, and the partitioner arrays), and ``shards/{i:04d}/`` — per shard, a ``database.json``
        naming its one :class:`VectorCollection` snapshot under
        ``collections/0000/``.  :meth:`load` tells this layout from the older
        unsharded one by the ``sharded.json`` marker.
        """
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        # Finalise before the shard saves run: IVF-PQ shards must be split
        # from the global trainer, never trained per shard.
        self.flush()
        partition_meta, partition_arrays = self._partitioner.to_state()
        # The ids are stored once, by the shards; the global order is kept
        # as the shard of each global position.
        assignment = self._assignment
        payload_arrays: Dict[str, np.ndarray] = {
            "c0000_shards": np.asarray(
                [assignment[external_id] for external_id in self._order], dtype=np.int64
            )
        }
        for key, value in partition_arrays.items():
            payload_arrays[f"c0000_{key}"] = value
        for index, shard in enumerate(self._primaries):
            _save_shard(shard, root / self.SHARD_DIR / f"{index:04d}")
        save_arrays(root / "sharded.npz", payload_arrays)
        save_json(
            root / "sharded.json",
            {
                "version": 1,
                "shard_config": asdict(self._shard_config),
                "collections": [
                    {
                        "name": self._name,
                        "dim": self._dim,
                        "partitioner": partition_meta,
                        "ivfpq_ready": self._ivfpq_ready,
                    }
                ],
            },
        )

    @classmethod
    def load(cls, path: str | Path, name: str) -> "ShardedCollection":
        """Restore the collection ``name``, loading its shards in order.

        A directory without ``sharded.json`` holds the layout written before
        every system was sharded: one shard's ``database.json`` +
        ``collections/`` at the root.  It is adopted as shard 0 of a 1-shard
        collection as it was saved — no re-insert and no retrain — with its
        insertion order as the global order.  A snapshot holding any other
        collection than ``name`` is corrupt.
        """
        root = Path(path)
        if not (root / "sharded.json").exists():
            shard = _load_shard(root, name)
            # The unsharded save() flushed first, so a non-empty IVF-PQ
            # index arrives trained, bitwise as the global train makes it.
            collection = cls(name, shard.dim, shard.config, shards=[shard])
            collection._restore(shard.ids(), bool(shard.num_entities))
            return collection
        payload = load_json(root / "sharded.json")
        shard_config = parse_section("shard", payload["shard_config"])
        entries = payload.get("collections", [])
        if [entry.get("name") for entry in entries] != [name]:
            raise SnapshotCorruptionError(
                f"Sharded snapshot must hold exactly the collection {name!r}, "
                f"found {[entry.get('name') for entry in entries]}"
            )
        shard_dirs = [
            root / cls.SHARD_DIR / f"{index:04d}" for index in range(shard_config.num_shards)
        ]
        missing = [str(directory) for directory in shard_dirs if not directory.is_dir()]
        if missing:
            raise SnapshotCorruptionError(
                f"Sharded snapshot is missing shard directories: {missing}"
            )
        # One shard after another: ``np.load`` parses each header with
        # ``ast.literal_eval``, and parallel parses have raised ``SystemError``
        # on CPython 3.11.
        shards = [_load_shard(directory, name) for directory in shard_dirs]

        entry = entries[0]
        collection = cls(name, int(entry["dim"]), shards[0].config, shard_config, shards)
        arrays = load_arrays(root / "sharded.npz") if (root / "sharded.npz").exists() else {}
        collection._partitioner = Partitioner.from_state(
            shard_config,
            entry.get("partitioner", {}),
            {
                key[len("c0000_") :]: value
                for key, value in arrays.items()
                if key.startswith("c0000_") and key not in _GLOBAL_ORDER_KEYS
            },
        )
        if "c0000_shards" in arrays:
            order = _merge_shard_ids(arrays["c0000_shards"], [shard.ids() for shard in shards])
        else:
            # Schema 1 and 2 stored the ordered ids themselves.
            stored_order = arrays.get("c0000_order")
            order = [] if stored_order is None else stored_order.tolist()
        collection._restore(order, bool(entry.get("ivfpq_ready", bool(order))))
        return collection

    def _restore(self, order: List[str], ivfpq_ready: bool) -> None:
        """Rebuild the global bookkeeping of loaded shards from the saved order."""
        assignment: Dict[str, int] = {}
        for shard_index, primary in enumerate(self._primaries):
            assignment.update(dict.fromkeys(primary.ids(), shard_index))
        if len(order) != len(assignment) or assignment.keys() != set(order):
            raise SnapshotCorruptionError(
                f"Sharded collection {self._name!r} order does not match shard membership"
            )
        self._order = order
        self._global_position = dict(zip(order, range(len(order))))
        self._assignment = assignment
        self._ivfpq_ready = ivfpq_ready
        empty = [shard for shard in self._primaries if not shard.num_entities]
        if ivfpq_ready and self.index_type == "ivfpq" and empty:
            # An empty shard saved no index state, yet it must keep sharing
            # the global centroids and codebooks, exactly as the live split
            # left it, or a later append to it would train its own.
            if len(empty) == len(self._primaries):
                raise SnapshotCorruptionError(
                    f"Sharded collection {self._name!r} claims a trained IVF-PQ index "
                    "but stores no vectors"
                )
            donor = next(shard for shard in self._primaries if shard.num_entities)
            _, donor_arrays = donor._index.to_state()
            shared = {
                key: value for key, value in donor_arrays.items() if key not in _IVFPQ_LIST_KEYS
            }
            for shard in empty:
                shard._index = _ivfpq_shard_index(self._dim, self._config, shared)
                shard._built = True
