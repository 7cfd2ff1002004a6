"""Sharded vector database: N shard databases behind one scatter-gather facade.

:class:`ShardedDatabase` is the one vector backend of
:class:`~repro.core.storage.LOVOStorage`; an unsharded system is simply the
1-shard case.  Each shard is a plain :class:`~repro.vectordb.database.
VectorDatabase`, and a :class:`ShardedCollection` mirrors the
:class:`~repro.vectordb.collection.VectorCollection` API over the per-shard
collections.  Entities are partitioned across shards at insert time (hash or
k-means, see :mod:`repro.shard.partition`); searches fan out across all
shards through a :class:`~repro.shard.router.ShardRouter` (inline for one
shard, one thread per shard otherwise) and the per-shard top-``k`` lists are
merged into the exact global top-``k``.

Bit-exact parity with a single :class:`VectorDatabase` over the same inserts
is the design invariant, at every shard count:

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
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro.config import IndexConfig, ShardConfig, parse_section
from repro.errors import (
    CollectionExistsError,
    CollectionNotFoundError,
    ShardError,
    SnapshotCorruptionError,
    VectorDatabaseError,
)
from repro.obs.trace import span as obs_span
from repro.shard.partition import Partitioner, make_partitioner
from repro.shard.router import ReplicaGroup, ShardRouter, merge_top_k_batches
from repro.utils.serialization import load_arrays, load_json, save_arrays, save_json
from repro.vectordb.base import as_query_matrix, as_single_query
from repro.vectordb.collection import SearchHit, VectorCollection
from repro.vectordb.database import VectorDatabase
from repro.vectordb.ivfpq import IVFPQIndex
from repro.utils.locking import create_rlock

#: Keys of the IVF-PQ state arrays that describe inverted-list *membership*
#: (split per shard); everything else (centroids, codebooks) is shared.
_IVFPQ_LIST_KEYS = {"list_clusters", "list_offsets", "list_ids", "list_codes"}


class ShardedCollection:
    """One named collection, partitioned across shard collections.

    Mirrors the :class:`VectorCollection` API (insert/flush/search/batch/
    exhaustive/get/ids/storage) so callers never branch on shardedness.
    """

    def __init__(
        self,
        name: str,
        dim: int,
        config: IndexConfig,
        partitioner: Partitioner,
        primaries: Sequence[VectorCollection],
        router: ShardRouter,
    ) -> None:
        self._name = name
        self._dim = dim
        self._config = config
        self._partitioner = partitioner
        self._primaries = list(primaries)
        self._router = router
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
        """Partition entities across shards; same contract as the unsharded insert."""
        data = np.asarray(vectors, dtype=np.float64)
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
        matrix = np.vstack(
            [
                self._primaries[self._assignment[external_id]].get_vector(external_id)
                for external_id in self._order
            ]
        )
        trainer = IVFPQIndex(self._dim, self._config)
        trainer.add(list(range(len(self._order))), matrix)
        meta, arrays = trainer.to_state()

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
            shard_arrays = dict(shared)
            shard_arrays["list_clusters"] = np.asarray(split_clusters[shard], dtype=np.int64)
            shard_arrays["list_offsets"] = np.asarray(split_offsets[shard], dtype=np.int64)
            shard_arrays["list_ids"] = np.asarray(split_ids[shard], dtype=np.int64)
            shard_arrays["list_codes"] = (
                np.vstack(split_codes[shard]).astype(np.int32, copy=False)
                if split_codes[shard]
                else np.zeros((0, self._config.num_subspaces), dtype=np.int32)
            )
            shard_meta = {"kind": "ivfpq", "count": len(split_ids[shard])}
            collection._index = IVFPQIndex.from_state(
                self._dim, self._config, shard_meta, shard_arrays
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
        name = self._name
        per_shard = self._router.scatter(
            lambda backend: backend.get_collection(name).search_batch(batch, k)
        )
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
        name = self._name
        per_shard = self._router.scatter(
            lambda backend: backend.get_collection(name).search_exhaustive_batch(batch, k)
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
        """Approximate memory footprint of the raw vectors (for reporting)."""
        return self.num_entities * self._dim * 8


class ShardedDatabase:
    """Scatter-gather facade over ``num_shards`` :class:`VectorDatabase` shards.

    Mirrors the :class:`VectorDatabase` API; collections created through it
    are :class:`ShardedCollection` objects whose entities are spread across
    the shard databases and whose searches are merged back into exact global
    rankings.  Each shard is fronted by a replica group: by default the
    ``num_replicas`` replicas route to the same in-process shard (giving the
    round-robin/health semantics without duplicating memory), and
    :meth:`add_replica` attaches independently loaded copies.
    """

    SHARD_DIR = "shards"

    def __init__(self, config: ShardConfig | None = None) -> None:
        self._config = config or ShardConfig()
        self._collections: Dict[str, ShardedCollection] = {}
        self._install_shards([VectorDatabase() for _ in range(self._config.num_shards)])

    def _install_shards(self, shards: Sequence[VectorDatabase]) -> None:
        self._shards = list(shards)
        self._groups = [ReplicaGroup(index) for index in range(len(self._shards))]
        for group, shard in zip(self._groups, self._shards):
            for _ in range(self._config.num_replicas):
                group.add(shard)
        self._router = ShardRouter(self._groups)

    @property
    def num_shards(self) -> int:
        """Number of shard databases."""
        return len(self._shards)

    @property
    def shard_config(self) -> ShardConfig:
        """The sharding configuration."""
        return self._config

    @property
    def shards(self) -> List[VectorDatabase]:
        """The primary shard databases, indexed by shard."""
        return list(self._shards)

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

        The backend must answer the same queries as the shard (typically a
        separately loaded copy of the same shard snapshot).
        """
        if not 0 <= shard_index < len(self._groups):
            raise ShardError(
                f"Shard index {shard_index} out of range for {len(self._groups)} shards"
            )
        self._groups[shard_index].add(backend)

    def create_collection(
        self, name: str, dim: int, config: IndexConfig | None = None
    ) -> ShardedCollection:
        """Create a sharded collection; raises if the name is taken."""
        if name in self._collections:
            raise CollectionExistsError(f"Collection {name!r} already exists")
        index_config = config or IndexConfig()
        primaries = [shard.create_collection(name, dim, index_config) for shard in self._shards]
        collection = ShardedCollection(
            name,
            dim,
            index_config,
            make_partitioner(self._config),
            primaries,
            self._router,
        )
        self._collections[name] = collection
        return collection

    def get_collection(self, name: str) -> ShardedCollection:
        """Fetch an existing sharded collection by name."""
        try:
            return self._collections[name]
        except KeyError as error:
            raise CollectionNotFoundError(f"Collection {name!r} does not exist") from error

    def has_collection(self, name: str) -> bool:
        """Whether a collection with ``name`` exists."""
        return name in self._collections

    def drop_collection(self, name: str) -> None:
        """Delete a collection from every shard; raises if it does not exist."""
        if name not in self._collections:
            raise CollectionNotFoundError(f"Collection {name!r} does not exist")
        del self._collections[name]
        for shard in self._shards:
            if shard.has_collection(name):
                shard.drop_collection(name)

    def search(self, name: str, query: np.ndarray, k: int) -> List[SearchHit]:
        """Single-query scatter-gather search against a named collection."""
        return self.get_collection(name).search(query, k)

    def search_batch(self, name: str, queries: np.ndarray, k: int) -> List[List[SearchHit]]:
        """Multi-query scatter-gather search (one merged list per row)."""
        return self.get_collection(name).search_batch(queries, k)

    def list_collections(self) -> List[str]:
        """Names of all collections."""
        return sorted(self._collections)

    def total_entities(self) -> int:
        """Total number of vectors across every collection."""
        return sum(collection.num_entities for collection in self._collections.values())

    def status(self) -> Dict[str, object]:
        """Shard/replica health and balance summary (for ``/v1/stats``).

        The overall ``"health"`` classifies the replica topology: ``"ok"``
        (every replica healthy), ``"degraded"`` (some replicas down but every
        shard still has at least one), or ``"unavailable"`` (a shard has no
        healthy replica left — scatter queries will fail).
        """
        shards = []
        for index, group_status in enumerate(self._router.status()):
            entry = dict(group_status)
            entry["entities"] = sum(
                collection.shard_collections[index].num_entities
                for collection in self._collections.values()
            )
            shards.append(entry)
        if any(entry["healthy_replicas"] == 0 for entry in shards):
            health = "unavailable"
        elif any(entry["healthy_replicas"] < entry["replicas"] for entry in shards):
            health = "degraded"
        else:
            health = "ok"
        return {"num_shards": self.num_shards, "health": health, "shards": shards}

    def save(self, path: str | Path) -> None:
        """Persist the whole sharded database to a directory tree.

        Layout: ``sharded.json`` (shard config + per-collection routing
        state), ``sharded.npz`` (global insertion order and partitioner
        arrays), and ``shards/{i:04d}/`` — one full, self-contained
        :class:`VectorDatabase` snapshot per shard.  :meth:`load` tells this
        layout from the older unsharded one by the ``sharded.json`` marker.
        """
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        entries = []
        payload_arrays: Dict[str, np.ndarray] = {}
        for slot, name in enumerate(self.list_collections()):
            collection = self._collections[name]
            # Finalise before the shard saves run: IVF-PQ shards must be
            # split from the global trainer, never trained per shard.
            collection.flush()
            partition_meta, partition_arrays = collection._partitioner.to_state()
            entries.append(
                {
                    "name": name,
                    "dim": collection.dim,
                    "partitioner": partition_meta,
                    "ivfpq_ready": collection._ivfpq_ready,
                }
            )
            payload_arrays[f"c{slot:04d}_order"] = (
                np.asarray(collection._order, dtype=np.str_)
                if collection._order
                else np.zeros(0, dtype="<U1")
            )
            for key, value in partition_arrays.items():
                payload_arrays[f"c{slot:04d}_{key}"] = value
        for index, shard in enumerate(self._shards):
            shard.save(root / self.SHARD_DIR / f"{index:04d}")
        save_arrays(root / "sharded.npz", payload_arrays)
        save_json(
            root / "sharded.json",
            {
                "version": 1,
                "shard_config": asdict(self._config),
                "collections": entries,
            },
        )

    @classmethod
    def load(cls, path: str | Path) -> "ShardedDatabase":
        """Restore a sharded database, loading all shards in parallel.

        A directory without ``sharded.json`` holds the layout written before
        every system was sharded: one :class:`VectorDatabase` snapshot
        (``database.json`` + ``collections/``) at the root.  It is adopted
        as shard 0 of a 1-shard database as it was saved — no re-insert and
        no retrain — with each collection's insertion order as the global
        order.
        """
        root = Path(path)
        if not (root / "sharded.json").exists():
            return cls._adopt_unsharded(VectorDatabase.load(root))
        payload = load_json(root / "sharded.json")
        config = parse_section("shard", payload["shard_config"])
        shard_dirs = [
            root / cls.SHARD_DIR / f"{index:04d}" for index in range(config.num_shards)
        ]
        missing = [str(directory) for directory in shard_dirs if not directory.is_dir()]
        if missing:
            raise SnapshotCorruptionError(
                f"Sharded snapshot is missing shard directories: {missing}"
            )
        if config.num_shards > 1:
            with ThreadPoolExecutor(max_workers=config.num_shards) as pool:
                shards = list(pool.map(VectorDatabase.load, shard_dirs))
        else:
            shards = [VectorDatabase.load(shard_dirs[0])]

        database = cls._with_shards(config, shards)
        arrays = load_arrays(root / "sharded.npz") if (root / "sharded.npz").exists() else {}
        for slot, entry in enumerate(payload.get("collections", [])):
            prefix = f"c{slot:04d}_"
            partition_arrays = {
                key[len(prefix) :]: value
                for key, value in arrays.items()
                if key.startswith(prefix) and key != f"{prefix}order"
            }
            stored_order = arrays.get(f"{prefix}order")
            order = [] if stored_order is None else [str(i) for i in stored_order.tolist()]
            database._restore_collection(
                str(entry["name"]),
                int(entry["dim"]),
                Partitioner.from_state(config, entry.get("partitioner", {}), partition_arrays),
                order,
                bool(entry.get("ivfpq_ready", bool(order))),
            )
        return database

    @classmethod
    def _adopt_unsharded(cls, shard: VectorDatabase) -> "ShardedDatabase":
        config = ShardConfig()
        database = cls._with_shards(config, [shard])
        for name in shard.list_collections():
            collection = shard.get_collection(name)
            order = collection.ids()
            # The unsharded save() flushed first, so a non-empty IVF-PQ
            # index arrives trained, bitwise as the global train makes it.
            database._restore_collection(
                name, collection.dim, make_partitioner(config), order, bool(order)
            )
        return database

    @classmethod
    def _with_shards(
        cls, config: ShardConfig, shards: Sequence[VectorDatabase]
    ) -> "ShardedDatabase":
        database = cls(config)
        database._router.close()
        database._install_shards(shards)
        return database

    def _restore_collection(
        self,
        name: str,
        dim: int,
        partitioner: Partitioner,
        order: List[str],
        ivfpq_ready: bool,
    ) -> None:
        primaries = []
        for shard in self._shards:
            if not shard.has_collection(name):
                raise SnapshotCorruptionError(f"Shard snapshot is missing collection {name!r}")
            primaries.append(shard.get_collection(name))
        collection = ShardedCollection(
            name, dim, primaries[0].config, partitioner, primaries, self._router
        )
        assignment: Dict[str, int] = {}
        for shard_index, primary in enumerate(primaries):
            assignment.update(dict.fromkeys(primary.ids(), shard_index))
        if len(order) != len(assignment) or assignment.keys() != set(order):
            raise SnapshotCorruptionError(
                f"Sharded collection {name!r} order does not match shard membership"
            )
        collection._order = order
        collection._global_position = dict(zip(order, range(len(order))))
        collection._assignment = assignment
        collection._ivfpq_ready = ivfpq_ready
        self._collections[name] = collection
