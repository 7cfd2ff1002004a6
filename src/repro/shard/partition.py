"""Shard partitioners: decide which shard stores each entity.

Two strategies, both deterministic and snapshot-persistable so that a loaded
sharded database routes further inserts exactly like the original process:

* :class:`HashPartitioner` — a stable BLAKE2b hash of the *external id*
  modulo the shard count.  Stateless, uniform, and independent of the vector
  values, so re-ingesting the same ids always lands them on the same shards.
* :class:`KMeansPartitioner` — Lloyd's k-means over the first inserted batch
  of vectors; every vector (including later inserts) is routed to the shard
  whose centroid is nearest.  Keeps geometrically close vectors together,
  which concentrates each query's true neighbours on few shards.
"""

from __future__ import annotations

import abc
import hashlib
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.config import PARTITION_ITERATIONS, PARTITION_SEED, ShardConfig
from repro.errors import ShardError, SnapshotCorruptionError
from repro.vectordb.kmeans import lloyd_kmeans


def stable_shard_hash(external_id: str, num_shards: int) -> int:
    """Stable shard index of one external id (independent of ``PYTHONHASHSEED``)."""
    digest = hashlib.blake2b(external_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


class Partitioner(abc.ABC):
    """Maps entities (ids + vectors) to shard indices in ``[0, num_shards)``."""

    kind: str = ""

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ShardError("Partitioner needs a positive shard count")
        self._num_shards = num_shards

    @property
    def num_shards(self) -> int:
        """Number of shards this partitioner routes across."""
        return self._num_shards

    @abc.abstractmethod
    def assign(self, ids: Sequence[str], vectors: np.ndarray) -> np.ndarray:
        """Shard index per entity, as an ``(n,)`` int64 array."""

    def to_state(self) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """Serialise the partitioner as JSON-able meta plus array payloads."""
        return {"kind": self.kind, "num_shards": self._num_shards}, {}

    @classmethod
    def from_state(
        cls,
        config: ShardConfig,
        meta: Mapping[str, object],
        arrays: Mapping[str, np.ndarray],
    ) -> "Partitioner":
        """Rebuild a partitioner, dispatching on the serialised ``kind``."""
        kind = str(meta.get("kind", ""))
        num_shards = int(meta.get("num_shards", config.num_shards))
        if kind == HashPartitioner.kind:
            return HashPartitioner(num_shards)
        if kind == KMeansPartitioner.kind:
            partitioner = KMeansPartitioner(num_shards)
            centroids = arrays.get("partition_centroids")
            if centroids is not None and centroids.size:
                partitioner._centroids = np.asarray(centroids, dtype=np.float64)
            return partitioner
        raise SnapshotCorruptionError(f"Unknown partitioner kind {kind!r} in snapshot")


class HashPartitioner(Partitioner):
    """Route each entity by a stable hash of its external id."""

    kind = "hash"

    def assign(self, ids: Sequence[str], vectors: np.ndarray) -> np.ndarray:
        return np.asarray(
            [stable_shard_hash(str(external_id), self._num_shards) for external_id in ids],
            dtype=np.int64,
        )


class KMeansPartitioner(Partitioner):
    """Route each entity to the shard whose centroid is nearest its vector.

    Centroids are trained once, on the first batch of vectors seen; later
    batches (incremental ingest) are assigned against the frozen centroids so
    routing stays stable over the lifetime of the database.
    """

    kind = "kmeans"

    def __init__(
        self,
        num_shards: int,
        seed: int = PARTITION_SEED,
        iterations: int = PARTITION_ITERATIONS,
    ) -> None:
        super().__init__(num_shards)
        self._seed = seed
        self._iterations = iterations
        self._centroids: np.ndarray | None = None

    @property
    def trained(self) -> bool:
        """Whether shard centroids have been trained yet."""
        return self._centroids is not None

    def assign(self, ids: Sequence[str], vectors: np.ndarray) -> np.ndarray:
        data = np.asarray(vectors, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] != len(ids):
            raise ShardError(
                f"KMeansPartitioner needs an (n, dim) vector block matching {len(ids)} ids; "
                f"got shape {data.shape}"
            )
        if self._centroids is None:
            result = lloyd_kmeans(
                data,
                num_clusters=min(self._num_shards, data.shape[0]),
                max_iterations=self._iterations,
                seed=self._seed,
            )
            self._centroids = result.centroids
            return result.assignments.astype(np.int64)
        distances = (
            (data**2).sum(axis=1, keepdims=True)
            + (self._centroids**2).sum(axis=1)
            - 2.0 * (data @ self._centroids.T)
        )
        return distances.argmin(axis=1).astype(np.int64)

    def to_state(self) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        meta, arrays = super().to_state()
        if self._centroids is not None:
            arrays["partition_centroids"] = self._centroids
        return meta, arrays


def make_partitioner(config: ShardConfig) -> Partitioner:
    """Instantiate the partitioner named by a :class:`ShardConfig`."""
    if config.partitioner == "kmeans":
        return KMeansPartitioner(config.num_shards)
    return HashPartitioner(config.num_shards)
