"""Sharded scatter-gather layer: the system's one vector store.

Partition the collection across N shard collections (each a plain
:class:`~repro.vectordb.collection.VectorCollection`), fan queries out in
parallel, and merge per-shard top-k into exact global top-k — with replica
groups for round-robin routing and failover.  See :mod:`repro.shard.database`.
"""

from repro.shard.database import ShardedCollection
from repro.shard.partition import (
    HashPartitioner,
    KMeansPartitioner,
    Partitioner,
    make_partitioner,
    stable_shard_hash,
)
from repro.shard.router import (
    Replica,
    ReplicaGroup,
    ShardRouter,
    merge_top_k,
    merge_top_k_batches,
)

__all__ = [
    "HashPartitioner",
    "KMeansPartitioner",
    "Partitioner",
    "Replica",
    "ReplicaGroup",
    "ShardRouter",
    "ShardedCollection",
    "make_partitioner",
    "merge_top_k",
    "merge_top_k_batches",
    "stable_shard_hash",
]
