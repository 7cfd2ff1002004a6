"""Scatter-gather routing over shard replica groups.

The :class:`ShardRouter` is the fan-out heart of the sharded database: a call
is dispatched to every shard in parallel on a thread pool, each shard answers
from one of its replicas (round-robin over the healthy ones), and the
per-shard top-``k`` lists are merged into the exact global top-``k``.

Replica health is managed here too: a replica whose call raises an unexpected
error is marked unhealthy and the call fails over to the next replica of the
same group, so one dead replica degrades capacity instead of dropping
queries.  A group with a single replica has nothing to fail over to: its
error reaches the caller unchanged and the replica stays in rotation, so one
failed call never takes the shard down for good.  Deterministic *request*
errors (dimension mismatches, validation failures) are
propagated immediately — they would fail identically on every replica, so
failing over would only mask the bug and poison the health state.
"""

from __future__ import annotations

import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.errors import (
    ConfigurationError,
    DimensionMismatchError,
    QueryError,
    ShardError,
    ShardUnavailableError,
)
from repro.obs.registry import REGISTRY
from repro.obs.trace import record_span, span as obs_span, tracing_active
from repro.vectordb.collection import SearchHit
from repro.utils.locking import create_lock

T = TypeVar("T")

#: Per-replica call latency, labelled by shard, replica, and outcome
#: ("ok" / "error" / "request_error").  Lives in the module-level registry
#: because the router sits below any engine that could own it.
SHARD_CALL_SECONDS = REGISTRY.histogram(
    "lovo_shard_call_seconds",
    "Latency of individual shard replica calls.",
    ("shard", "replica", "outcome"),
)

#: Failovers per shard: calls that moved on to another replica after an
#: unexpected error marked the serving replica unhealthy.
SHARD_FAILOVERS = REGISTRY.counter(
    "lovo_shard_failovers_total",
    "Shard calls that failed over to another replica.",
    ("shard",),
)

#: Errors that indicate a bad *request*, not a bad replica: every replica of a
#: group would raise them identically, so the router propagates them without
#: touching replica health.
NON_FAILOVER_ERRORS = (
    ConfigurationError,
    DimensionMismatchError,
    QueryError,
    ShardError,
)


class Replica:
    """One routable copy of a shard's data, with its own health state."""

    def __init__(self, backend: object, shard_index: int, replica_index: int) -> None:
        self.backend = backend
        self.shard_index = shard_index
        self.replica_index = replica_index
        self.healthy = True

    @property
    def name(self) -> str:
        """Stable display name, e.g. ``shard-2/replica-0``."""
        return f"shard-{self.shard_index}/replica-{self.replica_index}"


class ReplicaGroup:
    """The replicas of one shard, with round-robin selection over healthy ones."""

    def __init__(self, shard_index: int) -> None:
        self.shard_index = shard_index
        self._replicas: List[Replica] = []
        self._cursor = 0
        self._lock = create_lock("ReplicaGroup._lock")

    def add(self, backend: object) -> Replica:
        """Register one more replica backend; returns its handle."""
        with self._lock:
            replica = Replica(backend, self.shard_index, len(self._replicas))
            self._replicas.append(replica)
            return replica

    @property
    def replicas(self) -> List[Replica]:
        """All replicas of the group (healthy or not)."""
        with self._lock:
            return list(self._replicas)

    def rotation(self) -> List[Replica]:
        """Healthy replicas in round-robin order, advancing the cursor.

        The first element differs call to call, spreading load across
        replicas; the rest of the list is the failover order for this call.
        """
        with self._lock:
            healthy = [replica for replica in self._replicas if replica.healthy]
            if not healthy:
                return []
            start = self._cursor % len(healthy)
            self._cursor += 1
            return healthy[start:] + healthy[:start]

    def mark_unhealthy(self, replica: Replica) -> None:
        """Take a replica out of the rotation (e.g. after a failed call)."""
        replica.healthy = False

    def mark_healthy(self, replica: Replica) -> None:
        """Return a replica to the rotation (e.g. after recovery)."""
        replica.healthy = True

    def status(self) -> Dict[str, object]:
        """Health summary used by the serving ``/v1/stats`` endpoint."""
        with self._lock:
            healthy = sum(1 for replica in self._replicas if replica.healthy)
            return {
                "shard": self.shard_index,
                "replicas": len(self._replicas),
                "healthy_replicas": healthy,
            }


class ShardRouter:
    """Fan calls out across shard replica groups and merge their answers."""

    def __init__(self, groups: Sequence[ReplicaGroup]) -> None:
        if not groups:
            raise ShardError("ShardRouter needs at least one replica group")
        self._groups = list(groups)
        # A single shard is answered inline — no pool, no dispatch overhead —
        # so the 1-shard configuration behaves like the classic database;
        # otherwise one thread per shard.
        self._executor: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(max_workers=len(self._groups), thread_name_prefix="lovo-shard")
            if len(self._groups) > 1
            else None
        )

    @property
    def num_shards(self) -> int:
        """Number of shard groups routed over."""
        return len(self._groups)

    @property
    def groups(self) -> List[ReplicaGroup]:
        """The replica groups, indexed by shard."""
        return list(self._groups)

    def scatter(self, fn: Callable[[object], T]) -> List[T]:
        """Run ``fn(backend)`` once per shard (in parallel) and gather results.

        Each shard's call is answered by one healthy replica, failing over on
        unexpected errors; the returned list is ordered by shard index.  When
        a trace is active, the scatter records one ``shard_search`` span per
        replica attempt — pool threads inherit the caller's trace context via
        a fresh ``contextvars`` copy per shard (a single context object must
        not run in two threads at once).
        """
        if self._executor is None:
            with obs_span("scatter", num_shards=len(self._groups)):
                return [self._call_with_failover(group, fn) for group in self._groups]
        with obs_span("scatter", num_shards=len(self._groups)):
            propagate = tracing_active()
            futures = []
            for group in self._groups:
                if propagate:
                    context = contextvars.copy_context()
                    futures.append(
                        self._executor.submit(
                            context.run, self._call_with_failover, group, fn
                        )
                    )
                else:
                    futures.append(
                        self._executor.submit(self._call_with_failover, group, fn)
                    )
            return [future.result() for future in futures]

    @staticmethod
    def _result_size(result: object) -> Optional[int]:
        """Candidate count of one shard call's result, when it is hit-shaped.

        ``search`` answers a list of hits, ``search_batch`` a list of
        per-query hit lists; anything else (ids, stats dicts) has no
        candidate count and stays unannotated.
        """
        if not isinstance(result, list):
            return None
        if not result:
            return 0
        if all(isinstance(entry, list) for entry in result):
            return sum(len(entry) for entry in result)
        if all(isinstance(entry, SearchHit) for entry in result):
            return len(result)
        return None

    def _call_with_failover(self, group: ReplicaGroup, fn: Callable[[object], T]) -> T:
        last_error: Optional[BaseException] = None
        shard = str(group.shard_index)
        failed_over = False
        for replica in group.rotation():
            start = time.perf_counter()
            try:
                result = fn(replica.backend)
            except NON_FAILOVER_ERRORS:
                end = time.perf_counter()
                SHARD_CALL_SECONDS.observe(
                    end - start, shard=shard, replica=replica.name, outcome="request_error"
                )
                record_span(
                    "shard_search",
                    start,
                    end,
                    shard=group.shard_index,
                    replica=replica.name,
                    outcome="request_error",
                    failover=failed_over,
                )
                raise
            except Exception as error:  # noqa: BLE001 - replica failure → fail over
                end = time.perf_counter()
                SHARD_CALL_SECONDS.observe(
                    end - start, shard=shard, replica=replica.name, outcome="error"
                )
                record_span(
                    "shard_search",
                    start,
                    end,
                    shard=group.shard_index,
                    replica=replica.name,
                    outcome="error",
                    failover=failed_over,
                )
                if len(group.replicas) == 1:
                    # No replica to fail over to: the caller gets the error
                    # itself and the shard keeps answering later calls.
                    raise
                SHARD_FAILOVERS.inc(shard=shard)
                group.mark_unhealthy(replica)
                failed_over = True
                last_error = error
                continue
            end = time.perf_counter()
            SHARD_CALL_SECONDS.observe(
                end - start, shard=shard, replica=replica.name, outcome="ok"
            )
            hits = self._result_size(result) if tracing_active() else None
            if hits is None:
                record_span(
                    "shard_search",
                    start,
                    end,
                    shard=group.shard_index,
                    replica=replica.name,
                    outcome="ok",
                    failover=failed_over,
                )
            else:
                record_span(
                    "shard_search",
                    start,
                    end,
                    shard=group.shard_index,
                    replica=replica.name,
                    outcome="ok",
                    failover=failed_over,
                    hits=hits,
                )
            return result
        raise ShardUnavailableError(
            f"Shard {group.shard_index} has no healthy replica left"
        ) from last_error

    def status(self) -> List[Dict[str, object]]:
        """Per-shard replica health, ordered by shard index."""
        return [group.status() for group in self._groups]

    def close(self) -> None:
        """Shut the scatter pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None


def merge_top_k(
    per_shard: Sequence[Sequence[SearchHit]],
    k: int,
    tie_rank: Callable[[SearchHit], int] | None = None,
) -> List[SearchHit]:
    """Exact global top-``k`` from per-shard top-``k`` hit lists.

    Each input list already holds its shard's best ``k`` hits, so the global
    winners are guaranteed to be in the union; a sort of the (small) union
    suffices.  ``tie_rank`` breaks exact score ties deterministically —
    the sharded collection passes global insertion order so merged results
    match the single-database ordering even when distinct entities share a
    score (e.g. IVF-PQ entities that share a PQ code).  A single list is
    already its own merge and keeps its order: its index ranked ties the way
    a lone database does, and re-sorting could only move them.
    """
    if len(per_shard) == 1:
        return list(per_shard[0][:k])
    union = [hit for hits in per_shard for hit in hits]
    if tie_rank is None:
        union.sort(key=lambda hit: -hit.score)
    else:
        union.sort(key=lambda hit: (-hit.score, tie_rank(hit)))
    return union[:k]


def merge_top_k_batches(
    per_shard: Sequence[Sequence[Sequence[SearchHit]]],
    k: int,
    tie_rank: Callable[[SearchHit], int] | None = None,
) -> List[List[SearchHit]]:
    """Row-wise :func:`merge_top_k` over per-shard *batched* results."""
    if not per_shard:
        return []
    num_rows = len(per_shard[0])
    if any(len(rows) != num_rows for rows in per_shard):
        raise ShardError("Shards returned differing batch sizes")
    return [
        merge_top_k([rows[row] for rows in per_shard], k, tie_rank)
        for row in range(num_rows)
    ]
