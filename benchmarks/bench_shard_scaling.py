"""Scatter-gather scaling: single-query throughput, 1 shard vs 4 shards.

The sharded collection's performance claim is that fanning one query out
across N shards cuts its latency toward 1/N of the single-shard scan —
the per-shard matrices are N times smaller and are scanned concurrently
(NumPy releases the GIL inside the BLAS, so shard threads genuinely overlap).

This benchmark builds the same 120k x 96 flat-index collection behind a
1-shard and a 4-shard :class:`~repro.shard.ShardedCollection` (the 1-shard
router answers inline, so the baseline pays zero scatter overhead) and
compares single-query QPS.  Run it with BLAS threading pinned
(``OPENBLAS_NUM_THREADS=1`` etc., as the CI job does) — otherwise the
baseline's GEMMs multi-thread internally and the comparison measures BLAS
configuration, not sharding.

Acceptance gates: >= 2x single-query throughput at 4 shards, and every
sharded answer bit-identical to the 1-shard answer.  The speedup gate only
applies when the machine exposes at least 4 cores — thread-level
scatter-gather cannot beat a single thread on fewer cores, so on smaller
boxes the benchmark still runs (and still enforces parity) but reports the
scaling numbers without failing.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np
import pytest

from repro.config import IndexConfig, ShardConfig
from repro.eval.reporting import format_table
from repro.shard import ShardedCollection

from conftest import report

NUM_VECTORS = 120_000
DIM = 96
NUM_QUERIES = 30
TOP_K = 10
SHARD_COUNTS = (1, 2, 4)
#: The acceptance gate: minimum single-query speedup at 4 shards.
MIN_SPEEDUP_AT_4 = 2.0
#: The speedup gate needs one core per shard to be physically meaningful.
MIN_CORES_FOR_GATE = 4


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _build_collection(
    num_shards: int, ids: List[str], vectors: np.ndarray
) -> ShardedCollection:
    collection = ShardedCollection(
        "bench", DIM, IndexConfig(index_type="flat"), ShardConfig(num_shards=num_shards)
    )
    collection.insert(ids, vectors)
    collection.flush()
    return collection


def _hit_key(hits) -> List[tuple]:
    return [(hit.id, hit.score) for hit in hits]


def run_shard_scaling() -> Dict[int, Dict[str, float]]:
    """Single-query QPS per shard count over one shared synthetic corpus."""
    rng = np.random.default_rng(1234)
    ids = [f"vec-{i:06d}" for i in range(NUM_VECTORS)]
    vectors = rng.normal(size=(NUM_VECTORS, DIM))
    queries = rng.normal(size=(NUM_QUERIES, DIM))

    results: Dict[int, Dict[str, float]] = {}
    baseline_answers: List[List[tuple]] = []
    for num_shards in SHARD_COUNTS:
        collection = _build_collection(num_shards, ids, vectors)
        # Warm up once (finalises builds, faults pages in) before timing.
        collection.search(queries[0], TOP_K)
        answers = []
        start = time.perf_counter()
        for query in queries:
            answers.append(_hit_key(collection.search(query, TOP_K)))
        elapsed = time.perf_counter() - start
        if num_shards == SHARD_COUNTS[0]:
            baseline_answers = answers
        else:
            # Parity gate: scatter-gather must change nothing but the speed.
            assert answers == baseline_answers, f"parity broke at {num_shards} shards"
        results[num_shards] = {
            "qps": NUM_QUERIES / elapsed,
            "p_latency_ms": 1000.0 * elapsed / NUM_QUERIES,
        }
        collection.router.close()

    base_qps = results[SHARD_COUNTS[0]]["qps"]
    for num_shards in SHARD_COUNTS:
        results[num_shards]["speedup"] = results[num_shards]["qps"] / base_qps
    return results


def test_shard_scaling(benchmark):
    results = benchmark.pedantic(run_shard_scaling, rounds=1, iterations=1)

    rows = [
        [
            str(num_shards),
            f"{values['qps']:.1f}",
            f"{values['p_latency_ms']:.2f}",
            f"{values['speedup']:.2f}x",
        ]
        for num_shards, values in sorted(results.items())
    ]
    table = format_table(
        ["shards", "queries/s", "mean latency (ms)", "speedup"],
        rows,
        title=(
            f"Scatter-gather scaling (flat index, {NUM_VECTORS:,} vectors, "
            f"dim {DIM}, single-query top-{TOP_K})"
        ),
    )
    cores = _available_cores()
    report("shard_scaling", table + f"\navailable cores: {cores}\n")

    # Acceptance gate: 4 shards must at least double single-query throughput
    # (the parity asserts inside the run already guaranteed bit-identical
    # answers at every shard count).  Shard fan-out runs on threads, so the
    # gate only binds where the hardware can actually run shards concurrently.
    if cores < MIN_CORES_FOR_GATE:
        pytest.skip(
            f"speedup gate needs >= {MIN_CORES_FOR_GATE} cores, found {cores} "
            "(parity checks still ran)"
        )
    assert results[4]["speedup"] >= MIN_SPEEDUP_AT_4, (
        f"4-shard speedup {results[4]['speedup']:.2f}x below {MIN_SPEEDUP_AT_4}x"
    )
