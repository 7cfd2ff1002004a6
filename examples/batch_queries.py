"""Batched multi-query search: answer a whole queue of queries in one pass.

Run with:  python examples/batch_queries.py

Simulates the production setting the paper targets — many users querying one
ingested video collection — and compares a sequential ``query()`` loop with
the batched engine's ``query_batch()``, which amortises text encoding, ANN
probes, and candidate-frame re-encoding across the batch.
"""

from __future__ import annotations

import time

from repro import LOVO, LOVOConfig
from repro.video import make_bellevue


def main() -> None:
    dataset = make_bellevue(num_videos=2, frames_per_video=300)
    system = LOVO(LOVOConfig())
    system.ingest(dataset)
    print(f"Ingested {system.num_keyframes} key frames, {system.num_entities} patch vectors")

    # A realistic request queue: a handful of distinct queries, many repeats.
    distinct = [
        "A red car driving in the center of the road.",
        "A red car side by side with another car, both positioned in the center of the road.",
        "A black SUV driving in the intersection of the road.",
        "A white truck on the road.",
    ]
    queue = (distinct * 8)[:32]

    start = time.perf_counter()
    sequential = [system.query(text) for text in queue]
    sequential_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch = system.query_batch(queue)
    batch_seconds = time.perf_counter() - start

    assert all(
        [r.frame_id for r in a.results] == [r.frame_id for r in b.results]
        for a, b in zip(sequential, batch)
    ), "batched results must match sequential results"

    print(f"\nBatch of {batch.batch_size} queries "
          f"({batch.metadata['num_unique_queries']} unique, "
          f"{batch.metadata['num_unique_candidate_frames']} candidate frames, "
          f"{batch.metadata['num_built_candidate_frames']} re-encoded: "
          "the sequential loop left the rest in the candidate cache)")
    print(f"  sequential loop: {sequential_seconds:.2f}s "
          f"({len(queue) / sequential_seconds:.0f} queries/s)")
    print(f"  query_batch:     {batch_seconds:.2f}s "
          f"({len(queue) / batch_seconds:.0f} queries/s, "
          f"{sequential_seconds / batch_seconds:.1f}x)")

    best = batch[0].top(1)[0]
    print(f"\nTop hit for {queue[0]!r}: frame={best.frame_id} score={best.score:.3f}")


if __name__ == "__main__":
    main()
