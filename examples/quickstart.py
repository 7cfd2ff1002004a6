"""Quickstart: index a synthetic traffic dataset and run complex object queries.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import LOVO, LOVOConfig, QueryOptions, QueryRequest
from repro.video import make_bellevue


def main() -> None:
    # 1. Build a (synthetic) video dataset — the stand-in for the Bellevue
    #    Traffic surveillance footage used in the paper.
    dataset = make_bellevue(num_videos=2, frames_per_video=300)
    print(f"Dataset: {dataset.name}, {dataset.num_videos} videos, {dataset.num_frames} frames")

    # 2. One-time ingestion: key-frame extraction, patch encoding, and
    #    index construction in the vector database.  This is query-agnostic —
    #    it happens once regardless of how many queries follow.
    system = LOVO(LOVOConfig())
    summary = system.ingest(dataset)
    # No query has run yet, so the phase totals are processing + indexing.
    print(
        f"Ingested {summary.num_keyframes} key frames "
        f"({summary.num_entities} patch vectors) "
        f"in {sum(system.time_distribution().values()):.2f}s"
    )

    # 3. Complex object queries in natural language.  Neither query maps to a
    #    fixed detector class: the first one adds a colour and a spatial
    #    constraint, the second uses an unseen class name ("SUV").
    queries = [
        "A red car driving in the center of the road.",
        "A red car side by side with another car, both positioned in the center of the road.",
        "A black SUV driving in the intersection of the road.",
    ]
    for text in queries:
        response = system.query(QueryRequest(text, QueryOptions(top_n=5)))
        print(f"\nQuery: {text}")
        print(f"  fast search: {response.timings['fast_search'] * 1000:.1f} ms, "
              f"rerank: {response.timings['rerank'] * 1000:.1f} ms")
        for rank, result in enumerate(response.top(3), start=1):
            x, y, w, h = result.box.to_array()
            print(f"  #{rank} frame={result.frame_id} score={result.score:.3f} "
                  f"box=({x:.2f}, {y:.2f}, {w:.2f}, {h:.2f})")


if __name__ == "__main__":
    main()
