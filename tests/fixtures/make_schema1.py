"""Write the schema-1 back-compat fixtures under ``tests/fixtures/schema1/``.

The fixtures must come from the last release that wrote schema-1 snapshots
(float64 ``entities.npz``, indented ``frames.json``; commit ``ca76da9``), so
run this script against a checkout of that commit, from this repository's
root::

    git archive ca76da9 | tar -x -C <dir>
    PYTHONPATH=<dir>/src python tests/fixtures/make_schema1.py

It saves a one-video IVF-PQ system as ``snapshot/``, a delta store whose base
holds that video and whose one delta holds a second as ``deltastore/``, and
the answers both systems gave to :data:`QUERY` as ``expected.json``.
``tests/test_persist.py::TestSchemaOneFixtures`` loads them with the current
code and checks the answers.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro import LOVO, LOVOConfig, QueryOptions, QueryRequest
from repro.config import EncoderConfig, IndexConfig, KeyframeConfig, QueryConfig
from repro.persist import DeltaSnapshotStore
from repro.video.datasets import make_bellevue

ROOT = Path(__file__).resolve().parent / "schema1"
QUERY = "A red car driving in the center of the road"
TOP_N = 8


def fixture_config() -> LOVOConfig:
    """A deliberately tiny system, so the committed fixtures stay small."""
    return LOVOConfig(
        encoder=EncoderConfig(embedding_dim=32, class_embedding_dim=16, patch_grid=4),
        keyframes=KeyframeConfig(strategy="uniform", uniform_stride=10),
        index=IndexConfig(num_subspaces=4, num_centroids=8, num_coarse_clusters=4, nprobe=2),
        query=QueryConfig(fast_search_k=32, rerank_n=8, max_candidate_frames=6),
    )


def answer(system: LOVO) -> list:
    response = system.query(QueryRequest(QUERY, QueryOptions(top_n=TOP_N)))
    return [
        {
            "frame_id": result.frame_id,
            "patch_id": result.patch_id,
            "box": [result.box.x, result.box.y, result.box.w, result.box.h],
            "score": result.score,
        }
        for result in response.results
    ]


def main() -> None:
    if ROOT.exists():
        shutil.rmtree(ROOT)
    ROOT.mkdir(parents=True)
    first = make_bellevue(num_videos=1, frames_per_video=30, seed=0)
    second = make_bellevue(num_videos=1, frames_per_video=20, seed=1)

    system = LOVO(fixture_config())
    system.ingest(first)
    system.save(ROOT / "snapshot")
    expected = {"query": QUERY, "top_n": TOP_N, "snapshot": answer(system)}

    store = DeltaSnapshotStore(ROOT / "deltastore")
    store.initialize(system)
    summary = system.summarizer.summarize(second)
    store.append(second.name, summary)
    system.ingest_summary(second.name, summary)
    expected["deltastore"] = answer(system)

    (ROOT / "expected.json").write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
