"""Write the schema-3 fixtures under ``tests/fixtures/schema3/``.

Schema 3 byte-planes float arrays in every ``.npz``, stores the patch ids
once (in each shard's ``entities.npz``; ``sharded.npz`` holds the shard of
each global position and ``metadata.npz`` its patch rows in that order) and
writes deltas without patch embeddings.  The fixtures pin that layout for
the releases after it, so regenerate them only from a release that still
writes schema 3, from this repository's root::

    PYTHONPATH=src python tests/fixtures/make_schema3.py

It saves a one-video flat system on two shards (large enough that its
vectors are byte-planed) as ``snapshot/``, a delta
store whose base holds that video and whose one delta holds a second as
``deltastore/``, and the answers both systems gave to :data:`QUERY` as
``expected.json``.  ``tests/test_serialization_planes.py::
TestRecordedFixtures`` loads them, with the schema-1 and schema-2 fixtures,
and checks the answers.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro import LOVO, LOVOConfig, QueryOptions, QueryRequest
from repro.config import EncoderConfig, IndexConfig, KeyframeConfig, QueryConfig, ShardConfig
from repro.persist import DeltaSnapshotStore
from repro.video.datasets import make_bellevue

ROOT = Path(__file__).resolve().parent / "schema3"
QUERY = "A red car driving in the center of the road"
TOP_N = 8


def fixture_config() -> LOVOConfig:
    """A deliberately tiny system, so the committed fixtures stay small; two
    shards, so the stored global order interleaves two id lists."""
    return LOVOConfig(
        encoder=EncoderConfig(embedding_dim=32, class_embedding_dim=32, patch_grid=4),
        keyframes=KeyframeConfig(strategy="uniform", uniform_stride=10),
        index=IndexConfig(index_type="flat"),
        query=QueryConfig(fast_search_k=32, rerank_n=8, max_candidate_frames=6),
        shard=ShardConfig(num_shards=2),
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
    first = make_bellevue(num_videos=1, frames_per_video=100, seed=0)
    second = make_bellevue(num_videos=1, frames_per_video=40, seed=1)

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
