"""Fig. 11 — scalability of LOVO's individual modules.

Four sweeps matching the paper's sub-figures:

* (a) video-processing time versus number of key frames processed;
* (b) fast-search latency versus number of indexed entities;
* (c) fast-search time per entity for each dataset;
* (d) cross-modality rerank time versus number of reranked objects, where an
  object is one reranked token: a candidate row that passed the reranker's
  objectness filter.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.core.summary import VideoSummarizer
from repro.eval.reporting import format_table
from repro.eval.workloads import queries_for_dataset
from repro.vectordb.collection import VectorCollection
from repro.config import IndexConfig

from conftest import bench_lovo_config, report

DATASETS = ["cityscapes", "bellevue", "qvhighlights", "beach"]


def sweep_processing(bench_env) -> List[Dict[str, float]]:
    """(a) processing time as a function of the number of frames processed."""
    points = []
    summarizer = VideoSummarizer(bench_lovo_config())
    base = bench_env.dataset("bellevue", num_videos=3, frames_per_video=300)
    for frames in (150, 300, 600, 900):
        subset = base.subset(frames)
        start = time.perf_counter()
        output = summarizer.summarize(subset)
        elapsed = time.perf_counter() - start
        points.append({
            "frames": frames,
            "keyframes": output.num_keyframes,
            "seconds": elapsed,
            "seconds_per_frame": elapsed / frames,
        })
    return points


def sweep_index_size() -> List[Dict[str, float]]:
    """(b) fast-search latency as the number of indexed entities grows."""
    rng = np.random.default_rng(0)
    dim = 64
    points = []
    for num_entities in (2_000, 8_000, 32_000, 64_000):
        vectors = rng.normal(size=(num_entities, dim))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        collection = VectorCollection(
            "sweep", dim, IndexConfig(index_type="ivfpq", num_coarse_clusters=32, nprobe=4)
        )
        collection.insert([f"e{i}" for i in range(num_entities)], vectors)
        collection.flush()
        query = vectors[0]
        start = time.perf_counter()
        for _ in range(5):
            collection.search(query, 100)
        elapsed = (time.perf_counter() - start) / 5
        points.append({"entities": num_entities, "search_seconds": elapsed})
    return points


def sweep_per_entity(bench_env) -> List[Dict[str, float]]:
    """(c) fast-search time per indexed entity on every dataset."""
    points = []
    for dataset_name in DATASETS:
        system, _ingest = bench_env.system("LOVO", dataset_name)
        spec = queries_for_dataset(dataset_name)[0]
        response = system.query(spec.text)
        fast = response.timings.get("fast_search", 0.0)
        points.append({
            "dataset": dataset_name,
            "entities": system.num_entities,
            "seconds_per_entity": fast / max(system.num_entities, 1),
        })
    return points


def sweep_rerank(bench_env) -> List[Dict[str, float]]:
    """(d) rerank time as a function of the number of reranked objects."""
    system, _ingest = bench_env.system("LOVO", "bellevue")
    summarizer = system.summarizer
    parser = system.text_encoder
    parsed = parser.parse("A red car driving in the center of the road.")
    dataset = bench_env.dataset("bellevue")
    frames = [frame for video in dataset.videos for frame in video.frames[::10]]

    reranker = system._reranker  # internal access acceptable in benchmarks
    candidates = [
        reranker.candidate(frame.frame_id, summarizer.encode_single_frame(frame, scene="bellevue"))
        for frame in frames
    ]
    points = []
    for count in (5, 15, 30, 60):
        subset = candidates[:count]
        start = time.perf_counter()
        reranker.rerank(parsed, subset)
        elapsed = time.perf_counter() - start
        num_objects = sum(len(candidate.patch_ids) for candidate in subset)
        points.append({"objects": num_objects, "rerank_seconds": elapsed})
    return points


def test_fig11_module_scalability(benchmark, bench_env):
    processing, index_sweep, per_entity, rerank_sweep = benchmark.pedantic(
        lambda env: (sweep_processing(env), sweep_index_size(), sweep_per_entity(env), sweep_rerank(env)),
        args=(bench_env,), rounds=1, iterations=1,
    )

    sections = []
    sections.append(format_table(
        ["frames", "keyframes", "processing (s)", "s / frame"],
        [[p["frames"], p["keyframes"], f"{p['seconds']:.3f}", f"{p['seconds_per_frame']:.5f}"]
         for p in processing],
        title="Fig. 11(a): processing time vs frame count",
    ))
    sections.append(format_table(
        ["entities", "fast search (s)"],
        [[p["entities"], f"{p['search_seconds']:.5f}"] for p in index_sweep],
        title="Fig. 11(b): fast-search time vs index size",
    ))
    sections.append(format_table(
        ["dataset", "entities", "search seconds per entity"],
        [[p["dataset"], p["entities"], f"{p['seconds_per_entity']:.2e}"] for p in per_entity],
        title="Fig. 11(c): fast-search time per entity",
    ))
    sections.append(format_table(
        ["objects reranked", "rerank (s)"],
        [[p["objects"], f"{p['rerank_seconds']:.3f}"] for p in rerank_sweep],
        title="Fig. 11(d): rerank time vs number of objects",
    ))
    report("fig11_module_scalability", "\n\n".join(sections))

    # Shape assertions: processing is roughly linear in the number of frames;
    # fast search grows far slower than the index (sub-linear); rerank grows
    # with the number of reranked objects.
    assert processing[-1]["seconds"] > processing[0]["seconds"]
    ratio_frames = processing[-1]["frames"] / processing[0]["frames"]
    ratio_seconds = processing[-1]["seconds"] / max(processing[0]["seconds"], 1e-9)
    assert ratio_seconds < ratio_frames * 3
    entity_growth = index_sweep[-1]["entities"] / index_sweep[0]["entities"]
    latency_growth = index_sweep[-1]["search_seconds"] / max(index_sweep[0]["search_seconds"], 1e-9)
    assert latency_growth < entity_growth
    assert rerank_sweep[-1]["rerank_seconds"] > rerank_sweep[0]["rerank_seconds"]
