"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(§VII).  Datasets and ingested systems are cached at session scope so the
expensive offline processing is paid once per system per dataset, exactly as
in the paper's methodology (one-time processing, many queries).

Each benchmark prints its paper-style table to stdout and also appends it to
``benchmarks/results/<experiment>.txt`` so results survive pytest's output
capture.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, Tuple

import pytest

from repro import LOVO, LOVOConfig
from repro.baselines import (
    FiGOBaseline,
    HybridBaseline,
    MIRISBaseline,
    UMTBaseline,
    VISABaseline,
    VOCALBaseline,
    ZELDABaseline,
)
from repro.config import EncoderConfig, IndexConfig, KeyframeConfig, QueryConfig
from repro.video.datasets import make_dataset
from repro.video.model import VideoDataset

RESULTS_DIR = Path(__file__).parent / "results"

#: Benchmark-scale datasets: the library defaults (three videos of 300 frames
#: per dataset) — large enough that every Table II query has ground-truth
#: instances and the latency orderings are stable, small enough that the whole
#: harness completes in a few minutes.
BENCH_NUM_VIDEOS = 3
BENCH_FRAMES_PER_VIDEO = 300

#: Encoder configuration shared by every system in the benchmarks.
BENCH_ENCODER = EncoderConfig(embedding_dim=128, class_embedding_dim=64, patch_grid=8)

#: The rerank frame budget of the paper's configuration (§VII-D).  The
#: library default is smaller (30, under exact flat search); the figure
#: benchmarks keep the paper's IVF-PQ index and this budget so their
#: accuracy numbers measure the paper's system.
PAPER_MAX_CANDIDATE_FRAMES = 60


def bench_lovo_config(index_type: str = "ivfpq", **query_overrides) -> LOVOConfig:
    """The LOVO configuration used throughout the benchmark harness: the
    paper's IVF-PQ index and frame budget unless a caller names others."""
    query_overrides.setdefault("max_candidate_frames", PAPER_MAX_CANDIDATE_FRAMES)
    return LOVOConfig(
        encoder=BENCH_ENCODER,
        keyframes=KeyframeConfig(strategy="mvmed", uniform_stride=10),
        index=IndexConfig(index_type=index_type),
        query=QueryConfig(**query_overrides),
    )


class BenchEnvironment:
    """Caches datasets and ingested systems across benchmark modules."""

    def __init__(self) -> None:
        self._datasets: Dict[str, VideoDataset] = {}
        self._systems: Dict[Tuple[str, str], Tuple[object, float]] = {}

    def dataset(self, name: str, num_videos: int = BENCH_NUM_VIDEOS,
                frames_per_video: int = BENCH_FRAMES_PER_VIDEO) -> VideoDataset:
        """Build (or reuse) a benchmark dataset."""
        key = f"{name}:{num_videos}x{frames_per_video}"
        if key not in self._datasets:
            self._datasets[key] = make_dataset(
                name, num_videos=num_videos, frames_per_video=frames_per_video
            )
        return self._datasets[key]

    def system(self, system_name: str, dataset_name: str) -> Tuple[object, float]:
        """Build (or reuse) an ingested system; returns (system, ingest_seconds)."""
        key = (system_name, dataset_name)
        if key not in self._systems:
            dataset = self.dataset(dataset_name)
            builder = self._builders()[system_name]
            instance = builder()
            start = time.perf_counter()
            instance.ingest(dataset)
            ingest_seconds = time.perf_counter() - start
            self._systems[key] = (instance, ingest_seconds)
        return self._systems[key]

    @staticmethod
    def _builders() -> Dict[str, Callable[[], object]]:
        return {
            "LOVO": lambda: LOVO(bench_lovo_config()),
            "VOCAL": lambda: VOCALBaseline(BENCH_ENCODER),
            "MIRIS": lambda: MIRISBaseline(BENCH_ENCODER),
            "FiGO": lambda: FiGOBaseline(BENCH_ENCODER),
            "ZELDA": lambda: ZELDABaseline(BENCH_ENCODER),
            "UMT": lambda: UMTBaseline(BENCH_ENCODER),
            "VISA": lambda: VISABaseline(BENCH_ENCODER),
            "Hybrid": lambda: HybridBaseline(BENCH_ENCODER),
        }


@pytest.fixture(scope="session")
def bench_env() -> BenchEnvironment:
    """Session-wide cache of datasets and ingested systems."""
    return BenchEnvironment()


def report(experiment: str, text: str) -> None:
    """Print a report block and persist it under ``benchmarks/results/``."""
    banner = f"\n===== {experiment} =====\n{text}\n"
    print(banner)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with (RESULTS_DIR / f"{experiment}.txt").open("w", encoding="utf-8") as handle:
        handle.write(banner)
