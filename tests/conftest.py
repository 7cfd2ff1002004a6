"""Shared fixtures: small synthetic datasets and pre-ingested systems.

The fixtures are session-scoped where the object is expensive to build and
safe to share (datasets, an ingested LOVO system used read-only), which keeps
the full suite fast while still exercising the real end-to-end pipeline.
"""

from __future__ import annotations

import pytest

from repro import LOVO, LOVOConfig
from repro.config import EncoderConfig, IndexConfig, KeyframeConfig, QueryConfig
from repro.encoders.concepts import ConceptSpace
from repro.video.datasets import make_bellevue, make_cityscapes, make_qvhighlights


#: The fields earlier versions had, with the default each had then.  Each is
#: now a module constant in ``repro.config`` with that same value.
RETIRED_AT_OLD_DEFAULTS = {
    "encoder": {"noise_scale": 0.08, "background_weight": 0.35},
    "keyframes": {"motion_threshold": 0.3, "content_threshold": 0.06, "min_gap": 3},
    "index": {"kmeans_iterations": 12},
    "query": {"iou_threshold": 0.5},
    "serve": {"request_timeout_seconds": 30.0, "metrics_window": 2048},
    "shard": {"max_parallel": 0, "partition_seed": 11, "partition_iterations": 8},
    "stream": {
        "index_queue_size": 8,
        "max_subscriptions": 128,
        "default_poll_seconds": 2.0,
        "max_poll_seconds": 30.0,
    },
    "obs": {
        "trace_store_size": 512,
        "slow_log_size": 64,
        "max_spans_per_trace": 512,
        "shadow_recall_k": 10,
        "shadow_window": 256,
        "drift_threshold": 4.0,
        "history_capacity": 360,
        "slo_latency_ms": 250.0,
        "slo_recall_target": 0.8,
        "slo_fast_window_seconds": 60.0,
        "slo_slow_window_seconds": 600.0,
        "slo_max_events": 4096,
    },
}


def small_config() -> LOVOConfig:
    """A LOVO configuration sized for fast tests, on the paper's IVF-PQ index
    (named, since the library default is exact flat search)."""
    return LOVOConfig(
        encoder=EncoderConfig(embedding_dim=64, class_embedding_dim=32, patch_grid=6),
        keyframes=KeyframeConfig(strategy="uniform", uniform_stride=10),
        index=IndexConfig(
            index_type="ivfpq", num_subspaces=4, num_centroids=16, num_coarse_clusters=8, nprobe=3
        ),
        query=QueryConfig(fast_search_k=128, rerank_n=20, max_candidate_frames=30),
    )


@pytest.fixture(scope="session")
def tiny_config() -> LOVOConfig:
    """Session-wide small configuration."""
    return small_config()


@pytest.fixture(scope="session")
def bellevue_small():
    """A small Bellevue-like dataset (1 video, 150 frames)."""
    return make_bellevue(num_videos=1, frames_per_video=150)


@pytest.fixture(scope="session")
def cityscapes_small():
    """A small Cityscapes-like dataset (moving camera)."""
    return make_cityscapes(num_videos=1, frames_per_video=120)


@pytest.fixture(scope="session")
def qvhighlights_small():
    """A small QVHighlights-like dataset (indoor / car-interior objects)."""
    return make_qvhighlights(num_videos=1, frames_per_video=120)


@pytest.fixture(scope="session")
def concept_space() -> ConceptSpace:
    """A shared 64-dimensional concept space."""
    return ConceptSpace(dim=64, seed=7)


@pytest.fixture(scope="session")
def lovo_system(bellevue_small) -> LOVO:
    """A LOVO system with the small Bellevue dataset already ingested.

    Tests that use this fixture must treat it as read-only (queries only).
    """
    system = LOVO(small_config())
    system.ingest(bellevue_small)
    return system
