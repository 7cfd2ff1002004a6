"""Shared utilities: geometry, deterministic RNG, timing, caching, serialization."""

from repro.utils.cache import LRUCache
from repro.utils.geometry import BoundingBox, iou, iou_matrix, pairwise_center_distance
from repro.utils.rng import derive_seed, rng_from_tokens
from repro.utils.serialization import load_arrays, load_json, save_arrays, save_json
from repro.utils.timing import PhaseTimer

__all__ = [
    "LRUCache",
    "BoundingBox",
    "iou",
    "iou_matrix",
    "pairwise_center_distance",
    "derive_seed",
    "rng_from_tokens",
    "PhaseTimer",
    "save_json",
    "load_json",
    "save_arrays",
    "load_arrays",
]
