"""Traced mode: per-layer timings from wrappers around public calls.

``LAYERS`` names each layer, the public calls that make it up, and how to
count the work one call does.  ``PER_LAYER`` derives the reported metrics
from the recorded sums.  Both are data: when a later change splits a stage,
the tables grow and the runner does not change.

The wrappers live only in this file and are installed only for a traced run
(``--trace 1``); end-to-end numbers always come from untraced runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

Count = Callable[[tuple, Any], float]
Extras = Callable[[tuple, Any, float], Dict[str, float]]


def _one(args: tuple, result: Any) -> float:
    return 1.0


def _queries(args: tuple, result: Any) -> float:
    """Query rows of a single (1-d) or batched (2-d) vector argument."""
    return float(len(args[1])) if np.ndim(args[1]) == 2 else 1.0


def _hits(args: tuple, result: Any, end: float) -> Dict[str, float]:
    rows = result if np.ndim(args[1]) == 2 else [result]
    return {"hits": float(sum(len(row) for row in rows))}


def _queue_wait(args: tuple, result: Any, end: float) -> Dict[str, float]:
    return {"wait_ms": sum((end - pending.enqueued_at) * 1000.0 for pending in result or ())}


def _batch_shape(args: tuple, result: Any, end: float) -> Dict[str, float]:
    return {
        "queries": float(result.metadata.get("batch_size", 0)),
        "unique_frames": float(result.metadata.get("num_unique_candidate_frames", 0)),
    }


def _answered(args: tuple, result: Any) -> float:
    return float(len(result.responses)) if hasattr(result, "responses") else 1.0


def _configured_extractor() -> Tuple[Any, str]:
    from repro.config import KeyframeConfig
    from repro.keyframes.base import make_extractor

    return type(make_extractor(KeyframeConfig())), "extract"


@dataclass(frozen=True)
class Layer:
    """One layer: the public calls that make it up and its unit of work."""

    name: str
    targets: Tuple[Any, ...]  # "module:Qual.name", or a callable -> (owner, attr)
    count: Count = _one
    extras: Extras | None = None
    thread: str = ""  # only calls on threads whose name starts with this


LAYERS: Tuple[Layer, ...] = (
    Layer("query", ("repro.core.system:LOVO.query", "repro.core.system:LOVO.query_batch"),
          _answered),
    Layer("text_encode", ("repro.encoders.text:TextEncoder.encode",
                          "repro.encoders.text:TextEncoder.encode_batch")),
    Layer("candidate_build", ("repro.core.summary:VideoSummarizer.encode_single_frame",)),
    Layer("rerank_score", ("repro.encoders.cross_modal:CrossModalityReranker.rerank",),
          lambda args, result: float(len(args[2]))),
    Layer("ann_search", ("repro.core.storage:LOVOStorage.search",
                         "repro.core.storage:LOVOStorage.search_batch"), _queries, _hits),
    Layer("index_build", ("repro.vectordb.collection:VectorCollection.flush",)),
    Layer("keyframe_extract", (_configured_extractor,),
          lambda args, result: float(len(args[1].frames))),
    Layer("patch_encode", ("repro.encoders.vision:VisionEncoder.encode_frames",),
          lambda args, result: float(len(args[1]))),
    Layer("index_ingest", ("repro.core.storage:LOVOStorage.ingest",),
          lambda args, result: float(len(args[2]))),
    Layer("save", ("repro.core.system:save_system",)),
    Layer("load", ("repro.core.system:load_system",)),
    Layer("delta_append", ("repro.persist.delta:DeltaSnapshotStore.append",)),
    Layer("delta_replay", ("repro.persist.delta:DeltaSnapshotStore.load_system",)),
    Layer("serve_queue", ("repro.serve.batcher:MicroBatcher.next_batch",),
          lambda args, result: float(len(result or ())), _queue_wait),
    Layer("serve_batch", ("repro.core.system:LOVO.query_batch",), extras=_batch_shape,
          thread="lovo-serve-worker"),
    Layer("stream_encode", ("repro.core.summary:VideoSummarizer.summarize",),
          thread="lovo-stream-encode"),
    Layer("stream_index", ("repro.core.system:LOVO.ingest_summary",),
          thread="lovo-stream-index"),
)

# Layers whose busy time makes up a serial query, and the rerank part of it.
QUERY_LAYERS = ("text_encode", "ann_search", "candidate_build", "rerank_score")
RERANK_LAYERS = ("candidate_build", "rerank_score")

# Snapshot artifacts by file name; anything else is "other".
SNAPSHOT_GROUPS = {
    "entities.npz": "entities",
    "collection.json": "collection",
    "index.npz": "index",
    "metadata.npz": "metadata",
    "frames.json": "frames",
    "encodings.npz": "delta_encodings",
}
SNAPSHOT_GROUP_NAMES = (*SNAPSHOT_GROUPS.values(), "other")

# (metric, unit, numerator sum, denominator sum or "" for none, scale).
# Sums named "<layer>.calls|ms|units|<extra>" come from the wrappers; the
# others are added by the workloads.  A zero denominator reports 0.
PER_LAYER: Tuple[Tuple[str, str, str, str, float], ...] = (
    ("text_encode.ms", "ms", "text_encode.ms", "rounds", 1.0),
    ("text_encode.calls", "count", "text_encode.calls", "rounds", 1.0),
    ("candidate_build.ms_per_frame", "ms", "candidate_build.ms", "candidate_build.units", 1.0),
    ("candidate_build.frames_per_query", "count", "candidate_build.units", "query.units", 1.0),
    ("rerank_score.ms_per_call", "ms", "rerank_score.ms", "rerank_score.calls", 1.0),
    ("rerank_score.frames_per_call", "count", "rerank_score.units", "rerank_score.calls", 1.0),
    ("ann_search.ms_per_query", "ms", "ann_search.ms", "ann_search.units", 1.0),
    ("ann_search.hits_per_query", "count", "ann_search.hits", "ann_search.units", 1.0),
    ("index_build.s", "s", "index_build.ms", "index_build.calls", 0.001),
    ("keyframe_extract.ms_per_frame", "ms", "keyframe_extract.ms", "keyframe_extract.units", 1.0),
    ("patch_encode.ms_per_keyframe", "ms", "patch_encode.ms", "patch_encode.units", 1.0),
    ("index_ingest.ms_per_vector", "ms", "index_ingest.ms", "index_ingest.units", 1.0),
    ("save.ms", "ms", "save.ms", "save.calls", 1.0),
    ("load.ms", "ms", "load.ms", "load.calls", 1.0),
    *(
        (f"snapshot.bytes.{group}", "B/vector", f"snapshot.{group}", "snapshot.vectors", 1.0)
        for group in SNAPSHOT_GROUP_NAMES
    ),
    ("delta_append.ms", "ms", "delta_append.ms", "delta_append.calls", 1.0),
    ("delta_replay.ms", "ms", "delta_replay.ms", "delta_replay.calls", 1.0),
    ("serve.queue_wait_ms", "ms", "serve_queue.wait_ms", "serve_queue.units", 1.0),
    ("serve.batch_size", "count", "serve_batch.queries", "serve_batch.calls", 1.0),
    ("serve.unique_frames_per_batch", "count", "serve_batch.unique_frames", "serve_batch.calls", 1.0),
    ("serve.cache_hit_ratio", "ratio", "serve_cache.hits", "serve_cache.lookups", 1.0),
    ("stream.encode_ms_per_segment", "ms", "stream_encode.ms", "stream_encode.calls", 1.0),
    ("stream.index_ms_per_segment", "ms", "stream_index.ms", "stream_index.calls", 1.0),
    ("process.cpu_ms_per_query", "ms", "process.cpu_ms", "process.queries", 1.0),
    ("process.cpu_over_wall", "ratio", "process.cpu_ms", "process.wall_ms", 1.0),
    ("query.p90_ms", "ms", "query.p90_ms", "", 1.0),
    ("query.layer_share_pct", "%", "serial.layers_ms", "serial.wall_ms", 100.0),
    ("query.rerank_share_pct", "%", "serial.rerank_ms", "serial.wall_ms", 100.0),
    ("trace.overhead_pct", "%", "trace.overhead_ms", "trace.wall_ms", 100.0),
)


class Recorder:
    """Thread-safe named sums.  Inert unless ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self._sums: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()

    def add(self, key: str, value: float) -> None:
        if self.enabled:
            with self._lock:
                self._sums[key] += value

    def total(self, key: str) -> float:
        with self._lock:
            return self._sums.get(key, 0.0)

    def layer_ms(self, names: Tuple[str, ...]) -> float:
        return sum(self.total(f"{name}.ms") for name in names)

    def metrics(self) -> Dict[str, Dict[str, float | str]]:
        out: Dict[str, Dict[str, float | str]] = {}
        for name, unit, numerator, denominator, scale in PER_LAYER:
            value = self.total(numerator) * scale
            if denominator:
                below = self.total(denominator)
                value = value / below if below else 0.0
            out[name] = {"value": value, "unit": unit}
        return out


def _resolve(target: Any) -> Tuple[Any, str]:
    if callable(target):
        return target()
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs the ``LAYERS`` wrappers and removes them again."""

    def __init__(self, recorder: Recorder) -> None:
        self._recorder = recorder
        self._active = threading.local()
        self._installed: List[Tuple[Any, str, Any, bool]] = []

    def install(self) -> None:
        for layer in LAYERS:
            for target in layer.targets:
                owner, attr = _resolve(target)
                original = inspect.getattr_static(owner, attr)
                self._installed.append((owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        # Reverse order: two layers may wrap the same call (query_batch).
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, layer: Layer, fn: Callable[..., Any]) -> Callable[..., Any]:
        recorder, active = self._recorder, self._active

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            names = active.__dict__.setdefault("names", set())
            if (
                layer.name in names
                or not recorder.enabled
                or not threading.current_thread().name.startswith(layer.thread)
            ):
                return fn(*args, **kwargs)
            names.add(layer.name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                names.discard(layer.name)
            end = time.perf_counter()
            recorder.add(f"{layer.name}.calls", 1.0)
            recorder.add(f"{layer.name}.ms", (end - start) * 1000.0)
            recorder.add(f"{layer.name}.units", layer.count(args, result))
            if layer.extras is not None:
                for key, value in layer.extras(args, result, end).items():
                    recorder.add(f"{layer.name}.{key}", value)
            return result

        return wrapper

    def cost_per_call_ms(self, repeats: int = 20000) -> float:
        """What one recorded wrapper call adds, measured on a no-op."""
        layer = Layer("calibration", ())
        bare = lambda *args: None  # noqa: E731
        recorder = self._recorder
        self._recorder = Recorder()
        self._recorder.enabled = True
        try:
            wrapped = self._wrap(layer, bare)
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(repeats):
                    wrapped(None, None)
                middle = time.perf_counter()
                for _ in range(repeats):
                    bare(None, None)
                end = time.perf_counter()
                best = min(best, ((middle - start) - (end - middle)) / repeats)
        finally:
            self._recorder = recorder
        return max(best, 0.0) * 1000.0

    def wrapped_calls(self) -> float:
        """Recorded wrapper calls so far, across every layer."""
        return sum(self._recorder.total(f"{layer.name}.calls") for layer in LAYERS)
