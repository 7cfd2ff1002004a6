"""Per-query EXPLAIN reports: stage costs, search params, and provenance.

``QueryOptions(explain=True)`` asks the serving engine to build a structured
report for the pass that answered the query.  The report is assembled from
three sources the stack already records:

* the request's :class:`~repro.obs.trace.Trace` — stage costs (queue wait,
  encode, coarse scan, ADC scan, graph search, per-shard ``shard_search``
  calls with candidate counts, merge, rerank);
* the configuration in effect — the search parameters the pass actually used
  (index family, ``nprobe``/``efSearch``, resolved ``fast_search_k``/
  ``top_n``, rerank depth cap, ablation switches);
* the response itself — final score margins over the returned results and
  the served fast-search head.

Reports are retained in a bounded :class:`ExplainStore` keyed by trace id
(``GET /v1/explain/<trace_id>``) and attached to the response's metadata so
the HTTP payload carries them inline.
"""

from __future__ import annotations

from repro.utils.locking import create_lock
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import IndexConfig, QueryConfig
    from repro.core.query import QueryOptions
    from repro.core.results import QueryResponse
    from repro.obs.trace import Trace

#: Span names that are per-shard search calls (candidate attribution).
_SHARD_SPAN = "shard_search"


def _stage_costs(trace: "Optional[Trace]") -> Dict[str, Dict[str, float]]:
    """Aggregate a trace's spans into per-stage call counts and totals."""
    stages: Dict[str, Dict[str, float]] = {}
    if trace is None:
        return stages
    for span in trace.spans():
        entry = stages.setdefault(span.name, {"calls": 0, "total_ms": 0.0})
        entry["calls"] += 1
        entry["total_ms"] += span.duration_s * 1000.0
    return stages


def _shard_candidates(trace: "Optional[Trace]") -> List[Dict[str, object]]:
    """Per-shard candidate counts from the scatter's ``shard_search`` spans."""
    shards: List[Dict[str, object]] = []
    if trace is None:
        return shards
    for span in trace.spans():
        if span.name != _SHARD_SPAN:
            continue
        entry: Dict[str, object] = {
            "shard": span.attributes.get("shard"),
            "replica": span.attributes.get("replica"),
            "outcome": span.attributes.get("outcome"),
            "duration_ms": span.duration_s * 1000.0,
        }
        if "hits" in span.attributes:
            entry["candidates"] = span.attributes["hits"]
        if span.attributes.get("failover"):
            entry["failover"] = True
        shards.append(entry)
    return shards


def _score_margins(response: "QueryResponse") -> Dict[str, object]:
    """Final-ranking margins: top-1 vs top-2 and the head of the scores."""
    scores = [float(result.score) for result in response.results]
    margins: Dict[str, object] = {
        "num_results": len(scores),
        "head_scores": scores[:5],
    }
    if len(scores) >= 2:
        margins["top1_top2_margin"] = scores[0] - scores[1]
    fast = response.metadata.get("fast_search")
    if isinstance(fast, Mapping):
        hits = fast.get("hits") or []
        if len(hits) >= 2:
            margins["fast_search_top1_top2_margin"] = float(hits[0][1]) - float(
                hits[1][1]
            )
    return margins


def build_explain_report(
    response: "QueryResponse",
    trace: "Optional[Trace]",
    *,
    options: "QueryOptions",
    query_config: "QueryConfig",
    index_config: "IndexConfig",
    backend: Mapping[str, object],
    epoch: int,
    cache_hit: bool = False,
) -> Dict[str, object]:
    """Assemble one query's EXPLAIN report (JSON-serialisable)."""
    fast_k, top_n = options.resolved(query_config)
    params: Dict[str, object] = {
        "index_type": index_config.index_type,
        "fast_search_k": fast_k,
        "top_n": top_n,
        "max_candidate_frames": query_config.max_candidate_frames,
        "rerank_enabled": query_config.rerank_enabled,
        "ann_enabled": query_config.ann_enabled,
    }
    if index_config.index_type == "ivfpq":
        params["nprobe"] = index_config.nprobe
        params["num_coarse_clusters"] = index_config.num_coarse_clusters
        params["num_subspaces"] = index_config.num_subspaces
    elif index_config.index_type == "hnsw":
        params["ef_search"] = index_config.hnsw_ef_search
        params["hnsw_m"] = index_config.hnsw_m

    fast = response.metadata.get("fast_search")
    candidates: Dict[str, object] = {
        "num_candidate_frames": response.metadata.get("num_candidates", 0),
    }
    if isinstance(fast, Mapping):
        candidates["fast_search_hits"] = fast.get("num_hits", 0)
    shard_calls = _shard_candidates(trace)
    if shard_calls:
        candidates["per_shard"] = shard_calls

    report: Dict[str, object] = {
        "query": response.query,
        "trace_id": trace.trace_id if trace is not None else None,
        "params": params,
        "stages": _stage_costs(trace),
        "candidates": candidates,
        "score_margins": _score_margins(response),
        "provenance": {
            "data_epoch": epoch,
            "cache_hit": cache_hit,
            "sharded": bool(backend.get("sharded", False)),
            "num_shards": backend.get("num_shards", 1),
        },
    }
    if trace is not None and trace.duration_s is not None:
        report["duration_ms"] = trace.duration_s * 1000.0
    return report


class ExplainStore:
    """Bounded FIFO retention of EXPLAIN reports, keyed by trace id."""

    def __init__(self, capacity: int = 512) -> None:
        if capacity <= 0:
            raise ValueError("ExplainStore capacity must be positive")
        self._capacity = capacity
        self._reports: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._lock = create_lock("ExplainStore._lock")

    def put(self, trace_id: str, report: Dict[str, object]) -> None:
        """Retain one report (evicting the oldest beyond capacity)."""
        with self._lock:
            self._reports[trace_id] = report
            self._reports.move_to_end(trace_id)
            while len(self._reports) > self._capacity:
                self._reports.popitem(last=False)

    def get(self, trace_id: str) -> Optional[Dict[str, object]]:
        """Look one report up by trace id."""
        with self._lock:
            return self._reports.get(trace_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._reports)

    def stats(self) -> Dict[str, object]:
        """Occupancy summary for ``/v1/stats``."""
        with self._lock:
            return {"stored": len(self._reports), "capacity": self._capacity}


__all__ = ["ExplainStore", "build_explain_report"]
