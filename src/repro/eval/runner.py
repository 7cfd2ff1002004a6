"""Experiment runner: execute query workloads against any query system.

Both LOVO and the baseline systems expose the same minimal interface —
``ingest(dataset)`` once, ``query(text)`` per request, each returning a
:class:`~repro.core.results.QueryResponse` — so the benchmark harness can run
the paper's experiments uniformly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence

from repro.core.results import QueryResponse
from repro.errors import EvaluationError, UnsupportedQueryError
from repro.eval.metrics import GroundTruthInstance, evaluate_results
from repro.eval.workloads import QuerySpec, build_ground_truth
from repro.video.model import VideoDataset


class VideoQuerySystem(Protocol):
    """Protocol every evaluated system implements (LOVO and baselines)."""

    def ingest(self, dataset: VideoDataset) -> object:
        """One-time (or per-system) video processing."""

    def query(self, text: str, top_n: int | None = None) -> QueryResponse:
        """Answer one object query."""


@dataclass
class ExperimentRecord:
    """Result of running one query against one system."""

    system: str
    query_id: str
    dataset: str
    average_precision: float
    search_seconds: float
    total_seconds: float
    num_results: int
    num_ground_truth: int
    timings: Dict[str, float] = field(default_factory=dict)
    supported: bool = True

    def as_row(self) -> List[object]:
        """Row representation used by the report formatter."""
        avep = f"{self.average_precision:.2f}" if self.supported else "unsupported"
        return [
            self.system,
            self.query_id,
            avep,
            f"{self.search_seconds:.4f}",
            f"{self.total_seconds:.4f}",
        ]


def run_queries(
    system: VideoQuerySystem,
    system_name: str,
    dataset: VideoDataset,
    specs: Sequence[QuerySpec],
    ingest_seconds: float = 0.0,
    top_multiplier: int = 10,
    ground_truth_cache: Optional[Dict[str, List[GroundTruthInstance]]] = None,
    batch: Optional[bool] = None,
) -> List[ExperimentRecord]:
    """Run a set of queries against an already-ingested system.

    Args:
        system: The system under test (already ingested).
        system_name: Label used in the records.
        dataset: The dataset the queries target (for ground truth).
        specs: Query specifications to execute.
        ingest_seconds: Offline processing time to fold into total time.
        top_multiplier: AveP is computed over ``top_multiplier x |GT|`` results.
        ground_truth_cache: Optional cache keyed by query id to avoid
            rebuilding ground truth for every system.
        batch: ``True`` to answer the whole workload with one
            ``query_batch`` call, ``False`` to force the sequential loop.
            The default (``None``) batches whenever the system supports it.

    Returns:
        One :class:`ExperimentRecord` per query.
    """
    use_batch = hasattr(system, "query_batch") if batch is None else batch
    ground_truths = [
        _resolve_ground_truth(dataset, spec, ground_truth_cache) for spec in specs
    ]
    if use_batch and specs:
        started = time.perf_counter()
        try:
            responses = system.query_batch([spec.text for spec in specs])  # type: ignore[attr-defined]
        except UnsupportedQueryError:
            # A batch is all-or-nothing; fall through to the sequential loop,
            # which records unsupported queries individually.
            pass
        else:
            per_query_elapsed = (time.perf_counter() - started) / len(specs)
            return [
                _make_record(
                    system_name, spec, response, ground_truth,
                    per_query_elapsed, ingest_seconds, top_multiplier, supported=True,
                )
                for spec, response, ground_truth in zip(specs, responses, ground_truths)
            ]

    records: List[ExperimentRecord] = []
    for spec, ground_truth in zip(specs, ground_truths):
        started = time.perf_counter()
        try:
            response = system.query(spec.text)
            supported = True
        except UnsupportedQueryError:
            response = QueryResponse(query=spec.text, results=[], timings={})
            supported = False
        elapsed = time.perf_counter() - started
        records.append(
            _make_record(
                system_name, spec, response, ground_truth,
                elapsed, ingest_seconds, top_multiplier, supported,
            )
        )
    return records


def _resolve_ground_truth(
    dataset: VideoDataset,
    spec: QuerySpec,
    cache: Optional[Dict[str, List[GroundTruthInstance]]],
) -> List[GroundTruthInstance]:
    """Fetch (or build and cache) the ground truth of one query spec."""
    if spec.dataset != dataset.name.split("[")[0]:
        raise EvaluationError(
            f"Query {spec.query_id} targets dataset {spec.dataset!r}, got {dataset.name!r}"
        )
    if cache is not None and spec.query_id in cache:
        ground_truth = cache[spec.query_id]
    else:
        ground_truth = build_ground_truth(dataset, spec)
        if cache is not None:
            cache[spec.query_id] = ground_truth
    if not ground_truth:
        raise EvaluationError(
            f"Query {spec.query_id} has no ground truth in dataset {dataset.name!r}; "
            "increase the dataset size or adjust the scene specification"
        )
    return ground_truth


def _make_record(
    system_name: str,
    spec: QuerySpec,
    response: QueryResponse,
    ground_truth: List[GroundTruthInstance],
    elapsed: float,
    ingest_seconds: float,
    top_multiplier: int,
    supported: bool,
) -> ExperimentRecord:
    """Assemble one experiment record from a query response."""
    avep = (
        evaluate_results(response.results, ground_truth, top_multiplier=top_multiplier)
        if supported
        else 0.0
    )
    return ExperimentRecord(
        system=system_name,
        query_id=spec.query_id,
        dataset=spec.dataset,
        average_precision=avep,
        search_seconds=response.search_seconds if supported else elapsed,
        total_seconds=elapsed + ingest_seconds,
        num_results=len(response.results),
        num_ground_truth=len(ground_truth),
        timings=dict(response.timings),
        supported=supported,
    )


def mean_average_precision(records: Sequence[ExperimentRecord]) -> float:
    """Mean AveP over a set of records (unsupported queries count as 0)."""
    if not records:
        return 0.0
    return sum(record.average_precision for record in records) / len(records)


def mean_search_seconds(records: Sequence[ExperimentRecord]) -> float:
    """Mean per-query search time over a set of records."""
    if not records:
        return 0.0
    return sum(record.search_seconds for record in records) / len(records)
