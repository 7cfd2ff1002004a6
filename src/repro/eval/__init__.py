"""Evaluation: ground-truth construction, AveP metric, experiment runner."""

from repro.eval.metrics import (
    GroundTruthInstance,
    average_precision,
    evaluate_results,
)
from repro.eval.workloads import (
    QuerySpec,
    all_queries,
    build_ground_truth,
    queries_for_dataset,
    query_by_id,
)
from repro.eval.runner import ExperimentRecord, run_queries
from repro.eval.reporting import format_table

__all__ = [
    "GroundTruthInstance",
    "average_precision",
    "evaluate_results",
    "QuerySpec",
    "all_queries",
    "queries_for_dataset",
    "query_by_id",
    "build_ground_truth",
    "ExperimentRecord",
    "run_queries",
    "format_table",
]
