"""Cross-cutting observability: request tracing, metrics, and exposition.

Three pieces, used together by the serving → shard → index stack:

* :mod:`repro.obs.trace` — ``Trace``/``Span`` with contextvar propagation,
  so one served query accumulates spans across the HTTP handler, the
  micro-batcher (queue wait), the engine worker, the shard scatter (one span
  per shard call, annotated with the serving replica and any failover), and
  the rerank stage; finished traces land in a bounded store with a
  slow-query log.
* :mod:`repro.obs.registry` — labelled counters / gauges / histograms /
  windowed summaries in a unified, thread-safe registry, plus the shared
  ceil-based nearest-rank :func:`~repro.obs.registry.percentile`.
* :mod:`repro.obs.exposition` — Prometheus text rendering (``GET
  /v1/metrics``) and the mapping from the engine's point-in-time stats to
  metric families.

On top of those, the answer-quality and cost layer:

* :mod:`repro.obs.quality` — :class:`~repro.obs.quality.ShadowSampler`
  (online recall@k against an exact flat re-scan of sampled served queries)
  and :class:`~repro.obs.quality.DriftMonitor` (drift of the shadow
  exact-scan score distribution);
* :mod:`repro.obs.explain` — per-query EXPLAIN reports (stage costs, search
  params, per-shard candidates, cache/epoch provenance, score margins) in a
  bounded :class:`~repro.obs.explain.ExplainStore`.

Latency and availability objectives, their burn rates and any history of
the exported series are the monitoring system's job: it computes them from
the ``lovo_requests_*_total`` and ``lovo_request_errors_total`` counters and
the ``lovo_request_latency_seconds`` summary that ``GET /v1/metrics`` exports.

Tracing is on by default and disabled via ``LOVOConfig(obs=ObsConfig(
enabled=False))``; when off, every instrumentation point is a no-op
context-variable read.
"""

from repro.config import ObsConfig
from repro.obs.explain import ExplainStore, build_explain_report
from repro.obs.exposition import (
    CONTENT_TYPE,
    build_info_family,
    parse_exposition,
    render,
    service_families,
)
from repro.obs.quality import DriftMonitor, ShadowSampler
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    REGISTRY,
    Sample,
    Summary,
    percentile,
)
from repro.obs.trace import (
    Span,
    SpanHandle,
    Trace,
    TraceStore,
    Tracer,
    activate,
    active_traces,
    record_span,
    span,
    tracing_active,
)

__all__ = [
    "ObsConfig",
    "Span",
    "SpanHandle",
    "Trace",
    "TraceStore",
    "Tracer",
    "activate",
    "active_traces",
    "record_span",
    "span",
    "tracing_active",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "REGISTRY",
    "Sample",
    "Summary",
    "percentile",
    "DEFAULT_BUCKETS",
    "CONTENT_TYPE",
    "render",
    "service_families",
    "parse_exposition",
    "build_info_family",
    "DriftMonitor",
    "ShadowSampler",
    "ExplainStore",
    "build_explain_report",
]
