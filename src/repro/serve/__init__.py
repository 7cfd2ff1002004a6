"""Concurrent query-serving subsystem.

Turns a built :class:`~repro.core.system.LOVO` system into a service: a
micro-batching scheduler coalesces concurrently submitted queries into
batched engine passes (:mod:`repro.serve.batcher`), a worker pool with
bounded-queue admission control executes them (:mod:`repro.serve.engine`), a
TTL+LRU cache answers repeated queries for free (:mod:`repro.serve.cache`),
and a stdlib-only HTTP frontend serves it all over the wire
(:mod:`repro.serve.http`).  The engine counts each request once, in its
:class:`~repro.obs.registry.MetricsRegistry`: request outcomes, a latency
summary and a micro-batch size histogram back both ``/v1/stats`` and
``/v1/metrics``.

Quick start (in-process)::

    from repro.serve import ServingEngine

    engine = ServingEngine.from_snapshot("snapshots/bellevue")
    with engine:
        response = engine.query("A red car driving in the center of the road")

Or over HTTP::

    python -m repro.serve --snapshot snapshots/bellevue --port 8080
"""

from repro.config import ServeConfig, StreamConfig
from repro.serve.batcher import MicroBatcher, PendingQuery
from repro.serve.cache import ResultCache, TTLLRUCache, normalize_query_text
from repro.serve.engine import ServingEngine
from repro.serve.http import LOVOHTTPServer, make_server, serve_forever

__all__ = [
    "ServeConfig",
    "StreamConfig",
    "ServingEngine",
    "MicroBatcher",
    "PendingQuery",
    "ResultCache",
    "TTLLRUCache",
    "normalize_query_text",
    "LOVOHTTPServer",
    "make_server",
    "serve_forever",
]
