"""Stdlib-only HTTP frontend over the serving engine (versioned ``/v1`` API).

Built on :class:`http.server.ThreadingHTTPServer` — one handler thread per
connection feeding the shared :class:`~repro.serve.engine.ServingEngine`, so
concurrent HTTP clients are exactly the concurrent submitters the
micro-batcher coalesces.  No web framework, no new dependency.

Endpoints (all under ``/v1``):

* ``POST /v1/query`` — body is the :class:`~repro.core.query.QueryRequest`
  wire form ``{"query": str, "options": {"top_n": int?, "fast_search_k":
  int?, "explain": bool?}?}``.  Any other top-level field (such as the
  removed legacy ``"top_n"``) is a 400.
* ``POST /v1/query_batch`` — ``{"queries": [str, ...], "options": {...}?}``,
  with unknown top-level fields rejected the same way.
* ``GET /v1/healthz`` — liveness/readiness (503 until data is ingested or
  loaded); includes backend topology (shard and replica health).  A backend
  with some replicas down but every shard still answerable reports
  ``"degraded"`` (still 200); a shard with no healthy replica reports
  ``"unavailable"`` (503).
* ``GET /v1/stats`` — the engine's full metrics snapshot.
* ``GET /v1/metrics`` — the unified metrics registry in Prometheus text
  exposition format (service counters, latency summary, micro-batch
  histogram, cache, per-shard replica health, shard call latencies, ingest
  phase totals).
* ``HEAD /v1/metrics`` — headers (content type/length) without the body,
  for scrapers probing the endpoint.
* ``GET /v1/explain/<trace_id>`` — the retained EXPLAIN report of a query
  served with ``options.explain=true`` (stage costs, search params,
  per-shard candidates, cache/epoch provenance, score margins).
* ``GET /v1/traces/<id>`` — one stored request trace (spans across queue
  wait, encode, per-shard search, merge, rerank).
* ``GET /v1/traces/slow`` — the slow-query log (full traces above the
  configured latency threshold).
* ``POST /v1/subscriptions`` — register a standing query:
  ``{"query": str, "threshold": float?}``; requires a streaming ingestor
  attached to the engine (503 ``stream_error`` otherwise).
* ``GET /v1/subscriptions`` / ``GET /v1/subscriptions/<id>`` — list / fetch
  registered standing queries with their delivery counters.
* ``DELETE /v1/subscriptions/<id>`` — unregister (404 for unknown ids).
* ``GET /v1/subscriptions/<id>/events?timeout=&max=`` — long-poll drain of
  the subscription's match buffer: blocks up to ``timeout`` seconds (the
  configured default when absent, clamped to the configured maximum) until
  at least one match pushed by live ingest is available, then returns up to
  ``max`` events.

Request correlation: every endpoint accepts an ``X-Request-ID`` header (one
is generated when absent), echoes it on the response, includes it in the
error envelope, and attaches it to the request's stored trace.  Query
responses carry the request's ``trace_id`` in the JSON body and the
``X-Trace-Id`` header.

Unversioned paths (``/query``, ``/healthz``, ...) are unknown paths: they
answer 404 with the error envelope below, like any other path outside
``/v1``.

Every error answers a consistent JSON envelope mapped from the typed error
hierarchy in :mod:`repro.errors`::

    {"error": {"code": "<stable slug>", "message": str, "retryable": bool}}

Status mapping: malformed requests → 400; overload (admission queue full),
not-ready systems, shard unavailability, and an engine that is not running
(starting up or shutting down) → 503 (overload and shutdown add
``Retry-After``); request timeout → 504; anything else → 500.
"""

from __future__ import annotations

import json
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from concurrent.futures import CancelledError as FutureCancelledError
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.query import QueryOptions, QueryRequest
from repro.core.results import QueryResponse
from repro.errors import (
    QueryError,
    ReproError,
    ServiceOverloadedError,
    ServingError,
    StreamError,
    SubscriptionNotFoundError,
    SystemNotReadyError,
    error_envelope,
)
from repro.obs.exposition import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.obs.exposition import render
from repro.serve.engine import ServingEngine

#: Request bodies above this size are rejected outright (64 KiB is orders of
#: magnitude beyond any real query batch and bounds handler memory).
MAX_BODY_BYTES = 64 * 1024

#: Client-supplied ``X-Request-ID`` values longer than this are replaced with
#: a generated id (bounds log lines and trace attributes).
MAX_REQUEST_ID_CHARS = 128

#: Current (and only) API version prefix.
API_PREFIX = "/v1"


def response_payload(response: QueryResponse) -> Dict[str, object]:
    """JSON-serialisable form of one query response."""
    payload: Dict[str, object] = {
        "query": response.query,
        "cache_hit": bool(response.metadata.get("cache_hit", False)),
        "trace_id": response.metadata.get("trace_id"),
        "num_results": len(response.results),
        "results": [result.as_dict() for result in response.results],
        "timings": dict(response.timings),
    }
    explain = response.metadata.get("explain")
    if explain is not None:
        payload["explain"] = explain
    return payload


class LOVORequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the shared serving engine."""

    server: "LOVOHTTPServer"
    protocol_version = "HTTP/1.1"

    #: Correlation id of the request being handled (set at routing time).
    _request_id: Optional[str] = None

    # -- routing -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._request_id = self._resolve_request_id()
        parts = urlsplit(self.path)
        path = parts.path
        if path == f"{API_PREFIX}/healthz":
            self._handle_healthz()
        elif path == f"{API_PREFIX}/stats":
            self._send_json(200, self.server.engine.stats())
        elif path == f"{API_PREFIX}/metrics":
            self._guarded(self._handle_metrics)
        elif path.startswith(f"{API_PREFIX}/explain/"):
            trace_id = path[len(f"{API_PREFIX}/explain/"):]
            self._guarded(lambda: self._handle_explain(trace_id))
        elif path == f"{API_PREFIX}/traces/slow":
            self._guarded(self._handle_slow_traces)
        elif path.startswith(f"{API_PREFIX}/traces/"):
            trace_id = path[len(f"{API_PREFIX}/traces/"):]
            self._guarded(lambda: self._handle_trace(trace_id))
        elif path == f"{API_PREFIX}/subscriptions":
            self._guarded(self._handle_subscriptions_list)
        elif path.startswith(f"{API_PREFIX}/subscriptions/"):
            tail = path[len(f"{API_PREFIX}/subscriptions/"):]
            query = parse_qs(parts.query)
            if tail.endswith("/events"):
                sub_id = tail[: -len("/events")]
                self._guarded(lambda: self._handle_subscription_events(sub_id, query))
            else:
                self._guarded(lambda: self._handle_subscription_get(tail))
        else:
            self._send_error(404, "not_found", f"Unknown path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._request_id = self._resolve_request_id()
        if self.path == f"{API_PREFIX}/query":
            self._guarded(self._handle_query)
        elif self.path == f"{API_PREFIX}/query_batch":
            self._guarded(self._handle_query_batch)
        elif self.path == f"{API_PREFIX}/subscriptions":
            self._guarded(self._handle_subscription_create)
        else:
            self._send_error(404, "not_found", f"Unknown path {self.path!r}")

    def do_HEAD(self) -> None:  # noqa: N802 - http.server API
        self._request_id = self._resolve_request_id()
        path = urlsplit(self.path).path
        if path == f"{API_PREFIX}/metrics":
            self._guarded(lambda: self._handle_metrics(head=True))
        else:
            self._send_error(404, "not_found", f"Unknown path {self.path!r}")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._request_id = self._resolve_request_id()
        if self.path.startswith(f"{API_PREFIX}/subscriptions/"):
            sub_id = self.path[len(f"{API_PREFIX}/subscriptions/"):]
            self._guarded(lambda: self._handle_subscription_delete(sub_id))
        else:
            self._send_error(404, "not_found", f"Unknown path {self.path!r}")

    def _resolve_request_id(self) -> str:
        """The caller's ``X-Request-ID`` (when sane), else a generated one."""
        supplied = (self.headers.get("X-Request-ID") or "").strip()
        if supplied and len(supplied) <= MAX_REQUEST_ID_CHARS and supplied.isprintable():
            return supplied
        return uuid.uuid4().hex

    # -- endpoint bodies ---------------------------------------------------

    def _handle_healthz(self) -> None:
        system = self.server.engine.system
        if system.num_entities == 0:
            self._send_json(
                503,
                {
                    "status": "not_ready",
                    "reason": "no dataset ingested",
                    "api_version": "v1",
                },
            )
            return
        backend = system.storage.backend_status()
        health = str(backend.get("health", "ok"))
        # "degraded" (some replicas down, every shard still answerable) is
        # alive-but-wounded: still 200 so load balancers keep routing, with
        # the distinct status for operators.  "unavailable" (a shard with no
        # healthy replica) would fail queries, so it is a 503.
        status = 503 if health == "unavailable" else 200
        self._send_json(
            status,
            {
                "status": health,
                "api_version": "v1",
                "num_entities": system.num_entities,
                "num_keyframes": system.num_keyframes,
                "datasets": system.ingested_datasets,
                "index_type": system.storage.index_type,
                "backend": backend,
            },
        )

    def _handle_query(self) -> None:
        body = self._read_json_body()
        request = QueryRequest.from_dict(body)
        response = self.server.engine.query(request)
        trace_id = self._annotate_trace(response, "/v1/query")
        headers = {"X-Trace-Id": trace_id} if trace_id else None
        self._send_json(200, response_payload(response), headers=headers)

    def _handle_query_batch(self) -> None:
        body = self._read_json_body()
        unknown = set(body) - {"queries", "options"}
        if unknown:
            raise _BadRequest(f"Unknown query batch field(s): {sorted(unknown)}")
        texts = body.get("queries")
        if not isinstance(texts, list) or not all(
            isinstance(text, str) for text in texts
        ):
            raise _BadRequest('Body must contain a "queries" list of strings')
        options = QueryOptions.from_dict(body.get("options"))  # type: ignore[arg-type]
        requests = [QueryRequest(text, options) for text in texts]
        responses = self.server.engine.query_many(requests)
        for response in responses:
            self._annotate_trace(response, "/v1/query_batch")
        self._send_json(
            200,
            {
                "batch_size": len(responses),
                "responses": [response_payload(response) for response in responses],
            },
        )

    def _handle_metrics(self, head: bool = False) -> None:
        text = render(self.server.engine.metric_families())
        encoded = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", METRICS_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(encoded)))
        if self._request_id:
            self.send_header("X-Request-ID", self._request_id)
        self.end_headers()
        if not head:
            self.wfile.write(encoded)

    def _handle_explain(self, trace_id: str) -> None:
        report = (
            self.server.engine.explain_store.get(trace_id) if trace_id else None
        )
        if report is None:
            self._send_error(
                404,
                "explain_not_found",
                f"No retained EXPLAIN report for trace {trace_id!r} "
                '(was the query served with options.explain=true?)',
            )
            return
        self._send_json(200, report)

    def _handle_trace(self, trace_id: str) -> None:
        tracer = self.server.engine.tracer
        trace = tracer.store.get(trace_id) if trace_id else None
        if trace is None:
            self._send_error(
                404, "trace_not_found", f"No stored trace with id {trace_id!r}"
            )
            return
        self._send_json(200, trace.as_dict())

    def _handle_slow_traces(self) -> None:
        tracer = self.server.engine.tracer
        slow = tracer.store.slow()
        self._send_json(
            200,
            {
                "slow_threshold_ms": tracer.store.slow_threshold_ms,
                "num_traces": len(slow),
                "traces": [trace.as_dict() for trace in slow],
            },
        )

    # -- standing-query endpoints -----------------------------------------

    def _subscriptions(self):
        """The attached ingestor's subscription manager, or a 503."""
        streaming = self.server.engine.streaming
        if streaming is None:
            raise StreamError(
                "No streaming ingestor attached; standing queries are unavailable"
            )
        return streaming.subscriptions

    def _handle_subscription_create(self) -> None:
        body = self._read_json_body()
        query = body.get("query")
        if not isinstance(query, str) or not query.strip():
            raise _BadRequest('Body must contain a non-empty "query" string')
        threshold = body.get("threshold", 0.0)
        if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
            raise _BadRequest('"threshold" must be a number')
        subscription = self._subscriptions().register(query, float(threshold))
        self._send_json(201, subscription.to_dict())

    def _handle_subscriptions_list(self) -> None:
        manager = self._subscriptions()
        self._send_json(200, {"subscriptions": manager.list()})

    def _handle_subscription_get(self, sub_id: str) -> None:
        subscription = self._subscriptions().get(sub_id)
        self._send_json(200, subscription.to_dict())

    def _handle_subscription_delete(self, sub_id: str) -> None:
        self._subscriptions().unregister(sub_id)
        self._send_json(200, {"deleted": sub_id})

    def _handle_subscription_events(self, sub_id: str, query: Dict[str, list]) -> None:
        manager = self._subscriptions()
        timeout = None
        if "timeout" in query:
            try:
                timeout = float(query["timeout"][0])
            except (ValueError, IndexError):
                raise _BadRequest('"timeout" must be a number of seconds') from None
        max_events = 64
        if "max" in query:
            try:
                max_events = int(query["max"][0])
            except (ValueError, IndexError):
                raise _BadRequest('"max" must be an integer') from None
        events = manager.poll(sub_id, timeout=timeout, max_events=max_events)
        self._send_json(
            200,
            {
                "subscription_id": sub_id,
                "num_events": len(events),
                "events": [event.to_dict() for event in events],
            },
        )

    def _annotate_trace(self, response: QueryResponse, endpoint: str) -> Optional[str]:
        """Attach request correlation to a response's stored trace."""
        trace_id = response.metadata.get("trace_id")
        if not isinstance(trace_id, str):
            return None
        self.server.engine.tracer.store.annotate(
            trace_id, request_id=self._request_id, endpoint=endpoint
        )
        return trace_id

    # -- plumbing ----------------------------------------------------------

    def _guarded(self, handler) -> None:
        """Run an endpoint body, mapping library errors to HTTP statuses."""
        try:
            handler()
        except ServiceOverloadedError as error:
            self._send_exception(503, error, headers={"Retry-After": "1"})
        except SubscriptionNotFoundError as error:
            # A client-side addressing mistake, not a service condition.
            self._send_exception(404, error)
        except SystemNotReadyError as error:
            self._send_exception(503, error)
        except QueryError as error:
            # Includes _BadRequest: malformed bodies and invalid queries are
            # both the caller's problem.
            self._send_exception(400, error)
        except FutureTimeoutError:
            self._send_error(504, "timeout", "Query timed out", retryable=True)
        except FutureCancelledError:
            # The engine is shutting down and dropped this request.
            self._send_error(
                503,
                "service_unavailable",
                "Service is shutting down",
                retryable=True,
                headers={"Retry-After": "1"},
            )
        except ServingError as error:
            # Engine not running (yet / anymore), or a shard with no healthy
            # replica: unavailable, not broken.
            self._send_exception(503, error, headers={"Retry-After": "1"})
        except ReproError as error:
            status = 503 if error.retryable else 500
            self._send_exception(status, error)
        except Exception:  # noqa: BLE001 - last-resort 500 instead of a dropped socket
            self._send_error(500, "internal_error", "Internal server error")

    def _read_json_body(self) -> Dict[str, object]:
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            raise _BadRequest("Content-Length header must be an integer") from None
        if length <= 0:
            raise _BadRequest("Request body required")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(f"Request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as error:
            raise _BadRequest(f"Request body is not valid JSON: {error}") from None
        if not isinstance(body, dict):
            raise _BadRequest("Request body must be a JSON object")
        return body

    def _send_json(
        self, status: int, payload: object, headers: Optional[Dict[str, str]] = None
    ) -> None:
        encoded = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        if self._request_id:
            self.send_header("X-Request-ID", self._request_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(encoded)

    def _send_exception(
        self, status: int, error: BaseException, headers: Optional[Dict[str, str]] = None
    ) -> None:
        self._send_envelope(
            status, error_envelope(error, request_id=self._request_id), headers
        )

    def _send_error(
        self,
        status: int,
        code: str,
        message: str,
        retryable: bool = False,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body: Dict[str, object] = {
            "code": code,
            "message": message,
            "retryable": retryable,
        }
        if self._request_id is not None:
            body["request_id"] = self._request_id
        self._send_envelope(status, {"error": body}, headers)

    def _send_envelope(
        self, status: int, payload: Dict[str, object], headers: Optional[Dict[str, str]]
    ) -> None:
        # An errored request may leave an unread body on the socket (e.g. an
        # oversized or malformed one rejected before rfile was drained), which
        # would desynchronise HTTP/1.1 keep-alive; close the connection so the
        # client re-connects cleanly.
        self.close_connection = True
        merged = {"Connection": "close", **(headers or {})}
        self._send_json(status, payload, headers=merged)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Silence per-request stderr logging (metrics cover observability)."""


class _BadRequest(QueryError):
    """Internal marker for malformed request bodies (maps to HTTP 400)."""

    code = "bad_request"


class LOVOHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one serving engine."""

    daemon_threads = True

    def __init__(self, engine: ServingEngine, address: Tuple[str, int]) -> None:
        self.engine = engine
        super().__init__(address, LOVORequestHandler)


def make_server(
    engine: ServingEngine, host: str | None = None, port: int | None = None
) -> LOVOHTTPServer:
    """Bind (but do not start) an HTTP frontend for ``engine``.

    Host and port default to the engine's :class:`~repro.config.ServeConfig`;
    port ``0`` binds an ephemeral port (see ``server.server_address``).
    """
    config = engine.config
    effective_host = host if host is not None else config.host
    effective_port = port if port is not None else config.port
    return LOVOHTTPServer(engine, (effective_host, effective_port))


def serve_forever(engine: ServingEngine, host: str | None = None,
                  port: int | None = None) -> None:
    """Start the engine and block serving HTTP until interrupted."""
    engine.start()
    server = make_server(engine, host, port)
    bound_host, bound_port = server.server_address[:2]
    print(f"Serving LOVO queries on http://{bound_host}:{bound_port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("Shutting down (draining in-flight requests)...")
    finally:
        server.shutdown()
        server.server_close()
        engine.stop()
