"""Exception hierarchy for the LOVO reproduction library.

All library-specific errors derive from :class:`ReproError` so that callers can
catch everything raised by the package with a single ``except`` clause while
still being able to discriminate between subsystems.

Every error class also carries two class attributes used by the versioned
HTTP surface (:mod:`repro.serve.http`) to build its JSON error envelope:

* ``code`` — a stable machine-readable slug identifying the error kind;
* ``retryable`` — whether the same request may succeed if simply retried
  (backpressure, transient unavailability) as opposed to being permanently
  wrong (validation failures, corrupt snapshots).

The envelope is ``{"error": {"code", "message", "retryable"}}``; see
:func:`error_envelope`.
"""

from __future__ import annotations

from typing import Dict


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""

    code: str = "internal_error"
    retryable: bool = False


class ConfigurationError(ReproError):
    """Raised when a configuration object contains inconsistent values."""

    code = "invalid_configuration"


class VideoError(ReproError):
    """Raised for malformed video, frame, or dataset structures."""

    code = "invalid_video"


class EncodingError(ReproError):
    """Raised when text or vision encoding receives invalid input."""

    code = "encoding_failed"


class VectorDatabaseError(ReproError):
    """Base class for vector-database errors."""

    code = "vectordb_error"


class IndexNotBuiltError(VectorDatabaseError):
    """Raised when searching an index that has not been built or trained."""

    code = "index_not_built"


class DimensionMismatchError(VectorDatabaseError):
    """Raised when a vector's dimensionality does not match the collection."""

    code = "dimension_mismatch"


class MetadataError(VectorDatabaseError):
    """Raised for relational metadata store failures."""

    code = "metadata_error"


class ShardError(VectorDatabaseError):
    """Base class for errors raised by the sharded scatter-gather layer."""

    code = "shard_error"


class ShardUnavailableError(ShardError):
    """Raised when a shard has no healthy replica left to answer a query.

    This is an availability condition, not a validation failure: a replica
    may recover (or be re-added), so the request is worth retrying.  The HTTP
    frontend maps it to *503 Service Unavailable*.
    """

    code = "shard_unavailable"
    retryable = True


class QueryError(ReproError):
    """Raised when a query cannot be parsed or executed."""

    code = "invalid_query"


class SystemNotReadyError(QueryError):
    """Raised when querying a system that has not ingested (or loaded) data.

    Subclasses :class:`QueryError` for backwards compatibility, but exists as
    its own type so a serving frontend can map "nothing to query yet" to a
    clean *503 Service Unavailable* instead of a generic server error.
    """

    code = "not_ready"
    retryable = True


class UnsupportedQueryError(QueryError):
    """Raised by baseline systems that cannot express a given query.

    The paper marks such cases as "Unsupported" (e.g. VOCAL on queries with
    unseen classes or novel spatial relations).
    """

    code = "unsupported_query"


class EvaluationError(ReproError):
    """Raised when an evaluation metric receives ill-formed input."""

    code = "evaluation_error"


class PersistenceError(ReproError):
    """Base class for snapshot save/load failures (missing files, bad state).

    The persistence subsystem never lets bare ``IOError``/``ValueError``
    escape: anything that goes wrong while writing or reading a snapshot is
    reported as a :class:`PersistenceError` (or one of its subclasses below).
    """

    code = "persistence_error"


class SnapshotVersionError(PersistenceError):
    """Raised when a snapshot's schema version is not supported by this code."""

    code = "snapshot_version_skew"


class SnapshotCorruptionError(PersistenceError):
    """Raised when a snapshot artifact fails checksum or structural validation."""

    code = "snapshot_corrupt"


class ServingError(ReproError):
    """Base class for errors raised by the concurrent serving subsystem.

    Covers lifecycle misuse (submitting to a stopped engine, starting twice)
    and everything below; request-level errors keep their query-layer types
    (:class:`QueryError` and friends) so HTTP status mapping stays precise.
    """

    code = "service_unavailable"
    retryable = True


class ServiceOverloadedError(ServingError):
    """Raised when the serving engine's admission queue is full.

    This is backpressure, not failure: the caller should retry after a short
    delay.  The HTTP frontend maps it to *503 Service Unavailable* with a
    ``Retry-After`` header.
    """

    code = "overloaded"
    retryable = True


class StreamError(ServingError):
    """Base class for errors raised by the streaming ingest subsystem.

    Subclasses :class:`ServingError` because the streaming pipeline is part
    of the serving deployment: lifecycle misuse maps to the same 5xx family.
    """

    code = "stream_error"
    retryable = False


class StreamBackpressureError(StreamError):
    """Raised when the streaming ingest queue is full in ``reject`` mode.

    Like :class:`ServiceOverloadedError` this is backpressure, not failure —
    the producer should retry after the pipeline drains.
    """

    code = "stream_overloaded"
    retryable = True


class StreamClosedError(StreamError):
    """Raised when submitting a segment to a stopped streaming ingestor."""

    code = "stream_closed"
    retryable = False


class SubscriptionNotFoundError(StreamError):
    """Raised when a standing-query subscription id does not exist.

    A client-side addressing mistake, not a service condition: the HTTP
    frontend maps it to *404 Not Found*.
    """

    code = "subscription_not_found"
    retryable = False


class SubscriptionLimitError(StreamError):
    """Raised when registering more standing queries than the configured cap."""

    code = "subscription_limit"
    retryable = True


def error_envelope(
    error: BaseException, request_id: str | None = None
) -> Dict[str, object]:
    """The v1 JSON error envelope for any exception.

    Library errors contribute their ``code``/``retryable`` attributes;
    anything else is reported as a non-retryable ``internal_error``.  When
    the serving frontend knows the request's ``X-Request-ID`` it is included
    for log correlation.
    """
    if isinstance(error, ReproError):
        code, retryable = error.code, error.retryable
    else:
        code, retryable = "internal_error", False
    body: Dict[str, object] = {
        "code": code,
        "message": str(error) or type(error).__name__,
        "retryable": bool(retryable),
    }
    if request_id is not None:
        body["request_id"] = request_id
    return {"error": body}
