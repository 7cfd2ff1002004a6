"""Configuration dataclasses for every LOVO subsystem.

The defaults mirror the paper's setup where it is specified (ViT-B/32 style
embedding dimensionality, IoU threshold 0.5, top-``k`` fast search followed by
top-``n`` rerank) and otherwise pick values that keep the pure-Python
reproduction tractable while preserving the system's behaviour.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Mapping

from repro.errors import ConfigurationError


BACKGROUND_WEIGHT = 0.35  # weight of the background concept in each patch embedding
ENCODER_NOISE_SCALE = 0.08  # visual-embedding noise, relative to the signal's magnitude


@dataclass(frozen=True)
class EncoderConfig:
    """Configuration of the simulated decoupled encoders (paper §IV).

    Attributes:
        embedding_dim: Dimensionality ``D`` of the patch/backbone embeddings
            (the paper uses ViT-B/32 with ``D = 768``; the default is smaller
            to keep the reproduction fast while preserving behaviour).
        class_embedding_dim: Dimensionality ``D'`` of the projected class
            embeddings stored in the vector database (paper §IV-C).
        patch_grid: Number of patches per frame side; a frame yields
            ``patch_grid ** 2`` patch tokens.
        seed: Base seed for all "pretrained" weights and concept vectors.
    """

    embedding_dim: int = 128
    class_embedding_dim: int = 64
    patch_grid: int = 8
    seed: int = 7

    def __post_init__(self) -> None:
        if self.embedding_dim <= 0 or self.class_embedding_dim <= 0:
            raise ConfigurationError("Embedding dimensions must be positive")
        if self.class_embedding_dim > self.embedding_dim:
            raise ConfigurationError(
                "class_embedding_dim (D') must not exceed embedding_dim (D)"
            )
        if self.patch_grid <= 0:
            raise ConfigurationError("patch_grid must be positive")


MOTION_THRESHOLD = 0.3  # MVmed: relative change of motion magnitude that marks a key frame
KEYFRAME_MIN_GAP = 3  # MVmed: fewest frames between two key frames


@dataclass(frozen=True)
class KeyframeConfig:
    """Configuration of key-frame extraction (paper §IV-A).

    Attributes:
        strategy: One of ``"mvmed"``, ``"uniform"`` or ``"all"`` (the
            w/o-key-frame ablation keeps every frame).
        uniform_stride: Frame stride for the uniform strategy (and the
            MVmed strategy's fallback stride).
    """

    strategy: str = "mvmed"
    uniform_stride: int = 10

    def __post_init__(self) -> None:
        allowed = {"mvmed", "uniform", "all"}
        if self.strategy not in allowed:
            raise ConfigurationError(f"Unknown keyframe strategy {self.strategy!r}; expected one of {sorted(allowed)}")
        if self.uniform_stride <= 0:
            raise ConfigurationError("uniform_stride must be positive")


IVFPQ_KMEANS_ITERATIONS = 12  # Lloyd iterations training IVF-PQ centroids and codebooks


@dataclass(frozen=True)
class IndexConfig:
    """Configuration of the vector-database index (paper §V).

    Exact flat search is the default: at the corpus sizes this repository
    runs (thousands of patch vectors) it returns the true top-``k`` and keeps
    more answer quality under the rerank's frame budget than an approximate
    index.  IVF-PQ (the paper's index, which the figure benchmarks pin) and
    HNSW are opt-in; where the default should flip back to IVF-PQ as the
    corpus grows is still unmeasured.

    Attributes:
        index_type: ``"flat"`` (exact brute force over the stored matrix),
            ``"ivfpq"`` (the paper's inverted multi-index with product
            quantization) or ``"hnsw"``.
        num_subspaces: Number of PQ subspaces ``P``; must divide the class
            embedding dimensionality.
        num_centroids: Number of centroids ``M`` per subspace codebook.
        num_coarse_clusters: Number of inverted-list (coarse) clusters.
        nprobe: Number of coarse clusters ``A`` visited per query.
        hnsw_m: Out-degree of HNSW graph nodes.
        hnsw_ef_construction: Candidate-list size used while building HNSW.
        hnsw_ef_search: Candidate-list size used while searching HNSW.
    """

    index_type: str = "flat"
    num_subspaces: int = 8
    num_centroids: int = 32
    num_coarse_clusters: int = 16
    nprobe: int = 4
    hnsw_m: int = 12
    hnsw_ef_construction: int = 64
    hnsw_ef_search: int = 48

    def __post_init__(self) -> None:
        if self.index_type not in {"ivfpq", "flat", "hnsw"}:
            raise ConfigurationError(f"Unknown index_type {self.index_type!r}")
        if self.num_subspaces <= 0 or self.num_centroids <= 1:
            raise ConfigurationError("num_subspaces must be > 0 and num_centroids > 1")
        if self.num_coarse_clusters <= 0 or self.nprobe <= 0:
            raise ConfigurationError("num_coarse_clusters and nprobe must be positive")
        if self.nprobe > self.num_coarse_clusters:
            raise ConfigurationError("nprobe cannot exceed num_coarse_clusters")


IOU_THRESHOLD = 0.5  # IoU at which an answer box matches (MSCOCO convention, as the paper)


@dataclass(frozen=True)
class QueryConfig:
    """Configuration of the two-stage query strategy (paper §VI).

    Attributes:
        fast_search_k: Number of patch vectors retrieved by the ANN fast
            search (the ``k`` of Algorithm 1).
        max_candidate_frames: Upper bound on the number of distinct candidate
            key frames passed to the rerank stage; keeps rerank cost bounded
            independently of dataset size (paper §VII-D).  Rerank cost is
            about linear in it; 30 holds answer quality under exact flat
            search (``benchmarks/bench_candidate_budget.py``).
        rerank_n: Number of frames returned after the cross-modality rerank.
            The rerank returns at most one result per candidate frame, so
            under a smaller budget (the default 40 under 30) a query returns
            at most ``max_candidate_frames`` frames.
        rerank_enabled: Disable to reproduce the "w/o Rerank" ablation.
        ann_enabled: Disable to reproduce the "w/o ANNS" ablation (exhaustive
            search over the collection).
    """

    fast_search_k: int = 256
    max_candidate_frames: int = 30
    rerank_n: int = 40
    rerank_enabled: bool = True
    ann_enabled: bool = True

    def __post_init__(self) -> None:
        if self.fast_search_k <= 0 or self.rerank_n <= 0:
            raise ConfigurationError("fast_search_k and rerank_n must be positive")
        if self.max_candidate_frames <= 0:
            raise ConfigurationError("max_candidate_frames must be positive")


PARTITION_SEED = 11  # seed of the k-means shard partitioner
PARTITION_ITERATIONS = 8  # Lloyd iterations of the k-means shard partitioner


@dataclass(frozen=True)
class ShardConfig:
    """Configuration of the sharded scatter-gather layer (:mod:`repro.shard`).

    Attributes:
        num_shards: Number of partitions the vector collections are split
            into.  ``1`` (an unsharded system) is the same sharded database
            with a single shard, searched inline on the calling thread.
        partitioner: ``"hash"`` routes each entity by a stable hash of its
            external id; ``"kmeans"`` clusters the vectors themselves so
            neighbouring vectors land on the same shard.
        num_replicas: In-process replicas registered per shard.  Replicas
            share the primary's data but carry independent health state, so
            the router can exercise round-robin routing and failover; use
            ``ShardedCollection.add_replica`` to attach physically distinct
            backends (e.g. separately loaded snapshot copies).  A shard
            with one replica has nothing to fail over to: an error in a
            call reaches the caller and the replica stays healthy.

    Searches (and snapshot loads) fan out over one thread per shard.
    """

    num_shards: int = 1
    partitioner: str = "hash"
    num_replicas: int = 1

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ConfigurationError("num_shards must be positive")
        if self.partitioner not in {"hash", "kmeans"}:
            raise ConfigurationError(
                f"Unknown partitioner {self.partitioner!r}; expected 'hash' or 'kmeans'"
            )
        if self.num_replicas <= 0:
            raise ConfigurationError("num_replicas must be positive")


REQUEST_TIMEOUT_SECONDS = 30.0  # how long a synchronous caller (and HTTP) waits for an answer
METRICS_WINDOW = 2048  # recent request latencies kept for the service's percentiles


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of the concurrent query-serving subsystem (:mod:`repro.serve`).

    Attributes:
        num_workers: Worker threads pulling micro-batches off the admission
            queue.  Each worker answers one coalesced ``query_batch`` call at
            a time.
        max_batch_size: Upper bound on how many queued queries one micro-batch
            may coalesce.
        max_wait_ms: How long the micro-batcher waits for more queries to
            arrive after the first one, trading a little latency for batching
            opportunity under concurrent load.
        queue_size: Admission-queue capacity; submissions beyond it are
            rejected with :class:`~repro.errors.ServiceOverloadedError`
            (backpressure instead of unbounded memory growth).
        cache_size: Maximum entries of the TTL+LRU result cache; ``0``
            disables response caching entirely.
        cache_ttl_seconds: How long a cached response stays valid.
        host: Bind address of the HTTP frontend.
        port: TCP port of the HTTP frontend (``0`` picks an ephemeral port).
    """

    num_workers: int = 2
    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    queue_size: int = 256
    cache_size: int = 1024
    cache_ttl_seconds: float = 30.0
    host: str = "127.0.0.1"
    port: int = 8080

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ConfigurationError("num_workers must be positive")
        if self.max_batch_size <= 0:
            raise ConfigurationError("max_batch_size must be positive")
        if self.max_wait_ms < 0:
            raise ConfigurationError("max_wait_ms must be non-negative")
        if self.queue_size <= 0:
            raise ConfigurationError("queue_size must be positive")
        if self.cache_size < 0:
            raise ConfigurationError("cache_size must be non-negative (0 disables)")
        if self.cache_ttl_seconds <= 0:
            raise ConfigurationError("cache_ttl_seconds must be positive")
        if not 0 <= self.port <= 65535:
            raise ConfigurationError("port must lie in [0, 65535]")


INDEX_QUEUE_SIZE = 8  # capacity of the queue between the encode and index stages
MAX_SUBSCRIPTIONS = 128  # most standing queries registered at once
DEFAULT_POLL_SECONDS = 2.0  # long-poll wait of ``GET .../events`` when the request names none
MAX_POLL_SECONDS = 30.0  # ceiling on one long-poll wait, whatever the request asks


@dataclass(frozen=True)
class StreamConfig:
    """Configuration of the streaming ingest subsystem (:mod:`repro.stream`).

    Attributes:
        encode_queue_size: Capacity of the bounded queue feeding the encode
            stage (submitted segments waiting to be summarized).
        backpressure: What a full encode queue does to ``submit``:
            ``"block"`` waits for space; ``"reject"`` raises
            :class:`~repro.errors.StreamBackpressureError` immediately.
        subscription_buffer_size: Per-subscriber bounded event buffer; when a
            slow consumer falls this far behind, the oldest undelivered
            matches are dropped (and counted).
        max_matches_per_segment: At most this many matches are pushed to one
            subscriber per ingested segment (the best-scoring ones win), so a
            broad standing query cannot flood its buffer with one segment.
        max_duty_cycle: Optional cap on the fraction of wall-clock time the
            ingest pipeline may spend doing work (encode + index combined).
            ``None`` (the default) runs ingest at full speed; ``0.25`` leaves
            at least three quarters of the CPU to concurrent queries, trading
            ingest throughput for query-latency isolation on small machines.
    """

    encode_queue_size: int = 8
    backpressure: str = "block"
    subscription_buffer_size: int = 256
    max_matches_per_segment: int = 32
    max_duty_cycle: float | None = None

    def __post_init__(self) -> None:
        if self.encode_queue_size <= 0:
            raise ConfigurationError("encode_queue_size must be positive")
        if self.backpressure not in {"block", "reject"}:
            raise ConfigurationError(
                f"Unknown backpressure mode {self.backpressure!r}; "
                "expected 'block' or 'reject'"
            )
        if self.subscription_buffer_size <= 0:
            raise ConfigurationError("subscription_buffer_size must be positive")
        if self.max_matches_per_segment <= 0:
            raise ConfigurationError("max_matches_per_segment must be positive")
        if self.max_duty_cycle is not None and not 0 < self.max_duty_cycle <= 1:
            raise ConfigurationError("max_duty_cycle must lie in (0, 1]")


TRACE_STORE_SIZE = 512  # recent traces kept (FIFO)
SLOW_LOG_SIZE = 64  # slow traces kept; they outlive eviction from the main store
MAX_SPANS_PER_TRACE = 512  # spans beyond it are counted (``dropped_spans``), not stored
SHADOW_RECALL_K = 10  # the k of the shadow sampler's recall@k and rank displacement
SHADOW_WINDOW = 256  # recent shadow samples the windowed estimates aggregate
DRIFT_THRESHOLD = 4.0  # reference standard deviations a windowed mean may move before an alert


@dataclass(frozen=True)
class ObsConfig:
    """Configuration of the observability subsystem (:mod:`repro.obs`).

    Attributes:
        enabled: Master switch for request tracing.  When off, the serving
            engine never creates traces and every instrumentation point
            reduces to a no-op context-variable read, so the disabled
            configuration costs effectively nothing on the query path.
        slow_query_ms: End-to-end latency threshold above which a finished
            trace is also pinned into the slow-query log.
        shadow_sample_rate: Fraction of served queries re-run through an
            exact flat scan by the background shadow sampler
            (:class:`~repro.obs.quality.ShadowSampler`) to estimate online
            recall.  ``0.0`` (the default) disables shadow sampling.
        shadow_queue_size: Bounded hand-off queue between the serving path
            and the shadow worker; a full queue *drops* the sample (counted)
            instead of blocking a served query.
    """

    enabled: bool = True
    slow_query_ms: float = 250.0
    shadow_sample_rate: float = 0.0
    shadow_queue_size: int = 64

    def __post_init__(self) -> None:
        if self.slow_query_ms < 0:
            raise ConfigurationError("slow_query_ms must be non-negative")
        if not 0.0 <= self.shadow_sample_rate <= 1.0:
            raise ConfigurationError("shadow_sample_rate must lie in [0, 1]")
        if self.shadow_queue_size <= 0:
            raise ConfigurationError("shadow_queue_size must be positive")


@dataclass(frozen=True)
class LOVOConfig:
    """Top-level configuration bundling every subsystem."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    keyframes: KeyframeConfig = field(default_factory=KeyframeConfig)
    index: IndexConfig = field(default_factory=IndexConfig)
    query: QueryConfig = field(default_factory=QueryConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    shard: ShardConfig = field(default_factory=ShardConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
    stream: StreamConfig = field(default_factory=StreamConfig)

    def with_overrides(
        self,
        encoder: EncoderConfig | None = None,
        keyframes: KeyframeConfig | None = None,
        index: IndexConfig | None = None,
        query: QueryConfig | None = None,
        serve: ServeConfig | None = None,
        shard: ShardConfig | None = None,
        obs: ObsConfig | None = None,
        stream: StreamConfig | None = None,
    ) -> "LOVOConfig":
        """Return a copy with selected sub-configurations replaced."""
        return LOVOConfig(
            encoder=encoder or self.encoder,
            keyframes=keyframes or self.keyframes,
            index=index or self.index,
            query=query or self.query,
            serve=serve or self.serve,
            shard=shard or self.shard,
            obs=obs or self.obs,
            stream=stream or self.stream,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain nested-dict form of the configuration (JSON-serialisable).

        Used by the snapshot persistence subsystem: a snapshot stamps the
        full configuration so :meth:`from_dict` can rebuild the exact system
        (every encoder and index in this reproduction is deterministic given
        its configuration and seeds).
        """
        return asdict(self)

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "LOVOConfig":
        """Rebuild a :class:`LOVOConfig` from :meth:`to_dict` output.

        Each section goes through :func:`parse_section`.  Snapshots written
        before the serving, sharding, observability, or streaming subsystems
        carry no "serve"/"shard"/"obs"/"stream" section; a missing section
        gets its defaults.

        Raises :class:`~repro.errors.ConfigurationError` on a payload that is
        not an object, unknown keys, or values that fail the sub-configuration
        validators.
        """
        stored = _as_object("The configuration", payload)
        unknown = set(stored) - set(SECTIONS)
        if unknown:
            raise ConfigurationError(f"Unknown configuration sections: {sorted(unknown)}")
        return LOVOConfig(
            **{name: parse_section(name, stored.get(name, {})) for name in SECTIONS}
        )


#: Configuration section classes by their key in :meth:`LOVOConfig.to_dict`.
SECTIONS: Dict[str, type] = {f.name: f.default_factory for f in fields(LOVOConfig)}

#: Fields that earlier versions had and stored in snapshots, by section, with
#: the fixed value each now has.  A stored payload may still carry them, but
#: only at that value.  (``max_parallel=0`` meant one thread per shard, now
#: the only mode.)  Where the feature that read a field is gone (the content
#: key-frame strategy, the SLO tracker and the metrics history), the value
#: here is its old default, which is all an old snapshot may store.
RETIRED_FIELDS: Dict[str, Dict[str, Any]] = {
    "encoder": {"noise_scale": ENCODER_NOISE_SCALE, "background_weight": BACKGROUND_WEIGHT},
    "keyframes": {"motion_threshold": MOTION_THRESHOLD, "content_threshold": 0.06,
                  "min_gap": KEYFRAME_MIN_GAP},
    "index": {"kmeans_iterations": IVFPQ_KMEANS_ITERATIONS},
    "query": {"iou_threshold": IOU_THRESHOLD},
    "serve": {"request_timeout_seconds": REQUEST_TIMEOUT_SECONDS, "metrics_window": METRICS_WINDOW},
    "shard": {"max_parallel": 0, "partition_seed": PARTITION_SEED,
              "partition_iterations": PARTITION_ITERATIONS},
    "stream": {"index_queue_size": INDEX_QUEUE_SIZE, "max_subscriptions": MAX_SUBSCRIPTIONS,
               "default_poll_seconds": DEFAULT_POLL_SECONDS, "max_poll_seconds": MAX_POLL_SECONDS},
    "obs": {
        "trace_store_size": TRACE_STORE_SIZE, "slow_log_size": SLOW_LOG_SIZE,
        "max_spans_per_trace": MAX_SPANS_PER_TRACE, "shadow_recall_k": SHADOW_RECALL_K,
        "shadow_window": SHADOW_WINDOW, "drift_threshold": DRIFT_THRESHOLD,
        "history_capacity": 360, "slo_latency_ms": 250.0, "slo_recall_target": 0.8,
        "slo_max_events": 4096, "slo_fast_window_seconds": 60.0,
        "slo_slow_window_seconds": 600.0, "history_interval_seconds": 10.0,
        "slo_latency_target": 0.99, "slo_availability_target": 0.999,
    },
}


def _as_object(what: str, payload: Any) -> Dict[str, Any]:
    if not isinstance(payload, Mapping):
        raise ConfigurationError(f"{what} must be an object, not {type(payload).__name__}")
    return dict(payload)


def parse_section(name: str, payload: Any) -> Any:
    """Build configuration section ``name`` (a :data:`SECTIONS` key) from its
    stored form: a ``config.json`` section, or the index / shard config that
    ``storage.json``, ``collection.json`` and ``sharded.json`` embed.

    A retired key (:data:`RETIRED_FIELDS`) holding its fixed value is
    dropped, so snapshots written while it was a field still load.

    Raises:
        ConfigurationError: ``payload`` is not an object, a retired key holds
            another value, a key is unknown, or a value fails validation.
    """
    stored = _as_object(f"Configuration section {name!r}", payload)
    for key, fixed in RETIRED_FIELDS[name].items():
        if key not in stored:
            continue
        value = stored.pop(key)
        if value != fixed:
            raise ConfigurationError(
                f"Configuration section {name!r} stores {key}={value!r}, "
                f"but {key} is no longer configurable and is fixed at {fixed!r}"
            )
    try:
        return SECTIONS[name](**stored)
    except TypeError as error:
        raise ConfigurationError(
            f"Invalid {name!r} configuration section: {error}"
        ) from error
