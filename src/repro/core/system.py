"""The LOVO system facade: ingest datasets once, answer queries with low latency.

Wires together the three modules of the paper — Video Summary (§IV), Database
Storage (§V), and the two-stage Query Strategy (§VI) — behind a small public
API:

>>> from repro import LOVO, LOVOConfig
>>> from repro.video import make_bellevue
>>> system = LOVO(LOVOConfig())
>>> system.ingest(make_bellevue(num_videos=1, frames_per_video=60))
>>> response = system.query("A red car driving in the center of the road")
>>> response.results[0].frame_id  # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.config import LOVOConfig
from repro.core.query import (
    DEFAULT_CANDIDATE_CACHE_BYTES,
    QueryOptions,
    QueryRequest,
    QueryStrategy,
    as_query_batch,
    as_query_request,
)
from repro.core.results import BatchQueryResponse, QueryResponse
from repro.core.storage import LOVOStorage
from repro.core.summary import SummaryOutput, VideoSummarizer
from repro.encoders.cross_modal import CrossModalityReranker, RerankerConfig
from repro.encoders.text import TextEncoder
from repro.errors import (
    ConfigurationError,
    PersistenceError,
    SnapshotCorruptionError,
    SystemNotReadyError,
)
from repro.obs.registry import MetricsRegistry, phase_seconds_counter
from repro.obs.trace import Tracer, span
from repro.persist.manifest import SnapshotManifest
from repro.persist.snapshot import load_system, save_system
from repro.video.model import Frame, VideoDataset
from repro.utils.locking import create_lock


class LOVO:
    """Complex-object-query system over large-scale (synthetic) video data.

    Thread safety: once built (via :meth:`ingest` or :meth:`load`), the query
    path — :meth:`query` and :meth:`query_batch` — is safe to call from many
    threads at once; the shared pieces it touches (the text-encoder LRU
    caches, the rerank-candidate cache, the lazily built reranker layers,
    the phase counter) synchronize internally, and everything else is
    read-only.  The serving subsystem (:mod:`repro.serve`) relies on this.
    :meth:`ingest` itself is serialized by an internal lock, but running it
    *concurrently with* queries gives no atomicity guarantee about which
    queries see the newly ingested data.

    ``candidate_cache_bytes`` is the memory budget of the rerank-candidate
    cache (see :mod:`repro.core.query`); ``0`` turns it off.  It sizes this
    process, not the model, so it is not part of :class:`LOVOConfig` and is
    never saved: :meth:`load` takes its own.
    """

    def __init__(
        self,
        config: LOVOConfig | None = None,
        reranker_config: RerankerConfig | None = None,
        *,
        candidate_cache_bytes: int = DEFAULT_CANDIDATE_CACHE_BYTES,
    ) -> None:
        if candidate_cache_bytes < 0:
            raise ConfigurationError("candidate_cache_bytes must be non-negative")
        self._candidate_cache_bytes = candidate_cache_bytes
        self._config = config or LOVOConfig()
        self._summarizer = VideoSummarizer(self._config)
        self._text_encoder = TextEncoder(
            self._summarizer.concept_space,
            class_embedding_dim=self._config.encoder.class_embedding_dim,
        )
        self._reranker = CrossModalityReranker(
            self._summarizer.concept_space,
            reranker_config or RerankerConfig(seed=self._config.encoder.seed),
        )
        self._storage: Optional[LOVOStorage] = None
        self._strategy: Optional[QueryStrategy] = None
        self._frame_registry: Dict[str, Frame] = {}
        self._frame_scene: Dict[str, str] = {}
        self._registry = MetricsRegistry()
        self._phase_seconds = phase_seconds_counter(self._registry)
        self._tracer = Tracer(self._config.obs)
        self._frames_processed = 0
        self._total_frames = 0
        self._datasets: List[str] = []
        self._ingest_lock = create_lock("LOVO._ingest_lock")
        self._data_version = 0

    @property
    def config(self) -> LOVOConfig:
        """The system configuration."""
        return self._config

    @property
    def registry(self) -> MetricsRegistry:
        """The system's metrics registry, merged into a serving engine's scrape.

        It holds ``lovo_phase_seconds_total{phase}``: the seconds spent in
        ``processing`` and ``indexing`` (ingest) and in ``fast_search`` and
        ``rerank`` (queries), which :meth:`time_distribution` reads.
        """
        return self._registry

    @property
    def tracer(self) -> Tracer:
        """The system's request tracer (shared with the serving engine).

        Owning the tracer here — rather than in the engine — keeps one trace
        store per system, so every frontend over the same data (an engine,
        direct ``query_batch`` callers) lands its traces in one place.
        """
        return self._tracer

    @property
    def summarizer(self) -> VideoSummarizer:
        """The video summary module."""
        return self._summarizer

    @property
    def text_encoder(self) -> TextEncoder:
        """The decoupled text encoder used for fast search."""
        return self._text_encoder

    @property
    def storage(self) -> LOVOStorage:
        """The database storage module; raises before :meth:`ingest`."""
        if self._storage is None:
            raise SystemNotReadyError("No dataset has been ingested yet")
        return self._storage

    @property
    def num_entities(self) -> int:
        """Number of stored patch vectors."""
        return 0 if self._storage is None else self._storage.num_entities

    @property
    def num_keyframes(self) -> int:
        """Number of key frames selected during ingestion."""
        return len(self._frame_registry)

    @property
    def ingested_datasets(self) -> List[str]:
        """Names of the datasets ingested so far."""
        return list(self._datasets)

    @property
    def data_version(self) -> int:
        """Monotonic counter bumped after every ingest (offline or streamed).

        Result caches fold this into their keys so entries computed before an
        ingest can never be served afterwards (they simply stop being looked
        up); the streaming ingestor exposes it as the consumers' freshness
        epoch.
        """
        return self._data_version

    def ensure_storage(self) -> LOVOStorage:
        """Create (empty) storage and a query strategy without ingesting.

        Lets a streaming deployment come up cold — ready to answer (empty)
        queries and to be snapshotted — before its first segment arrives.
        A subsequent :meth:`ingest` adopts the same storage.
        """
        with self._ingest_lock:
            return self._storage_locked()

    def _storage_locked(self) -> LOVOStorage:
        """The storage, created empty on first use (caller holds the lock)."""
        storage = self._storage
        if storage is None:
            storage = LOVOStorage(
                dim=self._config.encoder.class_embedding_dim,
                index_config=self._config.index,
                shard_config=self._config.shard,
            )
            self._attach(storage)
        return storage

    def _attach(self, storage: LOVOStorage) -> None:
        """Wire ``storage`` and the one query strategy that reads it.

        The strategy holds the storage and the (growing) frame registry by
        reference, so later ingests only append to them.
        """
        self._storage = storage
        self._strategy = QueryStrategy(
            text_encoder=self._text_encoder,
            reranker=self._reranker,
            summarizer=self._summarizer,
            storage=storage,
            frame_registry=self._frame_registry,
            frame_scene=self._frame_scene,
            config=self._config.query,
            candidate_cache_bytes=self._candidate_cache_bytes,
        )

    def ingest(self, dataset: VideoDataset) -> SummaryOutput:
        """One-time video processing and indexing of a dataset.

        May be called several times to grow the index incrementally (new
        datasets are appended to the same collection).
        """
        with self._ingest_lock:
            with span("processing") as processing:
                summary = self._summarizer.summarize(dataset)
            self._phase_seconds.inc(processing.seconds, phase="processing")
            return self._apply_summary_locked(dataset.name, summary)

    def ingest_summary(self, dataset_name: str, summary: SummaryOutput) -> SummaryOutput:
        """Index an already-summarized segment (the streaming ingest path).

        The streaming pipeline runs :class:`~repro.core.summary.
        VideoSummarizer` in its own encode stage so this indexing step — the
        part that must serialise against other ingests — stays as short as
        possible.  Applying the same summaries in the same order as
        :meth:`ingest` produces bit-identical index state, which is what the
        streamed-vs-offline parity tests assert.
        """
        with self._ingest_lock:
            return self._apply_summary_locked(dataset_name, summary)

    def _apply_summary_locked(self, dataset_name: str, summary: SummaryOutput) -> SummaryOutput:  # lovo: ignore[LOVO005] the frame registry IS the corpus; bounded by ingested data
        storage = self._storage_locked()
        with span("indexing") as indexing:
            storage.ingest(summary.keyframes, summary.encodings)
        self._phase_seconds.inc(indexing.seconds, phase="indexing")

        for frame in summary.keyframes:
            self._frame_registry[frame.frame_id] = frame
        self._frame_scene.update(summary.frame_scene)
        # Only the counters outlive the call: the summary is the caller's,
        # and its patch encodings are intermediates whose vectors now live
        # in the collection.
        self._frames_processed += summary.frames_processed
        self._total_frames += summary.total_frames
        self._datasets.append(dataset_name)
        # Bumped last: by the time any cache observes the new epoch, the
        # newly indexed data and its frames are registered.
        self._data_version += 1
        return summary

    def query(
        self,
        request: str | QueryRequest,
        *,
        options: QueryOptions | None = None,
    ) -> QueryResponse:
        """Answer one complex object query (Algorithm 2): a batch of one.

        Accepts a query string or a canonical :class:`~repro.core.query.
        QueryRequest`.
        """
        coerced = as_query_request(request, options, caller="LOVO.query")
        return self.query_batch([coerced]).responses[0]

    def query_batch(
        self,
        requests: Sequence[str | QueryRequest],
        *,
        options: QueryOptions | None = None,
    ) -> BatchQueryResponse:
        """Answer several complex object queries in one batched engine pass.

        The batch path amortises text encoding and the ANN probes over the
        batch, and candidate frames come from the system's candidate cache
        (built at most once per batch when it is off), so throughput
        scales with query concurrency instead of paying the full pipeline per
        call; each query's hits and scores are the ones it gets on its own.
        Requests may be strings or :class:`~repro.core.query.QueryRequest`
        objects sharing one :class:`~repro.core.query.QueryOptions`.
        """
        if self._strategy is None:
            raise SystemNotReadyError("Call ingest() before querying")
        texts, batch_options = as_query_batch(requests, options, caller="LOVO.query_batch")
        batch = self._strategy.query_batch(texts, options=batch_options)
        for phase, seconds in batch.timings.items():
            self._phase_seconds.inc(seconds, phase=phase)
        return batch

    def save(self, path: str | Path) -> SnapshotManifest:
        """Persist the entire built system to a snapshot directory.

        The snapshot captures the vector database (exact built index state
        for Flat, HNSW, and IVF-PQ), the relational metadata store, the
        key-frame registry with annotations, and the full configuration —
        everything :meth:`load` needs to answer queries bit-identically in a
        fresh process without re-running :meth:`ingest`.
        """
        if self._storage is None:
            raise PersistenceError(
                "Cannot snapshot a system with no storage: call ingest() first"
            )
        # A storage-bearing system with zero datasets (e.g. a streaming
        # deployment snapshotted before its first segment arrived) still
        # round-trips with zero counters.
        return save_system(
            path,
            config=self._config,
            storage=self._storage,
            keyframes=list(self._frame_registry.values()),
            frame_scene=self._frame_scene,
            datasets=self._datasets,
            frames_processed=self._frames_processed,
            total_frames=self._total_frames,
            reranker_config=asdict(self._reranker.config),
            info={"backend": self._storage.backend_status()},
        )

    @classmethod
    def load(
        cls,
        path: str | Path,
        reranker_config: RerankerConfig | None = None,
        *,
        candidate_cache_bytes: int = DEFAULT_CANDIDATE_CACHE_BYTES,
    ) -> "LOVO":
        """Restore a system saved by :meth:`save`, ready to serve queries.

        The snapshot's manifest is validated (schema version, per-artifact
        checksums) before anything is deserialised.  The encoders and
        reranker are rebuilt from the stored configuration — they are
        deterministic given their seeds — and the warm-loaded system's
        ``query()`` / ``query_batch()`` results match the original exactly.
        Pass ``reranker_config`` only to deliberately override the snapshot's
        stored reranker configuration.  ``candidate_cache_bytes`` sizes the
        loaded system's candidate cache, which starts empty.  Further
        :meth:`ingest` calls keep working and grow the loaded index.
        """
        restored = load_system(path)
        if reranker_config is None and restored.reranker_config is not None:
            stored = dict(restored.reranker_config)
            # Earlier snapshots carry a since-deleted field, always empty.
            if stored.pop("extra_relation_checks", {}) != {}:
                raise SnapshotCorruptionError(
                    "Snapshot reranker configuration sets extra_relation_checks, "
                    "which is no longer supported"
                )
            try:
                reranker_config = RerankerConfig(**stored)
            except TypeError as error:
                raise SnapshotCorruptionError(
                    f"Snapshot reranker configuration is malformed: {error}"
                ) from error
        system = cls(
            restored.config, reranker_config, candidate_cache_bytes=candidate_cache_bytes
        )
        system._attach(restored.storage)
        system._data_version = len(restored.datasets)
        for frame in restored.keyframes:
            system._frame_registry[frame.frame_id] = frame
        system._frame_scene.update(restored.frame_scene)
        system._datasets = list(restored.datasets)
        system._frames_processed = restored.frames_processed
        system._total_frames = restored.total_frames
        return system

    def time_distribution(self) -> Dict[str, float]:
        """The Fig. 9 breakdown: processing / rerank / indexing + fast search."""
        seconds = self._phase_seconds.value
        return {
            "processing": seconds(phase="processing"),
            "rerank": seconds(phase="rerank"),
            "indexing_fast_search": seconds(phase="indexing") + seconds(phase="fast_search"),
        }

    def storage_report(self) -> Dict[str, object]:
        """Storage statistics (entity counts, index type, approximate bytes)."""
        if self._storage is None:
            return {"num_entities": 0, "num_keyframes": 0}
        report = dict(self._storage.storage_report())
        report["num_keyframes"] = self.num_keyframes
        report["datasets"] = list(self._datasets)
        return report
