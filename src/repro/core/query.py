"""Two-stage query strategy (paper §VI, Algorithm 2).

Stage 1 — **fast search**: the query text is encoded into a single global
embedding (relations dropped), and an ANN search over the stored class
embeddings returns the top-``k`` candidate patches, which are grouped into
candidate key frames.

Stage 2 — **cross-modality rerank**: the candidate frames are re-encoded with
the full-dimensional visual encoder into array-form candidates that keep only
the detections the reranker scores.  A candidate depends only on its frame,
the frame's scene and the encoder and reranker configurations, and no
operation changes a stored frame, so each system keeps an LRU of candidates,
bounded by their bytes (``candidate_cache_bytes``), that needs no
invalidation: a frame is re-encoded once while it stays cached, not once per
query batch.  The budget belongs to the process, not the model: it is a
constructor argument, never part of the configuration or a snapshot, and a
loaded system starts cold.
Each query's candidates are then scored against the complete query (including
relational tokens evaluated over the predicted boxes) by one call of the
cross-modality reranker, which stacks them into row blocks (see
:mod:`repro.encoders.cross_modal`).  The top-``n`` frames with their refined
bounding boxes are returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.config import QueryConfig
from repro.core.results import BatchQueryResponse, ObjectQueryResult, QueryResponse
from repro.core.storage import LOVOStorage
from repro.core.summary import VideoSummarizer
from repro.encoders.cross_modal import CrossModalityReranker, FrameCandidate, RerankResult
from repro.encoders.text import ParsedQuery, TextEncoder
from repro.errors import QueryError
from repro.obs.trace import span as obs_span
from repro.utils.cache import LRUCache
from repro.utils.timing import PhaseTimer
from repro.vectordb.collection import SearchHit
from repro.video.model import Frame


@dataclass(frozen=True)
class QueryOptions:
    """Validated per-request knobs, shared by every query entry point.

    ``None`` means "use the system's :class:`~repro.config.QueryConfig`
    default" — :meth:`resolved` turns the options into the effective
    ``(fast_search_k, top_n)`` pair a request actually runs with.  The class
    is frozen and hashable so it can key caches and batch groups directly,
    and it is deliberately shard/replica-invariant: nothing in here depends
    on how the backend is partitioned.

    ``explain=True`` asks the serving layer for a per-query EXPLAIN report
    (stage costs, search parameters, per-shard candidate counts, score
    margins); it never changes the query's *answer*, but the serving engine
    bypasses its result cache for explain requests so the reported pass is
    the one that actually ran.
    """

    top_n: Optional[int] = None
    fast_search_k: Optional[int] = None
    explain: bool = False

    def __post_init__(self) -> None:
        for name in ("top_n", "fast_search_k"):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise QueryError(f"QueryOptions.{name} must be a positive integer or None")
        if not isinstance(self.explain, bool):
            raise QueryError("QueryOptions.explain must be a boolean")

    def resolved(self, config: QueryConfig) -> Tuple[int, int]:
        """The effective ``(fast_search_k, top_n)`` under a query config."""
        return (
            self.fast_search_k or config.fast_search_k,
            self.top_n or config.rerank_n,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form; defaulted (``None``/``False``) fields are omitted."""
        payload: Dict[str, object] = {}
        if self.top_n is not None:
            payload["top_n"] = self.top_n
        if self.fast_search_k is not None:
            payload["fast_search_k"] = self.fast_search_k
        if self.explain:
            payload["explain"] = True
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object] | None) -> "QueryOptions":
        """Parse options from JSON; unknown fields are a :class:`QueryError`."""
        if payload is None:
            return cls()
        if not isinstance(payload, Mapping):
            raise QueryError("Query options must be a JSON object")
        unknown = set(payload) - {"top_n", "fast_search_k", "explain"}
        if unknown:
            raise QueryError(f"Unknown query option(s): {sorted(unknown)}")
        explain = payload.get("explain", False)
        if not isinstance(explain, bool):
            raise QueryError("QueryOptions.explain must be a boolean")
        return cls(
            top_n=payload.get("top_n"),  # type: ignore[arg-type]
            fast_search_k=payload.get("fast_search_k"),  # type: ignore[arg-type]
            explain=explain,
        )


@dataclass(frozen=True)
class QueryRequest:
    """The canonical, validated form of one query.

    Every public entry point — ``LOVO.query``, ``LOVO.query_batch``,
    ``ServingEngine.submit``, and the ``/v1`` HTTP handlers — accepts or
    constructs one of these, so validation lives in exactly one place.
    """

    text: str
    options: QueryOptions = field(default_factory=QueryOptions)

    def __post_init__(self) -> None:
        if not isinstance(self.text, str) or not self.text.strip():
            raise QueryError("Query text must be non-empty")
        if not isinstance(self.options, QueryOptions):
            raise QueryError("QueryRequest.options must be a QueryOptions")

    def to_dict(self) -> Dict[str, object]:
        """JSON wire form: ``{"query": ..., "options": {...}?}``."""
        payload: Dict[str, object] = {"query": self.text}
        options = self.options.to_dict()
        if options:
            payload["options"] = options
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "QueryRequest":
        """Parse the wire form; unknown fields are a :class:`QueryError`."""
        if not isinstance(payload, Mapping):
            raise QueryError("Query request must be a JSON object")
        unknown = set(payload) - {"query", "options"}
        if unknown:
            raise QueryError(f"Unknown query request field(s): {sorted(unknown)}")
        text = payload.get("query")
        if not isinstance(text, str):
            raise QueryError('Query request must contain a string "query" field')
        options = QueryOptions.from_dict(payload.get("options"))  # type: ignore[arg-type]
        return cls(text=text, options=options)


#: How many fast-search patch hits ride along in each response's metadata.
#: Enough for shadow-recall estimation (recall@k at the configured k) and the
#: EXPLAIN score margins without bloating cached responses.
FAST_SEARCH_PROVENANCE_CAP = 64

#: Default memory budget of a system's rerank-candidate cache, in bytes of
#: cached candidates (:attr:`FrameCandidate.nbytes`).
DEFAULT_CANDIDATE_CACHE_BYTES = 64 * 1024 * 1024


def _fast_search_provenance(
    patch_hits: Sequence[Tuple[str, float]], fast_k: int
) -> Dict[str, object]:
    """Served fast-search ranking, capped, for the quality/EXPLAIN layers."""
    return {
        "k": fast_k,
        "num_hits": len(patch_hits),
        "hits": [
            (patch_id, float(score))
            for patch_id, score in patch_hits[:FAST_SEARCH_PROVENANCE_CAP]
        ],
    }


def _num_patches(candidates: Sequence[FrameCandidate]) -> int:
    """Image tokens the rerank scores over (a ``rerank_score`` span attribute)."""
    return sum(len(candidate.patch_ids) for candidate in candidates)


def as_query_request(
    request: Union[str, QueryRequest],
    options: QueryOptions | None = None,
    *,
    caller: str = "query",
) -> QueryRequest:
    """Coerce a query string or a ready :class:`QueryRequest` into one request."""
    if isinstance(request, QueryRequest):
        if options is not None:
            raise QueryError(
                f"{caller}() got both a QueryRequest and separate options; "
                "put the options inside the request"
            )
        return request
    if not isinstance(request, str):
        raise QueryError(f"{caller}() expects a query string or QueryRequest")
    return QueryRequest(text=request, options=options or QueryOptions())


def as_query_batch(
    requests: Sequence[Union[str, QueryRequest]],
    options: QueryOptions | None = None,
    *,
    caller: str = "query_batch",
) -> Tuple[List[str], QueryOptions]:
    """Coerce a batch of queries into texts plus one shared :class:`QueryOptions`.

    A batch executes as one engine pass, so all requests must agree on their
    options: per-request options are allowed only when they are all equal
    (and consistent with the batch-level ``options``).
    """
    if isinstance(requests, (str, QueryRequest)):
        raise QueryError(f"{caller}() expects a sequence of queries, not a single one")
    merged = options or QueryOptions()
    texts: List[str] = []
    explicit = merged != QueryOptions()
    for request in requests:
        coerced = as_query_request(request, caller=caller)
        if coerced.options != QueryOptions():
            if not explicit:
                merged, explicit = coerced.options, True
            elif coerced.options != merged:
                raise QueryError(
                    f"{caller}() requests must share one QueryOptions per batch"
                )
        texts.append(coerced.text)
    return texts, merged


class QueryStrategy:
    """Implements Algorithm 2 over a populated :class:`LOVOStorage`.

    ``candidate_cache_bytes`` bounds the summed :attr:`FrameCandidate.nbytes`
    of the cached rerank candidates; ``0`` turns the cache off, so every
    batch re-encodes its candidate frames (the paper's per-query cost).
    """

    def __init__(
        self,
        text_encoder: TextEncoder,
        reranker: CrossModalityReranker,
        summarizer: VideoSummarizer,
        storage: LOVOStorage,
        frame_registry: Mapping[str, Frame],
        frame_scene: Mapping[str, str],
        config: QueryConfig | None = None,
        candidate_cache_bytes: int = DEFAULT_CANDIDATE_CACHE_BYTES,
    ) -> None:
        self._text_encoder = text_encoder
        self._reranker = reranker
        self._summarizer = summarizer
        self._storage = storage
        self._frames = frame_registry
        self._frame_scene = frame_scene
        self._config = config or QueryConfig()
        self._candidates: Optional[LRUCache[str, FrameCandidate]] = (
            LRUCache(candidate_cache_bytes, weigh=lambda candidate: candidate.nbytes)
            if candidate_cache_bytes > 0
            else None
        )

    @property
    def config(self) -> QueryConfig:
        """The query configuration (k, n, ablation switches)."""
        return self._config

    def query_batch(
        self,
        requests: Sequence[Union[str, QueryRequest]],
        *,
        options: QueryOptions | None = None,
    ) -> BatchQueryResponse:
        """Execute ``m`` complex object queries in one engine pass.

        This is the only query path: a single query is a batch of one.
        Stage 1 embeds every query with one vectorized text-encoder pass and
        runs one multi-query ANN search.  Stage 2 builds candidates over the
        *union* of the per-query candidate frames, taking each from the
        system's candidate cache, so a distinct frame is re-encoded once per
        system while it stays cached (once per batch with the cache off), no
        matter how many queries retrieved it.  It then reranks each query in
        its own call: rows are never stacked across queries, so each query's
        hits and scores depend only on that query, never on the rest of the
        batch.  Requests may be strings or :class:`QueryRequest` objects but
        must share one :class:`QueryOptions` (the batch runs as one pass).
        """
        texts, batch_options = as_query_batch(
            requests, options, caller="QueryStrategy.query_batch"
        )
        timer = PhaseTimer()
        parsed_list = [self._text_encoder.parse(text) for text in texts]
        fast_k, top_n = batch_options.resolved(self._config)
        num_queries = len(parsed_list)
        if num_queries == 0:
            return BatchQueryResponse(metadata={"batch_size": 0})

        # Duplicate query strings are answered once: the whole pipeline runs
        # over the *unique* parsed queries and results fan back out by
        # position; the pipeline is deterministic per query.
        unique = list(dict.fromkeys(parsed_list))

        with timer.phase("fast_search"):
            with obs_span("encode", num_queries=len(unique)):
                query_matrix = self._text_encoder.encode_batch(unique)
            with obs_span("fast_search", k=fast_k, ann=self._config.ann_enabled):
                hit_lists = self._storage.search_batch(
                    query_matrix, fast_k, use_ann=self._config.ann_enabled
                )
            grouped = {
                parsed: self._group_hits(hits)
                for parsed, hits in zip(unique, hit_lists)
            }

        results_by_query: Dict[ParsedQuery, List[ObjectQueryResult]] = {}
        union: Dict[str, None] = {}
        num_built = 0
        if self._config.rerank_enabled:
            with timer.phase("rerank"), obs_span("rerank"):
                for candidate_frames, _ in grouped.values():
                    for frame_id in candidate_frames:
                        union.setdefault(frame_id, None)
                with obs_span("candidate_build", frames=len(union)) as building:
                    shared, num_built = self._candidates_for(union)
                    building.set("built", num_built)
                with obs_span("rerank_score") as scoring:
                    frames = patches = 0
                    for parsed in unique:
                        candidate_frames, patch_hits = grouped[parsed]
                        if not candidate_frames:
                            results_by_query[parsed] = self._results_from_fast_search(
                                patch_hits, top_n
                            )
                            continue
                        candidates = [shared[frame_id] for frame_id in candidate_frames]
                        frames += len(candidates)
                        patches += _num_patches(candidates)
                        reranked = self._reranker.rerank(parsed, candidates, top_n=top_n)
                        results_by_query[parsed] = self._results_from_rerank(reranked)
                    scoring.set("frames", frames)
                    scoring.set("patches", patches)
        else:
            for parsed in unique:
                _, patch_hits = grouped[parsed]
                results_by_query[parsed] = self._results_from_fast_search(patch_hits, top_n)

        batch_timings = timer.as_dict()
        share = {phase: seconds / num_queries for phase, seconds in batch_timings.items()}
        responses: List[QueryResponse] = []
        for text, parsed in zip(texts, parsed_list):
            candidate_frames, patch_hits = grouped[parsed]
            response = QueryResponse(
                query=text,
                results=list(results_by_query[parsed]),
                timings=dict(share),
            )
            response.metadata["parsed"] = parsed
            response.metadata["num_candidates"] = len(candidate_frames)
            response.metadata["rerank_enabled"] = self._config.rerank_enabled
            response.metadata["ann_enabled"] = self._config.ann_enabled
            response.metadata["fast_search"] = _fast_search_provenance(patch_hits, fast_k)
            responses.append(response)
        return BatchQueryResponse(
            queries=list(texts),
            responses=responses,
            timings=batch_timings,
            metadata={
                "batch_size": num_queries,
                "num_unique_queries": len(unique),
                "num_unique_candidate_frames": len(union),
                "num_built_candidate_frames": num_built,
                "rerank_enabled": self._config.rerank_enabled,
                "ann_enabled": self._config.ann_enabled,
            },
        )

    def _group_hits(
        self, hits: Sequence[SearchHit]
    ) -> Tuple[List[str], List[Tuple[str, float]]]:
        """Group patch hits into distinct candidate key frames.

        Each frame keeps its best-scoring patch position in the ordering, and
        the number of candidate frames handed to the rerank stage is capped so
        rerank cost stays bounded regardless of how large the indexed dataset
        is.
        """
        frame_order: Dict[str, float] = {}
        patch_hits: List[Tuple[str, float]] = []
        for hit in hits:
            patch_hits.append((hit.id, hit.score))
            frame_id = str(hit.metadata["frame_id"])
            if frame_id not in frame_order:
                frame_order[frame_id] = hit.score
        candidate_frames = list(frame_order)[: self._config.max_candidate_frames]
        return candidate_frames, patch_hits

    def _candidates_for(
        self, frame_ids: Iterable[str]
    ) -> Tuple[Dict[str, FrameCandidate], int]:
        """Each frame's rerank candidate, and how many had to be built.

        Every hit is taken before the first miss is stored, so a budget
        smaller than the batch's candidate set still serves the frames it
        holds instead of evicting them for this batch's misses.  A miss is
        built outside the cache's lock.  Two threads that miss on the same
        frame both build it, which is harmless: the build is deterministic,
        so either copy gives the same answers.
        """
        cache = self._candidates
        frame_ids = list(frame_ids)
        hits = {} if cache is None else {
            frame_id: cache.get(frame_id) for frame_id in frame_ids
        }
        candidates: Dict[str, FrameCandidate] = {}
        built = 0
        for frame_id in frame_ids:
            candidate = hits.get(frame_id)
            if candidate is None:
                candidate = self._frame_candidate(frame_id)
                built += 1
                if cache is not None:
                    cache.put(frame_id, candidate)
            candidates[frame_id] = candidate
        return candidates, built

    def _frame_candidate(self, frame_id: str) -> FrameCandidate:
        """Re-encode one key frame into a rerank candidate (deterministic)."""
        frame = self._frames.get(frame_id)
        if frame is None:
            raise QueryError(f"Candidate frame {frame_id!r} is not registered")
        scene = self._frame_scene.get(frame_id, "generic")
        return self._reranker.candidate(
            frame_id, self._summarizer.encode_single_frame(frame, scene=scene)
        )

    def _results_from_rerank(
        self, reranked: Sequence[RerankResult]
    ) -> List[ObjectQueryResult]:
        """Convert rerank outputs into flat object-query results."""
        results: List[ObjectQueryResult] = []
        for entry in reranked:
            frame = self._frames[entry.frame_id]
            detections = entry.detections or None
            if detections is None:
                results.append(
                    ObjectQueryResult(
                        frame_id=entry.frame_id,
                        video_id=frame.video_id,
                        box=entry.box,
                        score=entry.score,
                        patch_id=entry.patch_id,
                        source="lovo",
                    )
                )
                continue
            for detection in detections:
                results.append(
                    ObjectQueryResult(
                        frame_id=entry.frame_id,
                        video_id=frame.video_id,
                        box=detection.box,
                        score=detection.score,
                        patch_id=detection.patch_id,
                        source="lovo",
                    )
                )
        return results

    def _results_from_fast_search(
        self, patch_hits: List[Tuple[str, float]], top_n: int
    ) -> List[ObjectQueryResult]:
        """w/o-rerank path: return the fast-search patches with stored boxes."""
        results: List[ObjectQueryResult] = []
        seen_frames: Dict[str, None] = {}
        for patch_id, score in patch_hits:
            record = self._storage.patch_record(patch_id)
            if record.frame_id in seen_frames:
                continue
            seen_frames[record.frame_id] = None
            results.append(
                ObjectQueryResult(
                    frame_id=record.frame_id,
                    video_id=record.video_id,
                    box=record.box,
                    score=score,
                    patch_id=patch_id,
                    source="lovo-fast",
                )
            )
            if len(results) >= top_n:
                break
        return results
