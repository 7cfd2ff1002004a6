"""Cross-modality rerank model (paper §VI-B, Algorithm 2 stage 2).

The rerank model receives the query text and the top-k candidate frames from
fast search, each in array form (:class:`FrameCandidate`).  For one query it:

1. stacks the candidates' *image tokens* (their kept patch detections' full
   ``D``-dimensional embeddings) into blocks of at most
   :data:`RERANK_BLOCK_ROWS` rows, never splitting a frame;
2. builds *text tokens* from the parsed query (object, companion, and
   relation concepts), one copy per frame;
3. runs a stack of feature-enhancer and decoder layers with image↔text
   cross-attention (see :mod:`repro.encoders.attention`) over each block,
   in float32 end to end: the image and text tokens are rounded to float32
   once, before the first layer, and only the last layer's states are
   upcast to float64.  The FFNs and the layer norms run once over the
   block's rows, and each attention runs as one batched product over the
   block's frames, padded to the widest frame, so a frame's tokens attend
   only to its own text copy and vice versa.  A block's padding layouts
   are built once and serve all of its layers, and within a layer both
   attention directions share the padded arrays;
4. scores every image token as its alignment with the query
   (``ls = max_j (X_I X_T^T)_{j,-1}`` in Algorithm 2), augmented with a
   geometric evaluation of the relational tokens over the predicted boxes
   (the "box position embeddings" path of Fig. 3) — ``(P, P)`` box-array
   masks per frame.  The raw similarities, the relations and the
   companion mask read the float64 tokens, so every relation verdict is
   the float64 one;
5. decodes each frame's best non-overlapping boxes by greedy non-maximum
   suppression as the output localizations, in one pass over all of the
   query's frames: each greedy round picks every frame's best row at once.

The geometric relation check is how phrases such as "side by side" or "in the
center of the road", which the fast search deliberately ignores, change the
ranking — reproducing the accuracy gap between LOVO and its w/o-rerank
ablation.

Blocks never mix queries.  The FFNs run on fixed-shape tiles and give a row
the same bits in any block, and image rows are padded to whole blocks of
:data:`~repro.encoders.attention.ROW_BLOCK` rows, so identical rows of a
frame tie exactly; but the text-side attention and the alignment
products still take their shapes from the block (BLAS picks its kernel by
matrix size and layout), so a frame's scores depend on the frame's block,
and the block on the query's candidate list.
A query therefore gets the same bits whether it runs alone or in a batch,
because :class:`~repro.core.query.QueryStrategy` reranks one query per call.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.encoders.attention import ROW_BLOCK, CrossModalLayer, Segments
from repro.encoders.concepts import ConceptSpace
from repro.encoders.text import ParsedQuery, is_context_token, query_token_weights
from repro.encoders.vision import FrameArrays, patch_id, row_norms
from repro.obs.trace import span as obs_span
from repro.utils.geometry import (
    BoundingBox,
    center_region_mask,
    iou_array,
    next_to_matrix,
    side_by_side_matrix,
)
from repro.utils.locking import create_lock

#: Most image rows one stacked pass scores.  It bounds the temporaries of a
#: pass (and so each serving thread's heap) whatever the number of candidate
#: frames; a frame with more rows is a block of its own.
RERANK_BLOCK_ROWS = 256


@dataclass(frozen=True, eq=False)
class FrameCandidate:
    """A candidate frame handed to the reranker, as arrays with one row per detection.

    It holds only the detections the reranker scores: those whose objectness
    reaches ``min_objectness``, or every detection when none does (see
    :meth:`CrossModalityReranker.candidate`).  Relational predicates look at
    the other rows of the same frame, so they see exactly these detections.
    """

    frame_id: str
    embeddings: np.ndarray  # (P, D)
    boxes: np.ndarray  # (P, 4) [x, y, w, h]
    objectness: np.ndarray  # (P,)
    patch_ids: Tuple[str, ...]

    @property
    def nbytes(self) -> int:
        """Bytes the candidate holds: its three arrays and its patch-id strings."""
        return (
            self.embeddings.nbytes
            + self.boxes.nbytes
            + self.objectness.nbytes
            + sum(sys.getsizeof(patch) for patch in self.patch_ids)
        )


@dataclass(frozen=True)
class RerankDetection:
    """One localized object produced by the rerank decoder for a frame."""

    box: BoundingBox
    patch_id: str
    score: float
    appearance_score: float
    relation_score: float


@dataclass(frozen=True)
class RerankResult:
    """Output of the rerank stage for one frame.

    ``box``/``patch_id``/scores describe the best detection; ``detections``
    lists every non-overlapping detection the decoder kept (up to
    ``max_boxes_per_frame``), so frames containing several matching objects
    contribute more than one localization.
    """

    frame_id: str
    score: float
    box: BoundingBox
    patch_id: str
    appearance_score: float
    relation_score: float
    detections: Tuple[RerankDetection, ...] = ()


@dataclass
class RerankerConfig:
    """Hyper-parameters of the cross-modality rerank model."""

    num_enhancer_layers: int = 3
    num_decoder_layers: int = 2
    hidden_dim: int = 256
    relation_bonus: float = 0.35
    relation_penalty: float = 0.20
    companion_similarity_threshold: float = 0.45
    min_objectness: float = 0.05
    max_boxes_per_frame: int = 3
    nms_iou_threshold: float = 0.45
    seed: int = 7


@dataclass(frozen=True)
class _QueryFeatures:
    """The query-only inputs of frame scoring, built once per rerank call."""

    text_tokens: np.ndarray
    unit_text_tokens: np.ndarray
    mixture: np.ndarray
    conjunctive_columns: np.ndarray  # text tokens the conjunctive term takes the min over
    companion: Optional[np.ndarray]


class CrossModalityReranker:
    """Re-scores candidate frames by fusing text and visual features."""

    def __init__(self, concept_space: ConceptSpace, config: RerankerConfig | None = None) -> None:
        self._space = concept_space
        self._config = config or RerankerConfig()
        # Layer weights (the FFNs' seeded normals) are built lazily on first
        # use: they dominate construction cost, and query-free paths — e.g.
        # warm-starting a system from a snapshot and serving only fast-search
        # queries — never need them.  The weights are deterministic given the
        # seed, so laziness cannot change any score; the lock only stops
        # concurrent serving workers from each paying the build cost.
        self._layers: tuple[List[CrossModalLayer], List[CrossModalLayer]] | None = None
        self._build_lock = create_lock("CrossModalReranker._build_lock")

    def _build_layers(self) -> tuple[List["CrossModalLayer"], List["CrossModalLayer"]]:
        if self._layers is None:
            with self._build_lock:
                if self._layers is None:
                    dim = self._space.dim
                    enhancers = [
                        CrossModalLayer(dim, self._config.hidden_dim, f"enhancer{i}", seed=self._config.seed)
                        for i in range(self._config.num_enhancer_layers)
                    ]
                    decoders = [
                        CrossModalLayer(dim, self._config.hidden_dim, f"decoder{i}", seed=self._config.seed)
                        for i in range(self._config.num_decoder_layers)
                    ]
                    self._layers = (enhancers, decoders)
        return self._layers

    @property
    def _enhancer_layers(self) -> List["CrossModalLayer"]:
        return self._build_layers()[0]

    @property
    def _decoder_layers(self) -> List["CrossModalLayer"]:
        return self._build_layers()[1]

    @property
    def config(self) -> RerankerConfig:
        """The reranker configuration."""
        return self._config

    def candidate(self, frame_id: str, frame: FrameArrays) -> FrameCandidate:
        """A frame's rerank candidate: the encoded rows this reranker scores.

        Rows below ``min_objectness`` are dropped; a frame where no row
        reaches it keeps them all, so every encoded frame stays rankable.
        The arrays are read-only: a candidate may be cached and shared by
        later queries, so an in-place write raises instead of changing
        their answers.
        """
        keep = np.flatnonzero(frame.objectness >= self._config.min_objectness)
        if keep.size == 0:
            keep = np.arange(frame.objectness.shape[0])
        embeddings, boxes, objectness = (
            frame.embeddings[keep], frame.boxes[keep], frame.objectness[keep]
        )
        for array in (embeddings, boxes, objectness):
            array.setflags(write=False)
        return FrameCandidate(
            frame_id=frame_id,
            embeddings=embeddings,
            boxes=boxes,
            objectness=objectness,
            patch_ids=tuple(patch_id(frame_id, index) for index in keep.tolist()),
        )

    def rerank(
        self,
        query: ParsedQuery,
        candidates: Sequence[FrameCandidate],
        top_n: int | None = None,
    ) -> List[RerankResult]:
        """Rerank one query's candidate frames (Algorithm 2, stage 2).

        Results are sorted by score, best first; a candidate without rows
        yields no result.  The stages are traced as the ``enhance``,
        ``decode``, ``relations`` and ``nms`` spans.
        """
        features = self._query_features(query)
        frames = [candidate for candidate in candidates if candidate.patch_ids]
        if not frames or features.text_tokens.shape[0] == 0:
            return []
        bounds = np.cumsum([0] + [len(frame.patch_ids) for frame in frames]).tolist()
        image_tokens = np.concatenate([frame.embeddings for frame in frames])
        blocks = _blocks(bounds, features.text_tokens.shape[0])

        with obs_span("enhance", blocks=len(blocks)):
            # The layers run in float32: round their inputs once, here.
            image32 = image_tokens.astype(np.float32)
            text32 = features.text_tokens.astype(np.float32)
            states = [
                self._run_layers(
                    self._enhancer_layers,
                    image32[block.rows],
                    np.tile(text32, (len(block.image_bounds) - 1, 1)),
                    block,
                )
                for block in blocks
            ]
            del image32
        with obs_span("decode"):
            appearance = np.concatenate([
                self._appearance(
                    features,
                    image_tokens[block.rows],
                    *self._run_layers(self._decoder_layers, image, text, block),
                    block,
                )
                for block, (image, text) in zip(blocks, states)
            ])
            del states
        with obs_span("relations"):
            relation = self._relation_scores(
                query, frames, bounds, image_tokens, features.companion
            )
        with obs_span("nms"):
            return self._decode_detections(
                frames, bounds, appearance + relation, appearance, relation, top_n
            )

    def _query_features(self, query: ParsedQuery) -> _QueryFeatures:
        """Everything the frame scoring needs from the query alone."""
        text_tokens, token_kinds, token_names = self._text_tokens(query)
        discriminative = np.array(
            [kind == "object" and not is_context_token(token)
             for token, kind in zip(token_names, token_kinds)],
            dtype=bool,
        )
        return _QueryFeatures(
            text_tokens=text_tokens,
            unit_text_tokens=self._normalised(text_tokens),
            mixture=self._space.encode(
                list(query.object_tokens), weights=query_token_weights(query.object_tokens)
            ),
            conjunctive_columns=(
                discriminative if discriminative.any() else np.ones_like(discriminative)
            ),
            companion=(
                self._space.encode(list(query.companion_tokens))
                if query.companion_tokens else None
            ),
        )

    @staticmethod
    def _run_layers(
        layers: Sequence[CrossModalLayer], image: np.ndarray, text: np.ndarray, block: "_Block"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run a layer stack over one block's stacked float32 image and text rows."""
        for layer in layers:
            image, text = layer.apply_segments(image, block.image_segments, text, block.text_segments)
        return image, text

    def _appearance(
        self,
        features: _QueryFeatures,
        image_tokens: np.ndarray,
        enhanced_image: np.ndarray,
        enhanced_text: np.ndarray,
        block: "_Block",
    ) -> np.ndarray:
        """Appearance alignment of each image row of one block with the query.

        ``image_tokens`` are the block's float64 rows; the float32 enhanced
        states are upcast here, once, and everything after runs in float64.

        It has two parts, both computed per image token:

        * a *mixture* similarity against the whole query phrase (the same
          head-noun-heavy weighting the text encoder uses), blended between
          the raw tokens and their cross-modally enhanced versions; and
        * a *conjunctive* term — the weakest alignment over the query's
          discriminative tokens (category, attributes, activity; context is
          excluded) — so a grey car cannot outrank a red car on the query
          "red car" just because both are cars.
        """
        unit_image = self._normalised(image_tokens)
        unit_enhanced_image = self._normalised(enhanced_image.astype(np.float64))
        raw_mixture_similarity = unit_image @ features.mixture
        enhanced_mixture_similarity = unit_enhanced_image @ features.mixture
        mixture_similarity = 0.7 * raw_mixture_similarity + 0.3 * enhanced_mixture_similarity

        raw_similarity = unit_image @ features.unit_text_tokens.T
        # Each frame's rows align with that frame's own enhanced text: the
        # block diagonal of one product against every frame's text rows.
        num_text = features.text_tokens.shape[0]
        sizes = np.diff(block.image_bounds)
        first_column = np.repeat(np.arange(sizes.shape[0]) * num_text, sizes)
        columns = first_column[:, None] + np.arange(num_text)
        enhanced_similarity = np.take_along_axis(
            unit_enhanced_image @ self._normalised(enhanced_text.astype(np.float64)).T,
            columns,
            axis=1,
        )
        token_similarity = 0.7 * raw_similarity + 0.3 * enhanced_similarity
        conjunctive = token_similarity[:, features.conjunctive_columns].min(axis=1)
        return 0.6 * mixture_similarity + 0.4 * conjunctive

    def _decode_detections(
        self,
        frames: Sequence[FrameCandidate],
        bounds: Sequence[int],
        combined: np.ndarray,
        appearance: np.ndarray,
        relation: np.ndarray,
        top_n: int | None,
    ) -> List[RerankResult]:
        """Greedy non-maximum suppression over every frame of a query at once.

        Keeps up to ``max_boxes_per_frame`` detections per frame whose boxes
        do not substantially overlap, so a frame containing several matching
        objects yields one localization per object rather than only the
        single best.  Frame ``f`` owns rows ``bounds[f]:bounds[f + 1]``.

        Each greedy round takes every frame's best row still standing (the
        lower row on a tie) and drops the rows whose IoU with it reaches
        ``nms_iou_threshold``: IoU is computed only between a round's picks
        and their own frames' boxes, an ``O(frames × widest)`` array.  The
        frames come back best first (ties in candidate order), at most
        ``top_n`` of them.
        """
        starts = np.asarray(bounds[:-1])
        sizes = np.diff(bounds)
        num_frames = sizes.shape[0]
        frame_of_row = np.repeat(np.arange(num_frames), sizes)
        slots = (frame_of_row, np.arange(combined.shape[0]) - starts[frame_of_row])
        flat_boxes = np.concatenate([frame.boxes for frame in frames])
        standing = np.full((num_frames, int(sizes.max())), -np.inf)
        standing[slots] = combined
        boxes = np.zeros(standing.shape + (4,))
        boxes[slots] = flat_boxes

        every_frame = np.arange(num_frames)
        picks, found = [], []
        # Every frame keeps its best row even when the cap is below one.
        for _ in range(max(1, self._config.max_boxes_per_frame)):
            pick = standing.argmax(axis=1)
            alive = standing[every_frame, pick] > -np.inf
            if not alive.any():
                break
            picks.append(pick)
            found.append(alive)
            suppressed = (
                iou_array(boxes[every_frame, pick][:, None, :], boxes)
                >= self._config.nms_iou_threshold
            )
            suppressed[every_frame, pick] = True
            np.copyto(standing, -np.inf, where=suppressed)

        # (round, frame) -> the picked row; a frame's picks stop at its first miss.
        rows, found = starts + np.stack(picks), np.stack(found)
        # Round 0 picks every frame's best row, whose score is the frame's.
        order = np.argsort(-combined[rows[0]], kind="stable")[:top_n]
        results = []
        for frame in order.tolist():
            candidate = frames[frame]
            detections = tuple(
                RerankDetection(
                    box=BoundingBox(*flat_boxes[row].tolist()),
                    patch_id=candidate.patch_ids[row - bounds[frame]],
                    score=float(combined[row]),
                    appearance_score=float(appearance[row]),
                    relation_score=float(relation[row]),
                )
                for row in rows[found[:, frame], frame].tolist()
            )
            best = detections[0]
            results.append(RerankResult(
                frame_id=candidate.frame_id,
                score=best.score,
                box=best.box,
                patch_id=best.patch_id,
                appearance_score=best.appearance_score,
                relation_score=best.relation_score,
                detections=detections,
            ))
        return results

    def _text_tokens(
        self, query: ParsedQuery
    ) -> Tuple[np.ndarray, List[str], List[str]]:
        """Build per-token text features; returns (matrix, kinds, names)."""
        tokens: List[np.ndarray] = []
        kinds: List[str] = []
        names: List[str] = []
        for concept in query.object_tokens:
            tokens.append(self._space.vector(concept))
            kinds.append("object")
            names.append(concept)
        for concept in query.companion_tokens:
            tokens.append(self._space.vector(concept))
            kinds.append("companion")
            names.append(concept)
        for concept in query.relation_tokens:
            tokens.append(self._space.vector(concept))
            kinds.append("relation")
            names.append(concept)
        if not tokens:
            return np.zeros((0, self._space.dim)), [], []
        return np.stack(tokens), kinds, names

    def _relation_scores(
        self,
        query: ParsedQuery,
        frames: Sequence[FrameCandidate],
        bounds: Sequence[int],
        image_tokens: np.ndarray,
        companion_vector: Optional[np.ndarray],
    ) -> np.ndarray:
        """Geometric evaluation of relational tokens over every row's box.

        Each relation adds ``relation_bonus`` to a row whose box satisfies it
        and subtracts ``relation_penalty`` otherwise.  A pairwise relation is
        satisfied when another row of the same frame stands in it and, if the
        query names a companion, looks like that companion.
        """
        scores = np.zeros(image_tokens.shape[0], dtype=np.float64)
        relations = set(query.relation_tokens)
        if not relations:
            return scores
        bonus, penalty = self._config.relation_bonus, self._config.relation_penalty
        boxes = np.concatenate([frame.boxes for frame in frames])
        if "center" in relations or "intersection" in relations:
            margin = 0.25 if "center" in relations else 0.15
            scores += np.where(center_region_mask(boxes, margin=margin), bonus, -penalty)
        companions = self._companion_mask(image_tokens, companion_vector)
        pairwise = (("side by side", side_by_side_matrix), ("next to", next_to_matrix))
        for relation, predicate in pairwise:
            if relation not in relations:
                continue
            satisfied = np.zeros(boxes.shape[0], dtype=bool)
            for start, stop in zip(bounds[:-1], bounds[1:]):
                pairs = predicate(boxes[start:stop], boxes[start:stop]) & companions[start:stop]
                np.fill_diagonal(pairs, False)
                satisfied[start:stop] = pairs.any(axis=1)
            scores += np.where(satisfied, bonus, -penalty)
        return scores

    def _companion_mask(
        self, image_tokens: np.ndarray, companion_vector: Optional[np.ndarray]
    ) -> np.ndarray:
        """Which rows can be the query's companion object (all, if it names none).

        The cosine goes through stacked matmuls, which round like the
        per-vector ``dot`` and ``norm``, so a row's verdict at the threshold
        never depends on the other rows.
        """
        if companion_vector is None:
            return np.ones(image_tokens.shape[0], dtype=bool)
        norms = row_norms(image_tokens)[:, 0]
        dots = np.matmul(image_tokens[:, None, :], companion_vector)[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            similarity = dots / norms
        return (norms != 0) & (similarity >= self._config.companion_similarity_threshold)

    @staticmethod
    def _normalised(matrix: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms = np.where(norms == 0, 1.0, norms)
        return matrix / norms


class _Block(NamedTuple):
    """A run of a query's frames whose stacked rows are scored together."""

    rows: slice  # the block's rows of the query's stacked image tokens
    image_bounds: List[int]  # block-local row boundaries of each frame
    text_bounds: List[int]  # the same for the per-frame copies of the text tokens
    image_segments: Segments  # the padding layout of image_bounds, shared by every layer
    text_segments: Segments  # the same for text_bounds


def _blocks(bounds: Sequence[int], num_text: int) -> List[_Block]:
    """Cut frames into blocks of at most ``RERANK_BLOCK_ROWS`` rows, in order.

    ``bounds[f]:bounds[f + 1]`` are frame ``f``'s rows.  A frame is never
    split, so one with more rows than the limit is a block of its own.
    """
    starts = [0]
    for frame in range(1, len(bounds) - 1):
        if bounds[frame + 1] - bounds[starts[-1]] > RERANK_BLOCK_ROWS:
            starts.append(frame)
    starts.append(len(bounds) - 1)
    blocks = []
    for first, stop in zip(starts[:-1], starts[1:]):
        offset = bounds[first]
        image_bounds = [bound - offset for bound in bounds[first:stop + 1]]
        text_bounds = [num_text * index for index in range(stop - first + 1)]
        blocks.append(_Block(
            rows=slice(offset, bounds[stop]),
            image_bounds=image_bounds,
            text_bounds=text_bounds,
            image_segments=Segments.of(image_bounds, multiple=ROW_BLOCK),
            text_segments=Segments.of(text_bounds),
        ))
    return blocks
