"""Cross-modality rerank model (paper §VI-B, Algorithm 2 stage 2).

The rerank model receives the query text and the top-k candidate frames from
fast search.  For each frame it:

1. builds *image tokens* from the frame's stored patch detections (full
   ``D``-dimensional embeddings plus box-position features);
2. builds *text tokens* from the parsed query (object, companion, and
   relation concepts);
3. runs a stack of feature-enhancer layers with image↔text cross-attention
   (see :mod:`repro.encoders.attention`);
4. scores the frame as the best image-token/text alignment
   (``ls = max_j (X_I X_T^T)_{j,-1}`` in Algorithm 2), augmented with a
   geometric evaluation of the relational tokens over the predicted boxes
   (the "box position embeddings" path of Fig. 3);
5. decodes the best-aligned token's box as the output localization.

The geometric relation check is how phrases such as "side by side" or "in the
center of the road", which the fast search deliberately ignores, change the
ranking — reproducing the accuracy gap between LOVO and its w/o-rerank
ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.encoders.attention import CrossModalLayer
from repro.encoders.concepts import ConceptSpace
from repro.encoders.text import ParsedQuery, is_context_token, query_token_weights
from repro.utils.geometry import (
    BoundingBox,
    box_in_center_region,
    box_next_to,
    boxes_side_by_side,
)
from repro.utils.locking import create_lock


@dataclass(frozen=True)
class CandidatePatch:
    """One stored patch detection of a candidate frame."""

    patch_id: str
    embedding: np.ndarray
    box: BoundingBox
    objectness: float = 1.0


@dataclass(frozen=True)
class FrameCandidate:
    """A candidate frame handed to the reranker.

    ``patches`` should contain *all* stored detections of the frame (not just
    the one that matched fast search) so relational predicates can look at
    neighbouring objects.
    """

    frame_id: str
    patches: Tuple[CandidatePatch, ...]


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
        # Layer weights (several QR factorizations) are built lazily on first
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

    def rerank(
        self,
        query: ParsedQuery,
        candidates: Sequence[FrameCandidate],
        top_n: int | None = None,
    ) -> List[RerankResult]:
        """Rerank candidate frames against the query (Algorithm 2, stage 2)."""
        features = self._query_features(query)
        results = [self._score_frame(query, features, candidate) for candidate in candidates]
        results = [result for result in results if result is not None]
        results.sort(key=lambda result: result.score, reverse=True)
        if top_n is not None:
            results = results[:top_n]
        return results

    def score_frame(
        self, query: ParsedQuery, candidate: FrameCandidate
    ) -> Optional[RerankResult]:
        """Score a single candidate frame; ``None`` when it has no detections."""
        return self._score_frame(query, self._query_features(query), candidate)

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

    def _score_frame(
        self, query: ParsedQuery, features: _QueryFeatures, candidate: FrameCandidate
    ) -> Optional[RerankResult]:
        patches = [
            patch for patch in candidate.patches
            if patch.objectness >= self._config.min_objectness
        ]
        if not patches:
            patches = list(candidate.patches)
        if not patches or features.text_tokens.shape[0] == 0:
            return None

        image_tokens = np.stack([patch.embedding for patch in patches])
        enhanced_image, enhanced_text = image_tokens, features.text_tokens
        for layer in self._enhancer_layers:
            enhanced_image, enhanced_text = layer.apply(enhanced_image, enhanced_text)
        for layer in self._decoder_layers:
            enhanced_image, enhanced_text = layer.apply(enhanced_image, enhanced_text)

        # Appearance alignment has two parts, both computed per image token:
        #
        # * a *mixture* similarity against the whole query phrase (the same
        #   head-noun-heavy weighting the text encoder uses), blended between
        #   the raw tokens and their cross-modally enhanced versions; and
        # * a *conjunctive* term — the weakest alignment over the query's
        #   discriminative tokens (category, attributes, activity; context is
        #   excluded) — so a grey car cannot outrank a red car on the query
        #   "red car" just because both are cars.
        unit_image = self._normalised(image_tokens)
        unit_enhanced_image = self._normalised(enhanced_image)
        raw_mixture_similarity = unit_image @ features.mixture
        enhanced_mixture_similarity = unit_enhanced_image @ features.mixture
        mixture_similarity = 0.7 * raw_mixture_similarity + 0.3 * enhanced_mixture_similarity

        raw_similarity = unit_image @ features.unit_text_tokens.T
        enhanced_similarity = unit_enhanced_image @ self._normalised(enhanced_text).T
        token_similarity = 0.7 * raw_similarity + 0.3 * enhanced_similarity
        conjunctive = token_similarity[:, features.conjunctive_columns].min(axis=1)

        appearance = 0.6 * mixture_similarity + 0.4 * conjunctive

        relation = self._relation_scores(query, patches, features.companion)
        combined = appearance + relation
        detections = self._decode_detections(patches, combined, appearance, relation)
        best = detections[0]
        return RerankResult(
            frame_id=candidate.frame_id,
            score=best.score,
            box=best.box,
            patch_id=best.patch_id,
            appearance_score=best.appearance_score,
            relation_score=best.relation_score,
            detections=tuple(detections),
        )

    def _decode_detections(
        self,
        patches: Sequence[CandidatePatch],
        combined: np.ndarray,
        appearance: np.ndarray,
        relation: np.ndarray,
    ) -> List[RerankDetection]:
        """Greedy non-maximum suppression over the per-patch scores.

        Keeps up to ``max_boxes_per_frame`` detections whose boxes do not
        substantially overlap, so a frame containing several matching objects
        yields one localization per object rather than only the single best.
        """
        order = np.argsort(-combined)
        kept: List[RerankDetection] = []
        for index in order:
            patch = patches[int(index)]
            if any(
                patch.box.iou(existing.box) >= self._config.nms_iou_threshold
                for existing in kept
            ):
                continue
            kept.append(
                RerankDetection(
                    box=patch.box,
                    patch_id=patch.patch_id,
                    score=float(combined[index]),
                    appearance_score=float(appearance[index]),
                    relation_score=float(relation[index]),
                )
            )
            if len(kept) >= self._config.max_boxes_per_frame:
                break
        return kept

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
        patches: Sequence[CandidatePatch],
        companion_vector: Optional[np.ndarray],
    ) -> np.ndarray:
        """Geometric evaluation of relational tokens over predicted boxes."""
        scores = np.zeros(len(patches), dtype=np.float64)
        relations = set(query.relation_tokens)
        if not relations:
            return scores

        for index, patch in enumerate(patches):
            total = 0.0
            if "center" in relations or "intersection" in relations:
                margin = 0.25 if "center" in relations else 0.15
                if box_in_center_region(patch.box, margin=margin):
                    total += self._config.relation_bonus
                else:
                    total -= self._config.relation_penalty
            if "side by side" in relations:
                if self._has_companion(patch, patches, companion_vector, mode="side_by_side"):
                    total += self._config.relation_bonus
                else:
                    total -= self._config.relation_penalty
            if "next to" in relations:
                if self._has_companion(patch, patches, companion_vector, mode="next_to"):
                    total += self._config.relation_bonus
                else:
                    total -= self._config.relation_penalty
            scores[index] = total
        return scores

    def _has_companion(
        self,
        patch: CandidatePatch,
        patches: Sequence[CandidatePatch],
        companion_vector: Optional[np.ndarray],
        mode: str,
    ) -> bool:
        """Whether another detection satisfies the pairwise relation."""
        for other in patches:
            if other.patch_id == patch.patch_id:
                continue
            if mode == "side_by_side":
                geometric = boxes_side_by_side(patch.box, other.box)
            else:
                geometric = box_next_to(patch.box, other.box)
            if not geometric:
                continue
            if companion_vector is None:
                return True
            other_norm = np.linalg.norm(other.embedding)
            if other_norm == 0:
                continue
            similarity = float(other.embedding @ companion_vector / other_norm)
            if similarity >= self._config.companion_similarity_threshold:
                return True
        return False

    @staticmethod
    def _normalised(matrix: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms = np.where(norms == 0, 1.0, norms)
        return matrix / norms
