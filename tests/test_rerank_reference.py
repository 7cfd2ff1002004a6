"""Oracle tests: the blocked, array-form rerank against the per-frame scorer it
replaced.

The reference below is the earlier ``CrossModalityReranker`` scoring path:
one frame at a time, over per-patch records, with the objectness filter
applied at scoring time, the relations as Python loops over the scalar box
predicates, and greedy NMS over ``BoundingBox.iou``.  Its attention keeps
the orthonormal query/key and value projections the reranker folds away, with
its own seeded matrices, so it also checks that folding them is an identity.
It reads the reranker's FFN weights and query features but none of its
scoring code.

The reranker's layers run in float32 and stack a query's frames into one
matrix product; the reference runs its layers in float64 (its FFNs round
their inputs to float32, as the reranker's do), one frame at a time.  So
scores are held to ``RERANK_SCORE_TOLERANCE``; everything discrete — which
frames, in which order, which patches, which boxes, and every relation
verdict — must be equal.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro import LOVO
from repro.config import KeyframeConfig, QueryConfig
from repro.encoders.attention import layer_norm, softmax
from repro.encoders.cross_modal import RERANK_BLOCK_ROWS, RerankDetection, RerankResult
from repro.encoders.vision import PatchEncoding
from repro.eval.workloads import all_queries, query_by_id
from repro.utils.geometry import box_in_center_region, box_next_to, boxes_side_by_side
from tests.conftest import RERANK_SCORE_TOLERANCE, small_config

TABLE_II = [spec for spec in all_queries() if spec.query_id.startswith("Q")]


# --------------------------------------------------------------------------
# Reference: the per-frame scorer.
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def orthonormal(dim: int, seed: int) -> np.ndarray:
    matrix, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))
    return matrix


def reference_attend(attention, queries, keys_values):
    """Attention with a shared query/key rotation ``Q`` and a value rotation
    ``V`` that is undone at the end: ``(xQ)(yQ)ᵀ = xyᵀ`` and
    ``softmax(·)(yV)Vᵀ = softmax(·)y``."""
    if keys_values.shape[0] == 0:
        return queries.copy()
    dim = queries.shape[1]
    shared_qk, value = orthonormal(dim, seed=11), orthonormal(dim, seed=12)
    projected_q = queries @ shared_qk
    projected_k = keys_values @ shared_qk
    projected_v = keys_values @ value
    logits = projected_q @ projected_k.T / attention._temperature
    weights = softmax(logits, axis=-1)
    attended = weights @ projected_v
    return attended @ value.T


def reference_layer(layer, image_tokens, text_tokens):
    enhanced_image = image_tokens + layer._blend * reference_attend(
        layer._image_to_text, image_tokens, text_tokens
    )
    enhanced_text = text_tokens + layer._blend * reference_attend(
        layer._text_to_image, text_tokens, image_tokens
    )
    enhanced_image = layer_norm(enhanced_image + 0.1 * layer._image_ffn.apply(enhanced_image))
    enhanced_text = layer_norm(enhanced_text + 0.1 * layer._text_ffn.apply(enhanced_text))
    return enhanced_image, enhanced_text


def normalised(matrix):
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms = np.where(norms == 0, 1.0, norms)
    return matrix / norms


def reference_has_companion(config, patch, patches, companion_vector, mode):
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
        if similarity >= config.companion_similarity_threshold:
            return True
    return False


def reference_relation_scores(config, query, patches, companion_vector):
    scores = np.zeros(len(patches), dtype=np.float64)
    relations = set(query.relation_tokens)
    if not relations:
        return scores
    for index, patch in enumerate(patches):
        total = 0.0
        if "center" in relations or "intersection" in relations:
            margin = 0.25 if "center" in relations else 0.15
            if box_in_center_region(patch.box, margin=margin):
                total += config.relation_bonus
            else:
                total -= config.relation_penalty
        for relation, mode in (("side by side", "side_by_side"), ("next to", "next_to")):
            if relation in relations:
                if reference_has_companion(config, patch, patches, companion_vector, mode):
                    total += config.relation_bonus
                else:
                    total -= config.relation_penalty
        scores[index] = total
    return scores


def reference_decode(config, patches, combined, appearance, relation):
    kept: List[RerankDetection] = []
    for index in np.argsort(-combined):
        patch = patches[int(index)]
        if any(patch.box.iou(existing.box) >= config.nms_iou_threshold for existing in kept):
            continue
        kept.append(RerankDetection(
            box=patch.box,
            patch_id=patch.patch_id,
            score=float(combined[index]),
            appearance_score=float(appearance[index]),
            relation_score=float(relation[index]),
        ))
        if len(kept) >= config.max_boxes_per_frame:
            break
    return kept


def reference_score_frame(
    reranker, query, frame_id: str, records: Sequence[PatchEncoding]
) -> Optional[RerankResult]:
    config = reranker.config
    features = reranker._query_features(query)
    patches = [record for record in records if record.objectness >= config.min_objectness]
    if not patches:
        patches = list(records)
    if not patches or features.text_tokens.shape[0] == 0:
        return None

    image_tokens = np.stack([patch.embedding for patch in patches])
    enhanced_image, enhanced_text = image_tokens, features.text_tokens
    for layer in (*reranker._enhancer_layers, *reranker._decoder_layers):
        enhanced_image, enhanced_text = reference_layer(layer, enhanced_image, enhanced_text)

    unit_image = normalised(image_tokens)
    unit_enhanced_image = normalised(enhanced_image)
    raw_mixture_similarity = unit_image @ features.mixture
    enhanced_mixture_similarity = unit_enhanced_image @ features.mixture
    mixture_similarity = 0.7 * raw_mixture_similarity + 0.3 * enhanced_mixture_similarity
    raw_similarity = unit_image @ features.unit_text_tokens.T
    enhanced_similarity = unit_enhanced_image @ normalised(enhanced_text).T
    token_similarity = 0.7 * raw_similarity + 0.3 * enhanced_similarity
    conjunctive = token_similarity[:, features.conjunctive_columns].min(axis=1)
    appearance = 0.6 * mixture_similarity + 0.4 * conjunctive

    relation = reference_relation_scores(config, query, patches, features.companion)
    combined = appearance + relation
    detections = reference_decode(config, patches, combined, appearance, relation)
    best = detections[0]
    return RerankResult(
        frame_id=frame_id,
        score=best.score,
        box=best.box,
        patch_id=best.patch_id,
        appearance_score=best.appearance_score,
        relation_score=best.relation_score,
        detections=tuple(detections),
    )


def reference_rerank(reranker, query, frames, top_n):
    """``frames`` is ``[(frame_id, per-patch records)]`` in candidate order."""
    results = [
        reference_score_frame(reranker, query, frame_id, records) for frame_id, records in frames
    ]
    results = [result for result in results if result is not None]
    results.sort(key=lambda result: result.score, reverse=True)
    return results if top_n is None else results[:top_n]


# --------------------------------------------------------------------------
# Fixtures: every rerank call of the Table II texts on Bellevue, Cityscapes
# and QVHighlights.
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus(bellevue_small, cityscapes_small, qvhighlights_small):
    # Denser key frames and a larger candidate budget than the small test
    # config, so a query's candidates fill several row blocks.
    config = small_config().with_overrides(
        keyframes=KeyframeConfig(strategy="uniform", uniform_stride=4),
        query=QueryConfig(fast_search_k=256, rerank_n=20, max_candidate_frames=60),
    )
    system = LOVO(config)
    frames: Dict[str, Tuple[object, str]] = {}
    # QVHighlights brings the companions of Q3.4's "next to".
    for dataset in (bellevue_small, cityscapes_small, qvhighlights_small):
        system.ingest(dataset)
        for video in dataset.videos:
            for frame in video.frames:
                frames[frame.frame_id] = (frame, video.scene)
    return system, frames


@pytest.fixture(scope="module")
def rerank_calls(corpus):
    """``(text, query, candidates, top_n, results)`` of one serial query per text."""
    system, _frames = corpus
    reranker = system._reranker
    original = reranker.rerank
    calls = []
    for spec in TABLE_II:
        seen = []

        def spy(query, candidates, top_n=None, seen=seen):
            results = original(query, candidates, top_n=top_n)
            seen.append((query, list(candidates), top_n, results))
            return results

        reranker.rerank = spy
        try:
            system.query(spec.text)
        finally:
            del reranker.rerank
        ((query, candidates, top_n, results),) = seen
        calls.append((spec.text, query, candidates, top_n, results))
    return calls


class TestAgainstPerFrameScorer:
    def test_every_table_ii_text_matches(self, corpus, rerank_calls):
        system, frames = corpus
        reranker = system._reranker
        encoder = system.summarizer.vision_encoder
        for text, query, candidates, top_n, results in rerank_calls:
            per_patch = [
                (candidate.frame_id, encoder.encode_frame(*frames[candidate.frame_id]))
                for candidate in candidates
            ]
            expected = reference_rerank(reranker, query, per_patch, top_n)
            assert [r.frame_id for r in results] == [r.frame_id for r in expected], text
            for got, want in zip(results, expected):
                assert len(got.detections) == len(want.detections), text
                for left, right in zip(got.detections, want.detections):
                    assert (left.patch_id, left.box) == (right.patch_id, right.box), text
                    assert left.relation_score == right.relation_score, text
                    assert abs(left.score - right.score) <= RERANK_SCORE_TOLERANCE, text
                    assert (
                        abs(left.appearance_score - right.appearance_score)
                        <= RERANK_SCORE_TOLERANCE
                    ), text
                assert (got.patch_id, got.box, got.score) == (
                    got.detections[0].patch_id, got.detections[0].box, got.detections[0].score
                )

    def test_workload_reaches_every_path(self, rerank_calls):
        """The comparison above covers several blocks and every relation."""
        rows = [
            sum(len(candidate.patch_ids) for candidate in call[2]) for call in rerank_calls
        ]
        assert max(rows) > RERANK_BLOCK_ROWS
        relations = set()
        for _text, query, _candidates, _top_n, results in rerank_calls:
            if any(d.relation_score > 0 for r in results for d in r.detections):
                relations.update(query.relation_tokens)
        assert {"center", "side by side", "next to"} <= relations


class TestBatchEqualsSerial:
    def test_relational_texts(self, corpus):
        system, _frames = corpus
        texts = [query_by_id(query_id).text for query_id in ("Q2.1", "Q2.2", "Q3.4")]
        batch = system.query_batch([spec.text for spec in TABLE_II])
        by_text = dict(zip(batch.queries, batch.responses))
        for text in texts:
            assert by_text[text].results == system.query(text).results
