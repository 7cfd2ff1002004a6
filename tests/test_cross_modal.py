"""Tests for the cross-modality rerank model."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoders.concepts import ConceptSpace
from repro.encoders.cross_modal import (
    RERANK_BLOCK_ROWS,
    CrossModalityReranker,
    FrameCandidate,
    RerankDetection,
    RerankerConfig,
    RerankResult,
    _blocks,
)
from repro.encoders.text import QueryParser
from repro.encoders.vision import FrameArrays
from repro.encoders.vocabulary import default_vocabulary
from repro.utils.geometry import BoundingBox, box_array
from tests.conftest import RERANK_SCORE_TOLERANCE


@pytest.fixture(scope="module")
def space():
    return ConceptSpace(dim=64, seed=7)


@pytest.fixture(scope="module")
def parser():
    return QueryParser(default_vocabulary())


@pytest.fixture(scope="module")
def reranker(space):
    return CrossModalityReranker(space, RerankerConfig(hidden_dim=64))


def candidate(space, frame_id, patch_specs, objectness=0.8):
    """A candidate with one row per ``(concept tokens, box)`` spec."""
    embeddings = np.zeros((len(patch_specs), space.dim))
    for row, (tokens, _box) in enumerate(patch_specs):
        embeddings[row] = space.encode(tokens)
    return FrameCandidate(
        frame_id=frame_id,
        embeddings=embeddings,
        boxes=box_array([box for _tokens, box in patch_specs]),
        objectness=np.full(len(patch_specs), objectness),
        patch_ids=tuple(f"{frame_id}/p{i}" for i in range(len(patch_specs))),
    )


def score_one(reranker, query, frame):
    """The rerank result of a single candidate frame."""
    (result,) = reranker.rerank(query, [frame])
    return result


class TestAppearanceRanking:
    def test_frame_with_target_ranks_higher(self, space, parser, reranker):
        query = parser.parse("a red car driving on the road")
        with_target = candidate(space, "f-red", [
            (["car", "red", "road", "driving"], BoundingBox(0.4, 0.4, 0.2, 0.15)),
            (["road"], BoundingBox(0.0, 0.0, 0.2, 0.2)),
        ])
        without_target = candidate(space, "f-dog", [
            (["dog", "white", "room"], BoundingBox(0.4, 0.4, 0.2, 0.15)),
            (["room"], BoundingBox(0.0, 0.0, 0.2, 0.2)),
        ])
        ranked = reranker.rerank(query, [without_target, with_target])
        assert ranked[0].frame_id == "f-red"

    def test_attribute_discrimination_within_frame(self, space, parser, reranker):
        query = parser.parse("a red car on the road")
        frame = candidate(space, "f", [
            (["car", "grey", "road", "driving"], BoundingBox(0.1, 0.4, 0.2, 0.15)),
            (["car", "red", "road", "driving"], BoundingBox(0.6, 0.4, 0.2, 0.15)),
        ])
        result = score_one(reranker, query, frame)
        assert result.patch_id.endswith("p1")

    def test_category_discrimination(self, space, parser, reranker):
        query = parser.parse("a bus driving on the road")
        frame = candidate(space, "f", [
            (["car", "grey", "road", "driving"], BoundingBox(0.1, 0.4, 0.2, 0.15)),
            (["bus", "blue", "road", "driving"], BoundingBox(0.6, 0.4, 0.25, 0.15)),
        ])
        result = score_one(reranker, query, frame)
        assert result.patch_id.endswith("p1")

    def test_rerank_respects_top_n(self, space, parser, reranker):
        query = parser.parse("a red car")
        candidates = [
            candidate(space, f"f{i}", [(["car", "red"], BoundingBox(0.4, 0.4, 0.2, 0.2))])
            for i in range(5)
        ]
        assert len(reranker.rerank(query, candidates, top_n=3)) == 3

    def test_empty_candidate_has_no_result(self, space, parser, reranker):
        query = parser.parse("a red car")
        kept = candidate(space, "f", [(["car", "red"], BoundingBox(0.4, 0.4, 0.2, 0.2))])
        ranked = reranker.rerank(query, [candidate(space, "empty", []), kept])
        assert [result.frame_id for result in ranked] == ["f"]


class TestRelations:
    def test_center_relation_prefers_centered_object(self, space, parser, reranker):
        query = parser.parse("A red car driving in the center of the road.")
        frame = candidate(space, "f", [
            (["car", "red", "road", "driving"], BoundingBox(0.0, 0.0, 0.15, 0.12)),
            (["car", "red", "road", "driving"], BoundingBox(0.45, 0.45, 0.15, 0.12)),
        ])
        result = score_one(reranker, query, frame)
        assert result.patch_id.endswith("p1")
        assert result.relation_score > 0

    def test_side_by_side_requires_companion(self, space, parser, reranker):
        query = parser.parse("A red car side by side with another car in the center of the road.")
        paired = candidate(space, "f-paired", [
            (["car", "red", "road", "driving"], BoundingBox.from_center(0.45, 0.5, 0.14, 0.1)),
            (["car", "grey", "road", "driving"], BoundingBox.from_center(0.62, 0.5, 0.14, 0.1)),
        ])
        lonely = candidate(space, "f-lonely", [
            (["car", "red", "road", "driving"], BoundingBox.from_center(0.45, 0.5, 0.14, 0.1)),
            (["road"], BoundingBox(0.0, 0.0, 0.15, 0.15)),
        ])
        ranked = reranker.rerank(query, [lonely, paired])
        assert ranked[0].frame_id == "f-paired"
        assert ranked[0].relation_score > ranked[1].relation_score

    def test_next_to_companion_attributes_checked(self, space, parser, reranker):
        query = parser.parse("A white dog inside a car, next to a woman wearing black clothes.")
        with_woman = candidate(space, "f-with", [
            (["dog", "white", "car_interior", "sitting"], BoundingBox.from_center(0.45, 0.5, 0.1, 0.1)),
            (["woman", "black", "black clothes", "car_interior"], BoundingBox.from_center(0.58, 0.5, 0.12, 0.2)),
        ])
        alone = candidate(space, "f-alone", [
            (["dog", "white", "car_interior", "sitting"], BoundingBox.from_center(0.45, 0.5, 0.1, 0.1)),
        ])
        ranked = reranker.rerank(query, [alone, with_woman])
        assert ranked[0].frame_id == "f-with"

    def test_a_detection_is_not_its_own_companion(self, space, parser, reranker):
        query = parser.parse("A white dog next to a woman wearing black clothes.")
        lone_woman = candidate(space, "f", [
            (["woman", "black", "black clothes", "car_interior"], BoundingBox.from_center(0.5, 0.5, 0.12, 0.2)),
        ])
        assert score_one(reranker, query, lone_woman).relation_score < 0


class TestDetections:
    def test_detections_do_not_overlap(self, space, parser, reranker):
        query = parser.parse("a person walking on the street")
        frame = candidate(space, "f", [
            (["person", "walking", "street"], BoundingBox(0.1, 0.4, 0.1, 0.2)),
            (["person", "walking", "street"], BoundingBox(0.12, 0.42, 0.1, 0.2)),
            (["person", "walking", "street"], BoundingBox(0.7, 0.4, 0.1, 0.2)),
        ])
        result = score_one(reranker, query, frame)
        boxes = [detection.box for detection in result.detections]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert boxes[i].iou(boxes[j]) < reranker.config.nms_iou_threshold

    def test_detection_cap(self, space, parser):
        reranker = CrossModalityReranker(
            ConceptSpace(dim=64, seed=7), RerankerConfig(max_boxes_per_frame=2, hidden_dim=64)
        )
        query = parser.parse("a person")
        frame = candidate(space, "f", [
            (["person"], BoundingBox(0.1, 0.1, 0.1, 0.2)),
            (["person"], BoundingBox(0.4, 0.4, 0.1, 0.2)),
            (["person"], BoundingBox(0.7, 0.7, 0.1, 0.2)),
        ])
        result = score_one(reranker, query, frame)
        assert len(result.detections) == 2

    def test_scores_are_descending(self, space, parser, reranker):
        query = parser.parse("a red car")
        candidates = [
            candidate(space, "f-red", [(["car", "red"], BoundingBox(0.4, 0.4, 0.2, 0.2))]),
            candidate(space, "f-grey", [(["car", "grey"], BoundingBox(0.4, 0.4, 0.2, 0.2))]),
            candidate(space, "f-dog", [(["dog", "brown"], BoundingBox(0.4, 0.4, 0.2, 0.2))]),
        ]
        ranked = reranker.rerank(query, candidates)
        scores = [result.score for result in ranked]
        assert scores == sorted(scores, reverse=True)
        assert ranked[0].frame_id == "f-red"
        assert ranked[-1].frame_id == "f-dog"


class TestCandidates:
    def frame_arrays(self, space, objectness):
        rows = len(objectness)
        return FrameArrays(
            embeddings=np.stack([space.encode(["car"])] * rows),
            boxes=np.tile([0.1, 0.2, 0.3, 0.4], (rows, 1)),
            objectness=np.asarray(objectness, dtype=np.float64),
        )

    def test_keeps_only_rows_reaching_min_objectness(self, space, reranker):
        threshold = reranker.config.min_objectness
        frame = reranker.candidate("f", self.frame_arrays(space, [0.9, 0.0, threshold, 0.01]))
        assert frame.patch_ids == ("f/patch000", "f/patch002")
        assert frame.embeddings.shape == (2, space.dim)
        assert frame.boxes.shape == (2, 4)
        np.testing.assert_array_equal(frame.objectness, [0.9, threshold])

    def test_keeps_every_row_when_none_reaches_it(self, space, reranker):
        frame = reranker.candidate("f", self.frame_arrays(space, [0.0, 0.01, 0.0]))
        assert frame.patch_ids == ("f/patch000", "f/patch001", "f/patch002")


class TestBlocks:
    @pytest.mark.parametrize("sizes", [
        [1], [RERANK_BLOCK_ROWS], [RERANK_BLOCK_ROWS + 5], [100, 100, 56, 1],
        [300, 2, 255, 255, 1], [13] * 60, [64] * 9,
    ])
    def test_frames_are_never_split_and_blocks_stay_bounded(self, sizes):
        bounds = np.cumsum([0] + sizes).tolist()
        blocks = _blocks(bounds, num_text=3)
        assert blocks[0].rows.start == 0 and blocks[-1].rows.stop == bounds[-1]
        frames_seen = 0
        for before, block in zip([None, *blocks], blocks):
            if before is not None:
                assert block.rows.start == before.rows.stop
            num_frames = len(block.image_bounds) - 1
            local = [bound + block.rows.start for bound in block.image_bounds]
            assert local == bounds[frames_seen:frames_seen + num_frames + 1]
            assert block.text_bounds == [3 * index for index in range(num_frames + 1)]
            rows = block.rows.stop - block.rows.start
            assert rows <= RERANK_BLOCK_ROWS or num_frames == 1
            frames_seen += num_frames
        assert frames_seen == len(sizes)

    def test_scores_match_frame_by_frame_across_block_edges(self, space, parser, reranker):
        """Whichever block a frame lands in, it gets the same detections as
        when it is scored alone, with scores equal to rounding."""
        rng = np.random.default_rng(3)
        tokens = [["car", "red", "road"], ["car", "grey", "road"], ["person", "walking"],
                  ["bus", "blue"], ["road"]]
        frames = []
        for index in range(40):
            specs = []
            for _ in range(int(rng.integers(1, 30))):
                x, y = rng.uniform(0.0, 0.8, size=2)
                specs.append((tokens[int(rng.integers(len(tokens)))],
                               BoundingBox(float(x), float(y), 0.12, 0.1)))
            frames.append(candidate(space, f"f{index}", specs))
        assert sum(len(frame.patch_ids) for frame in frames) > 2 * RERANK_BLOCK_ROWS
        query = parser.parse("A red car side by side with another car in the center of the road.")
        together = {result.frame_id: result for result in reranker.rerank(query, frames)}
        for frame in frames:
            alone = score_one(reranker, query, frame)
            joint = together[frame.frame_id]
            assert [d.patch_id for d in joint.detections] == [d.patch_id for d in alone.detections]
            assert [d.box for d in joint.detections] == [d.box for d in alone.detections]
            for left, right in zip(joint.detections, alone.detections):
                assert left.relation_score == right.relation_score
                assert abs(left.score - right.score) <= RERANK_SCORE_TOLERANCE


class TestCompanionRounding:
    def test_threshold_verdict_matches_scalar_dot_and_norm(self, space):
        """A row at exactly the threshold passes and one ulp above fails, so
        the stacked similarity rounds like ``dot / norm`` of one row."""
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(40, space.dim)) + space.encode(["woman", "black"])
        companion = space.encode(["woman"])
        for row in range(rows.shape[0]):
            scalar = float(rows[row] @ companion / np.linalg.norm(rows[row]))
            at = CrossModalityReranker(space, RerankerConfig(companion_similarity_threshold=scalar))
            next_up = float(np.nextafter(scalar, 2.0))
            above = CrossModalityReranker(
                space, RerankerConfig(companion_similarity_threshold=next_up)
            )
            assert at._companion_mask(rows, companion)[row]
            assert not above._companion_mask(rows, companion)[row]

    def test_zero_rows_are_never_companions(self, space, reranker):
        rows = np.zeros((2, space.dim))
        rows[1] = space.encode(["woman"])
        assert reranker._companion_mask(rows, space.encode(["woman"])).tolist() == [False, True]


# Few distinct values, so generated frames hold duplicate and zero-area boxes,
# clusters that overlap more than ``max_boxes_per_frame`` allows, and tied
# scores within and across frames.
_nms_boxes = st.builds(
    BoundingBox,
    x=st.sampled_from([0.0, 0.05, 0.1, 0.4]),
    y=st.sampled_from([0.0, 0.05, 0.1]),
    w=st.sampled_from([0.0, 0.1, 0.2, 0.3]),
    h=st.sampled_from([0.0, 0.1, 0.2]),
)
_nms_scores = st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(-1.0, 1.0))


def reference_nms(config, frames, appearance, relation, top_n):
    """Per-frame greedy NMS over ``BoundingBox.iou`` in descending score
    order, ties to the lower row; frames best first, ties in candidate order."""
    combined = appearance + relation
    results, start = [], 0
    for frame in frames:
        rows = range(start, start + len(frame.patch_ids))
        start += len(frame.patch_ids)
        kept = []
        for row in sorted(rows, key=lambda row: -combined[row]):
            box = BoundingBox(*frame.boxes[row - rows.start].tolist())
            if any(box.iou(other.box) >= config.nms_iou_threshold for other in kept):
                continue
            kept.append(RerankDetection(
                box=box,
                patch_id=frame.patch_ids[row - rows.start],
                score=float(combined[row]),
                appearance_score=float(appearance[row]),
                relation_score=float(relation[row]),
            ))
            if len(kept) >= config.max_boxes_per_frame:
                break
        best = kept[0]
        results.append(RerankResult(
            frame_id=frame.frame_id, score=best.score, box=best.box, patch_id=best.patch_id,
            appearance_score=best.appearance_score, relation_score=best.relation_score,
            detections=tuple(kept),
        ))
    results.sort(key=lambda result: result.score, reverse=True)
    return results if top_n is None else results[:top_n]


def nms_frames(box_lists):
    """Candidates with the given boxes; NMS reads no embedding."""
    return [
        FrameCandidate(
            frame_id=f"f{index}",
            embeddings=np.zeros((len(boxes), 1)),
            boxes=box_array(boxes),
            objectness=np.ones(len(boxes)),
            patch_ids=tuple(f"f{index}/p{row}" for row in range(len(boxes))),
        )
        for index, boxes in enumerate(box_lists)
    ]


class TestNonMaximumSuppression:
    @given(
        box_lists=st.lists(st.lists(_nms_boxes, min_size=1, max_size=8), min_size=1, max_size=6),
        max_boxes=st.integers(0, 3),  # a cap below one still keeps the best row
        threshold=st.sampled_from([0.3, 0.45, 1.0]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_frame_greedy_reference(self, space, box_lists, max_boxes, threshold, data):
        config = RerankerConfig(max_boxes_per_frame=max_boxes, nms_iou_threshold=threshold)
        reranker = CrossModalityReranker(space, config)
        frames = nms_frames(box_lists)
        rows = sum(len(boxes) for boxes in box_lists)
        appearance = np.array(data.draw(st.lists(_nms_scores, min_size=rows, max_size=rows)))
        relation = np.array(data.draw(
            st.lists(st.sampled_from([0.0, 0.35, -0.2]), min_size=rows, max_size=rows)
        ))
        top_n = data.draw(st.one_of(st.none(), st.integers(0, len(frames) + 2)), label="top_n")
        bounds = np.cumsum([0] + [len(boxes) for boxes in box_lists]).tolist()
        got = reranker._decode_detections(
            frames, bounds, appearance + relation, appearance, relation, top_n
        )
        assert got == reference_nms(config, frames, appearance, relation, top_n)

    def test_memory_grows_with_rows_not_rows_squared(self, space, reranker):
        """60 frames × 64 rows: a padded 64×64 IoU per frame peaked at 15.4 MB."""
        rng = np.random.default_rng(5)
        frames = nms_frames([
            [BoundingBox(*rng.uniform(0.0, 0.8, size=2), 0.1, 0.1) for _ in range(64)]
            for _ in range(60)
        ])
        combined = rng.normal(size=60 * 64)
        bounds = list(range(0, 60 * 64 + 1, 64))
        tracemalloc.start()
        try:
            reranker._decode_detections(frames, bounds, combined, combined, combined * 0, None)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024
