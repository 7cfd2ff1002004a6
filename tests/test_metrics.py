"""Tests for the Average Precision metric and IoU-based matching."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import ObjectQueryResult
from repro.errors import EvaluationError
from repro.eval.metrics import (
    GroundTruthInstance,
    average_precision,
    evaluate_results,
    match_results,
    recall_at_k,
)
from repro.utils.geometry import BoundingBox


def result(frame_id: str, box: BoundingBox, score: float) -> ObjectQueryResult:
    return ObjectQueryResult(frame_id=frame_id, video_id="v", box=box, score=score)


def instance(object_id: str, frame_boxes: dict) -> GroundTruthInstance:
    return GroundTruthInstance(object_id=object_id, boxes=frame_boxes)


BOX = BoundingBox(0.4, 0.4, 0.2, 0.2)
OTHER_BOX = BoundingBox(0.05, 0.05, 0.1, 0.1)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([True, True], num_positives=2) == pytest.approx(1.0)

    def test_all_misses(self):
        assert average_precision([False, False, False], num_positives=2) == 0.0

    def test_known_mixed_case(self):
        # Hits at ranks 1 and 3 with 2 positives: (1/1 + 2/3) / 2.
        value = average_precision([True, False, True], num_positives=2)
        assert value == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_duplicates_skipped(self):
        with_duplicate = average_precision([True, None, True], num_positives=2)
        without = average_precision([True, True], num_positives=2)
        assert with_duplicate == pytest.approx(without)

    def test_requires_positive_count(self):
        with pytest.raises(EvaluationError):
            average_precision([True], num_positives=0)

    @given(st.lists(st.booleans(), min_size=1, max_size=30), st.integers(1, 10))
    @settings(max_examples=100, deadline=None)
    def test_bounded_between_zero_and_one_when_positives_cover_hits(self, relevances, extra):
        num_positives = max(sum(relevances), 1) + extra - 1
        value = average_precision(relevances, num_positives=num_positives)
        assert 0.0 <= value <= 1.0 + 1e-9

    @given(st.lists(st.booleans(), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_appending_a_hit_never_decreases_ap(self, relevances):
        num_positives = sum(relevances) + 1
        before = average_precision(relevances, num_positives)
        after = average_precision(list(relevances) + [True], num_positives)
        assert after >= before - 1e-12


class TestMatching:
    def test_match_by_iou_in_same_frame(self):
        ground_truth = [instance("o1", {"f1": BOX})]
        results = [result("f1", BOX, 0.9), result("f2", BOX, 0.8)]
        assert match_results(results, ground_truth) == [True, False]

    def test_low_iou_is_false_positive(self):
        ground_truth = [instance("o1", {"f1": BOX})]
        results = [result("f1", OTHER_BOX, 0.9)]
        assert match_results(results, ground_truth) == [False]

    def test_duplicate_matches_collapse_to_none(self):
        ground_truth = [instance("o1", {"f1": BOX, "f2": BOX})]
        results = [result("f1", BOX, 0.9), result("f2", BOX, 0.8)]
        assert match_results(results, ground_truth) == [True, None]

    def test_two_instances_same_frame(self):
        ground_truth = [
            instance("o1", {"f1": BOX}),
            instance("o2", {"f1": OTHER_BOX}),
        ]
        results = [result("f1", BOX, 0.9), result("f1", OTHER_BOX, 0.8)]
        assert match_results(results, ground_truth) == [True, True]

    def test_matching_is_score_ordered(self):
        ground_truth = [instance("o1", {"f1": BOX})]
        results = [result("f1", BOX, 0.1), result("f1", OTHER_BOX, 0.9)]
        # The higher-scoring wrong box is processed first and misses.
        assert match_results(results, ground_truth) == [False, True]

    def test_invalid_threshold(self):
        with pytest.raises(EvaluationError):
            match_results([], [], iou_threshold=1.5)


class TestEvaluate:
    def test_requires_ground_truth(self):
        with pytest.raises(EvaluationError):
            evaluate_results([result("f1", BOX, 0.5)], [])

    def test_empty_results_scores_zero(self):
        assert evaluate_results([], [instance("o1", {"f1": BOX})]) == 0.0

    def test_perfect_single_query(self):
        ground_truth = [instance("o1", {"f1": BOX})]
        assert evaluate_results([result("f1", BOX, 0.9)], ground_truth) == pytest.approx(1.0)

    def test_top_multiplier_limits_considered_results(self):
        ground_truth = [instance("o1", {"f1": BOX})]
        # 10 junk results above the correct one with multiplier 10 -> correct
        # result at rank 11 is cut off entirely.
        results = [result("f2", BOX, 1.0 - i * 0.01) for i in range(10)]
        results.append(result("f1", BOX, 0.1))
        assert evaluate_results(results, ground_truth, top_multiplier=10) == 0.0
        assert evaluate_results(results, ground_truth, top_multiplier=11) > 0.0

    def test_recall_at_k(self):
        ground_truth = [instance("o1", {"f1": BOX}), instance("o2", {"f2": BOX})]
        results = [result("f1", BOX, 0.9), result("f3", BOX, 0.8)]
        assert recall_at_k(results, ground_truth, k=2) == pytest.approx(0.5)
        assert recall_at_k(results, ground_truth, k=0) == 0.0


class TestGroundTruthInstance:
    def test_box_lookup(self):
        target = instance("o1", {"f1": BOX})
        assert target.box_in("f1") == BOX
        assert target.box_in("f2") is None
        assert target.num_frames == 1
