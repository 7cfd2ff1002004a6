"""Unit and property tests for bounding-box geometry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.geometry import (
    BoundingBox,
    box_array,
    box_in_center_region,
    box_inside,
    box_next_to,
    boxes_side_by_side,
    center_region_mask,
    clip_unit,
    iou,
    iou_array,
    iou_matrix,
    next_to_matrix,
    pairwise_center_distance,
    side_by_side_matrix,
)

boxes = st.builds(
    BoundingBox,
    x=st.floats(-0.5, 1.5),
    y=st.floats(-0.5, 1.5),
    w=st.floats(0.0, 1.0),
    h=st.floats(0.0, 1.0),
)


class TestBoundingBox:
    def test_basic_properties(self):
        box = BoundingBox(0.1, 0.2, 0.3, 0.4)
        assert box.x2 == pytest.approx(0.4)
        assert box.y2 == pytest.approx(0.6)
        assert box.area == pytest.approx(0.12)
        assert box.center == (pytest.approx(0.25), pytest.approx(0.4))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, -0.1, 0.1)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0.1, -0.1)

    def test_from_center_round_trip(self):
        box = BoundingBox.from_center(0.5, 0.5, 0.2, 0.1)
        assert box.center == (pytest.approx(0.5), pytest.approx(0.5))
        assert box.w == pytest.approx(0.2)

    def test_from_array_and_to_array(self):
        box = BoundingBox.from_array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(box.to_array(), [0.1, 0.2, 0.3, 0.4])

    def test_from_array_wrong_length(self):
        with pytest.raises(ValueError):
            BoundingBox.from_array([0.1, 0.2, 0.3])

    def test_clipped_stays_in_unit_square(self):
        box = BoundingBox(-0.2, 0.9, 0.5, 0.5)
        clipped = box.clipped()
        assert clipped.x >= 0.0 and clipped.y >= 0.0
        assert clipped.x2 <= 1.0 and clipped.y2 <= 1.0

    def test_shifted_and_scaled(self):
        box = BoundingBox(0.2, 0.2, 0.2, 0.2)
        shifted = box.shifted(0.1, -0.1)
        assert shifted.x == pytest.approx(0.3)
        assert shifted.y == pytest.approx(0.1)
        scaled = box.scaled(2.0)
        assert scaled.w == pytest.approx(0.4)
        assert scaled.center == (pytest.approx(0.3), pytest.approx(0.3))

    def test_contains_point(self):
        box = BoundingBox(0.2, 0.2, 0.2, 0.2)
        assert box.contains_point(0.3, 0.3)
        assert not box.contains_point(0.5, 0.5)

    def test_overlap_fraction(self):
        outer = BoundingBox(0.0, 0.0, 1.0, 1.0)
        inner = BoundingBox(0.0, 0.0, 0.5, 0.5)
        assert inner.overlap_fraction(outer) == pytest.approx(1.0)
        assert outer.overlap_fraction(inner) == pytest.approx(0.25)


class TestIoU:
    def test_identical_boxes(self):
        box = BoundingBox(0.1, 0.1, 0.2, 0.2)
        assert iou(box, box) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        a = BoundingBox(0.0, 0.0, 0.1, 0.1)
        b = BoundingBox(0.5, 0.5, 0.1, 0.1)
        assert iou(a, b) == 0.0

    def test_half_overlap(self):
        a = BoundingBox(0.0, 0.0, 0.2, 0.2)
        b = BoundingBox(0.1, 0.0, 0.2, 0.2)
        assert iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_degenerate_boxes(self):
        a = BoundingBox(0.0, 0.0, 0.0, 0.0)
        b = BoundingBox(0.0, 0.0, 0.1, 0.1)
        assert iou(a, b) == 0.0

    def test_iou_matrix_shape_and_values(self):
        a = [BoundingBox(0, 0, 0.2, 0.2), BoundingBox(0.5, 0.5, 0.2, 0.2)]
        b = [BoundingBox(0, 0, 0.2, 0.2)]
        matrix = iou_matrix(a, b)
        assert matrix.shape == (2, 1)
        assert matrix[0, 0] == pytest.approx(1.0)
        assert matrix[1, 0] == 0.0

    @given(a=boxes, b=boxes)
    @settings(max_examples=100, deadline=None)
    def test_iou_symmetric_and_bounded(self, a, b):
        forward = iou(a, b)
        backward = iou(b, a)
        assert forward == pytest.approx(backward)
        assert 0.0 <= forward <= 1.0 + 1e-9

    @given(box=boxes)
    @settings(max_examples=100, deadline=None)
    def test_self_iou_is_one_for_positive_area(self, box):
        if box.w > 1e-6 and box.h > 1e-6:
            assert iou(box, box) == pytest.approx(1.0)

    @given(box=boxes)
    @settings(max_examples=100, deadline=None)
    def test_clipped_is_inside_unit_square(self, box):
        clipped = box.clipped()
        assert -1e-9 <= clipped.x <= 1.0 + 1e-9
        assert -1e-9 <= clipped.y <= 1.0 + 1e-9
        assert clipped.x2 <= 1.0 + 1e-9
        assert clipped.y2 <= 1.0 + 1e-9


class TestSpatialRelations:
    def test_side_by_side_true(self):
        a = BoundingBox.from_center(0.4, 0.5, 0.1, 0.08)
        b = BoundingBox.from_center(0.55, 0.5, 0.1, 0.08)
        assert boxes_side_by_side(a, b)

    def test_side_by_side_false_when_far(self):
        a = BoundingBox.from_center(0.1, 0.5, 0.1, 0.08)
        b = BoundingBox.from_center(0.9, 0.5, 0.1, 0.08)
        assert not boxes_side_by_side(a, b)

    def test_side_by_side_false_when_vertically_offset(self):
        a = BoundingBox.from_center(0.4, 0.2, 0.1, 0.08)
        b = BoundingBox.from_center(0.5, 0.7, 0.1, 0.08)
        assert not boxes_side_by_side(a, b)

    def test_center_region(self):
        assert box_in_center_region(BoundingBox.from_center(0.5, 0.5, 0.1, 0.1))
        assert not box_in_center_region(BoundingBox.from_center(0.05, 0.05, 0.1, 0.1))

    def test_next_to(self):
        a = BoundingBox.from_center(0.4, 0.5, 0.1, 0.1)
        b = BoundingBox.from_center(0.5, 0.5, 0.1, 0.1)
        assert box_next_to(a, b)
        far = BoundingBox.from_center(0.95, 0.1, 0.05, 0.05)
        assert not box_next_to(a, far)

    def test_inside(self):
        outer = BoundingBox(0.2, 0.2, 0.6, 0.6)
        inner = BoundingBox(0.3, 0.3, 0.1, 0.1)
        assert box_inside(inner, outer)
        assert not box_inside(outer, inner)


class TestHelpers:
    def test_clip_unit(self):
        assert clip_unit(-0.5) == 0.0
        assert clip_unit(0.25) == 0.25
        assert clip_unit(1.5) == 1.0

    def test_pairwise_center_distance(self):
        distances = pairwise_center_distance(
            [BoundingBox.from_center(0, 0, 0.1, 0.1), BoundingBox.from_center(1, 0, 0.1, 0.1)]
        )
        assert distances.shape == (2, 2)
        assert distances[0, 1] == pytest.approx(1.0)
        assert distances[0, 0] == 0.0

    def test_pairwise_center_distance_empty(self):
        assert pairwise_center_distance([]).shape == (0, 0)


# Coordinates and sizes mix arbitrary floats with round values, so generated
# boxes often sit exactly on a predicate's threshold or have zero size.
_round_values = st.sampled_from([i / 20 for i in range(-4, 25)])
_coordinates = st.one_of(st.floats(-0.5, 1.5), _round_values)
_sizes = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0),
    st.sampled_from([0.02, 0.05, 0.08, 0.1, 0.12, 0.15, 0.2, 0.25, 0.3, 0.5]),
)
_edge_boxes = st.builds(BoundingBox, x=_coordinates, y=_coordinates, w=_sizes, h=_sizes)


@st.composite
def box_lists(draw):
    """Boxes where later ones often stand exactly at a relation threshold of an earlier one."""
    result = [draw(_edge_boxes)]
    for _ in range(draw(st.integers(0, 7))):
        if draw(st.booleans()):
            result.append(draw(_edge_boxes))
            continue
        anchor = draw(st.sampled_from(result))
        (cx, cy), w, h = anchor.center, draw(_sizes), draw(_sizes)
        dx, dy = draw(st.sampled_from([
            (0.25, 0.0), (-0.25, 0.08), (0.1, -0.08), (0.0, 0.0), (0.2, 0.08),
            (0.15 + (anchor.w + w) / 4.0, 0.0), (0.0, 0.15 + (anchor.w + w) / 4.0),
        ]))
        result.append(BoundingBox.from_center(cx + dx, cy + dy, w, h))
    return result


class TestArrayTwins:
    """Each array predicate equals its scalar predicate exactly, box by box."""

    @given(a=box_lists(), b=box_lists())
    @settings(max_examples=200, deadline=None)
    def test_iou_matrix(self, a, b):
        expected = [[iou(box_a, box_b) for box_b in b] for box_a in a]
        assert iou_matrix(a, b).tolist() == expected
        assert iou_matrix(box_array(a), box_array(b)).tolist() == expected

    @given(a=box_lists(), b=box_lists())
    @settings(max_examples=100, deadline=None)
    def test_iou_is_symmetric(self, a, b):
        """Greedy NMS reads ``iou(pick, row)`` where a scan over kept boxes
        reads ``iou(row, pick)``: swapping the two boxes must give the same
        bits."""
        left, right = box_array(a)[:, None, :], box_array(b)[None, :, :]
        np.testing.assert_array_equal(iou_array(left, right), iou_array(right, left))
        np.testing.assert_array_equal(iou_array(left, right).T, iou_matrix(b, a))

    @given(boxes=box_lists(), margin=st.sampled_from([0.25, 0.15]))
    @settings(max_examples=200, deadline=None)
    def test_center_region_mask(self, boxes, margin):
        expected = [box_in_center_region(box, margin=margin) for box in boxes]
        assert center_region_mask(box_array(boxes), margin=margin).tolist() == expected

    @given(a=box_lists(), b=box_lists())
    @settings(max_examples=200, deadline=None)
    def test_side_by_side_matrix(self, a, b):
        expected = [[boxes_side_by_side(box_a, box_b) for box_b in b] for box_a in a]
        assert side_by_side_matrix(box_array(a), box_array(b)).tolist() == expected

    @given(a=box_lists(), b=box_lists())
    @settings(max_examples=200, deadline=None)
    def test_next_to_matrix(self, a, b):
        expected = [[box_next_to(box_a, box_b) for box_b in b] for box_a in a]
        assert next_to_matrix(box_array(a), box_array(b)).tolist() == expected

    def test_threshold_edges_are_inclusive(self):
        a = BoundingBox.from_center(0.5, 0.5, 0.1, 0.1)
        gap = BoundingBox.from_center(0.75, 0.5, 0.1, 0.1)
        assert boxes_side_by_side(a, gap) and side_by_side_matrix([a], [gap])[0, 0]
        assert center_region_mask([BoundingBox.from_center(0.25, 0.75, 0.0, 0.0)])[0]

    def test_empty_inputs(self):
        box = [BoundingBox(0.1, 0.1, 0.2, 0.2)]
        assert iou_matrix([], box).shape == (0, 1)
        assert side_by_side_matrix(box, []).shape == (1, 0)
        assert next_to_matrix([], []).shape == (0, 0)
        assert center_region_mask([]).shape == (0,)
