"""Bounding boxes, IoU computation, and spatial-relation predicates.

The paper evaluates object matches with an IoU threshold of 0.5 (following
MSCOCO) and its complex queries include spatial relations such as "side by
side" or "in the center of the road".  This module provides the geometric
primitives used by the synthetic datasets, the localization heads, the
cross-modality rerank, and the evaluation metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned bounding box in normalised frame coordinates.

    Coordinates follow the ``(x, y, w, h)`` convention used in the paper's
    vector collection (§IV-D): ``(x, y)`` is the top-left corner and
    ``(w, h)`` the width and height.  All values are expressed as fractions of
    the frame, i.e. lie in ``[0, 1]`` for boxes fully inside the frame.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w < 0 or self.h < 0:
            raise ValueError(f"Box width/height must be non-negative, got {self}")

    @property
    def x2(self) -> float:
        """Right edge."""
        return self.x + self.w

    @property
    def y2(self) -> float:
        """Bottom edge."""
        return self.y + self.h

    @property
    def area(self) -> float:
        """Box area."""
        return self.w * self.h

    @property
    def center(self) -> tuple[float, float]:
        """Box centre ``(cx, cy)``."""
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    def clipped(self) -> "BoundingBox":
        """Return a copy clipped to the unit frame ``[0, 1] x [0, 1]``."""
        x1 = min(max(self.x, 0.0), 1.0)
        y1 = min(max(self.y, 0.0), 1.0)
        x2 = min(max(self.x2, 0.0), 1.0)
        y2 = min(max(self.y2, 0.0), 1.0)
        return BoundingBox(x1, y1, max(x2 - x1, 0.0), max(y2 - y1, 0.0))

    def shifted(self, dx: float, dy: float) -> "BoundingBox":
        """Return a copy translated by ``(dx, dy)``."""
        return BoundingBox(self.x + dx, self.y + dy, self.w, self.h)

    def scaled(self, factor: float) -> "BoundingBox":
        """Return a copy scaled about its centre by ``factor``."""
        cx, cy = self.center
        new_w = self.w * factor
        new_h = self.h * factor
        return BoundingBox(cx - new_w / 2.0, cy - new_h / 2.0, new_w, new_h)

    def intersection(self, other: "BoundingBox") -> float:
        """Intersection area with ``other``."""
        ix = max(0.0, min(self.x2, other.x2) - max(self.x, other.x))
        iy = max(0.0, min(self.y2, other.y2) - max(self.y, other.y))
        return ix * iy

    def iou(self, other: "BoundingBox") -> float:
        """Intersection-over-union with ``other``."""
        return iou(self, other)

    def overlap_fraction(self, other: "BoundingBox") -> float:
        """Fraction of *this* box covered by ``other``."""
        if self.area <= 0.0:
            return 0.0
        return self.intersection(other) / self.area

    def contains_point(self, px: float, py: float) -> bool:
        """Whether ``(px, py)`` lies inside the box (inclusive)."""
        return self.x <= px <= self.x2 and self.y <= py <= self.y2

    def to_array(self) -> np.ndarray:
        """Return ``[x, y, w, h]`` as a float64 array."""
        return np.array([self.x, self.y, self.w, self.h], dtype=np.float64)

    @classmethod
    def from_array(cls, values: Sequence[float]) -> "BoundingBox":
        """Build a box from any length-4 sequence ``[x, y, w, h]``."""
        if len(values) != 4:
            raise ValueError(f"Expected 4 values, got {len(values)}")
        return cls(float(values[0]), float(values[1]), float(values[2]), float(values[3]))

    @classmethod
    def from_center(cls, cx: float, cy: float, w: float, h: float) -> "BoundingBox":
        """Build a box from its centre point and size."""
        return cls(cx - w / 2.0, cy - h / 2.0, w, h)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """IoU between two boxes; 0 when either box is degenerate.

    Capped at 1: the intersection's edges are recomputed from ``x + w``, so
    for a near-degenerate box rounding can make it exceed the box's area.
    """
    inter = a.intersection(b)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return min(inter / union, 1.0)


def box_array(boxes: Sequence[BoundingBox]) -> np.ndarray:
    """Stack boxes into a ``(len(boxes), 4)`` array of ``[x, y, w, h]`` rows."""
    return np.array([(box.x, box.y, box.w, box.h) for box in boxes], dtype=np.float64).reshape(
        len(boxes), 4
    )


def _box_rows(boxes: Sequence[BoundingBox] | np.ndarray) -> np.ndarray:
    """``(N, 4)`` float64 ``[x, y, w, h]`` rows from an array or a box sequence."""
    if isinstance(boxes, np.ndarray):
        return boxes.reshape(-1, 4).astype(np.float64, copy=False)
    return box_array(boxes)


def _centers(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box centres ``(cx, cy)`` of ``(N, 4)`` rows, rounded like :attr:`BoundingBox.center`."""
    return boxes[:, 0] + boxes[:, 2] / 2.0, boxes[:, 1] + boxes[:, 3] / 2.0


def iou_array(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """IoU of ``[x, y, w, h]`` rows ``boxes_a[..., :]`` and ``boxes_b[..., :]``.

    The leading axes broadcast, so one call compares whole sets of pairs.
    Each entry equals :func:`iou` of its two boxes exactly: the array code
    repeats the scalar's floating-point operations in the same order.  Every
    operation is commutative in its two boxes, so swapping the arguments
    gives the same bits.
    """
    a, b = boxes_a, boxes_b
    right = np.minimum(a[..., 0] + a[..., 2], b[..., 0] + b[..., 2])
    bottom = np.minimum(a[..., 1] + a[..., 3], b[..., 1] + b[..., 3])
    ix = np.maximum(0.0, right - np.maximum(a[..., 0], b[..., 0]))
    iy = np.maximum(0.0, bottom - np.maximum(a[..., 1], b[..., 1]))
    inter = ix * iy
    union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0.0, np.minimum(inter / union, 1.0), 0.0)


def iou_matrix(
    boxes_a: Sequence[BoundingBox] | np.ndarray, boxes_b: Sequence[BoundingBox] | np.ndarray
) -> np.ndarray:
    """Pairwise IoU matrix with shape ``(len(boxes_a), len(boxes_b))``.

    Entry ``[i, j]`` equals ``iou(a_i, b_j)`` exactly (see :func:`iou_array`).
    Both arguments may be box sequences or ``(N, 4)`` ``[x, y, w, h]`` arrays.
    """
    return iou_array(_box_rows(boxes_a)[:, None, :], _box_rows(boxes_b)[None, :, :])


def pairwise_center_distance(boxes: Sequence[BoundingBox]) -> np.ndarray:
    """Pairwise Euclidean distance between box centres."""
    centers = np.array([box.center for box in boxes], dtype=np.float64)
    if centers.size == 0:
        return np.zeros((0, 0), dtype=np.float64)
    deltas = centers[:, None, :] - centers[None, :, :]
    return np.sqrt((deltas ** 2).sum(axis=-1))


def boxes_side_by_side(
    a: BoundingBox,
    b: BoundingBox,
    max_center_gap: float = 0.25,
    max_vertical_offset: float = 0.08,
) -> bool:
    """Spatial predicate for the "side by side" relation used in Q2.2.

    Two boxes are side by side when their vertical centres are close, they do
    not substantially overlap, and their horizontal separation is small.
    """
    (ax, ay), (bx, by) = a.center, b.center
    if iou(a, b) > 0.3:
        return False
    if abs(ay - by) > max_vertical_offset:
        return False
    return abs(ax - bx) <= max_center_gap


def box_in_center_region(box: BoundingBox, margin: float = 0.25) -> bool:
    """Spatial predicate for "in the center of the road / frame"."""
    cx, cy = box.center
    return (margin <= cx <= 1.0 - margin) and (margin <= cy <= 1.0 - margin)


def box_next_to(a: BoundingBox, b: BoundingBox, max_gap: float = 0.15) -> bool:
    """Spatial predicate for "next to" — centres within ``max_gap``."""
    (ax, ay), (bx, by) = a.center, b.center
    return float(np.hypot(ax - bx, ay - by)) <= max_gap + (a.w + b.w) / 4.0


def center_region_mask(
    boxes: Sequence[BoundingBox] | np.ndarray, margin: float = 0.25
) -> np.ndarray:
    """Array twin of :func:`box_in_center_region`: one bool per box."""
    cx, cy = _centers(_box_rows(boxes))
    return (margin <= cx) & (cx <= 1.0 - margin) & (margin <= cy) & (cy <= 1.0 - margin)


def side_by_side_matrix(
    boxes_a: Sequence[BoundingBox] | np.ndarray,
    boxes_b: Sequence[BoundingBox] | np.ndarray,
    max_center_gap: float = 0.25,
    max_vertical_offset: float = 0.08,
) -> np.ndarray:
    """Array twin of :func:`boxes_side_by_side`: ``[i, j]`` relates ``a_i`` to ``b_j``."""
    a, b = _box_rows(boxes_a), _box_rows(boxes_b)
    (ax, ay), (bx, by) = _centers(a), _centers(b)
    return (
        (iou_matrix(a, b) <= 0.3)
        & (np.abs(ay[:, None] - by[None, :]) <= max_vertical_offset)
        & (np.abs(ax[:, None] - bx[None, :]) <= max_center_gap)
    )


def next_to_matrix(
    boxes_a: Sequence[BoundingBox] | np.ndarray,
    boxes_b: Sequence[BoundingBox] | np.ndarray,
    max_gap: float = 0.15,
) -> np.ndarray:
    """Array twin of :func:`box_next_to`: ``[i, j]`` relates ``a_i`` to ``b_j``."""
    a, b = _box_rows(boxes_a), _box_rows(boxes_b)
    (ax, ay), (bx, by) = _centers(a), _centers(b)
    distance = np.hypot(ax[:, None] - bx[None, :], ay[:, None] - by[None, :])
    return distance <= max_gap + (a[:, None, 2] + b[None, :, 2]) / 4.0


def box_inside(inner: BoundingBox, outer: BoundingBox, min_overlap: float = 0.7) -> bool:
    """Spatial predicate for containment ("inside a car")."""
    return inner.overlap_fraction(outer) >= min_overlap


def clip_unit(value: float) -> float:
    """Clamp a scalar to ``[0, 1]``."""
    return min(max(value, 0.0), 1.0)
