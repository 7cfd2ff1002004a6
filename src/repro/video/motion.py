"""Block-matching motion-vector estimation.

MVmed (the key-frame tracker the paper adopts, §IV-A) works in the compressed
domain by reading the motion vectors the codec already computed.  Raw motion
vectors are not available for synthetic frames, so this module recomputes them
with classic block matching over the rendered luminance images: each block of
the current frame is matched against a small search window in the previous
frame and the displacement with the lowest sum-of-absolute-differences wins.
The resulting field has exactly the same role as codec motion vectors — it
measures how much, and where, the scene moved — which is all the MVmed-style
key-frame selector needs.

:func:`estimate_motion_run` matches every consecutive pair of an ``(n, H, W)``
luminance stack at once: for each candidate displacement it shifts the whole
stack of earlier frames, takes one difference against the stack of later
frames and sums it per block, so a run of ``n`` frames costs one pass over the
displacements instead of ``n - 1``.  :func:`estimate_motion` is its two-frame
case.  The block costs are the per-frame
``reshape(rows, b, cols, b).sum(axis=(1, 3))`` with a leading frame axis, so
they, and the chosen vectors, are the same bits however the frames are
grouped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MotionField:
    """Dense block-level motion vectors between frames.

    A field from :func:`estimate_motion` is ``(rows, cols)``; one from
    :func:`estimate_motion_run` has a leading axis with one entry per
    consecutive frame pair.

    Attributes:
        dx: Horizontal displacement per block (in pixels).
        dy: Vertical displacement per block (in pixels).
    """

    dx: np.ndarray
    dy: np.ndarray

    @property
    def magnitude(self) -> np.ndarray:
        """Per-block motion magnitude."""
        return np.sqrt(self.dx ** 2 + self.dy ** 2)

    def pair_mean_magnitudes(self) -> np.ndarray:
        """Mean magnitude of each pair of a run field (0.0 for no blocks)."""
        magnitude = self.magnitude
        if magnitude.size == 0:
            return np.zeros(len(magnitude))
        return magnitude.reshape(len(magnitude), -1).mean(axis=1)


def estimate_motion(
    previous: np.ndarray,
    current: np.ndarray,
    block_size: int = 8,
    search_radius: int = 2,
) -> MotionField:
    """Estimate block motion from ``previous`` to ``current`` luminance images.

    Args:
        previous: ``(H, W)`` luminance image of the earlier frame.
        current: ``(H, W)`` luminance image of the later frame.
        block_size: Side length of the matching blocks in pixels.
        search_radius: Maximum displacement searched in each direction.

    Returns:
        A :class:`MotionField` with one vector per block.
    """
    if previous.shape != current.shape:
        raise ValueError(
            f"Frame shapes differ: {previous.shape} vs {current.shape}"
        )
    field = estimate_motion_run(np.stack((previous, current)), block_size, search_radius)
    return MotionField(dx=field.dx[0], dy=field.dy[0])


def estimate_motion_run(
    frames: np.ndarray,
    block_size: int = 8,
    search_radius: int = 2,
) -> MotionField:
    """Estimate block motion between each consecutive pair of a frame stack.

    Args:
        frames: ``(n, H, W)`` luminance images in temporal order.
        block_size: Side length of the matching blocks in pixels; rows and
            columns past the last whole block are ignored.
        search_radius: Maximum displacement searched in each direction.

    Returns:
        A :class:`MotionField` of shape ``(n - 1, rows, cols)``: entry ``i``
        is the motion from frame ``i`` to frame ``i + 1``.
    """
    count, height, width = frames.shape
    rows, cols = height // block_size, width // block_size
    usable_h, usable_w = rows * block_size, cols * block_size
    radius = search_radius
    displacements = [
        (offset_x, offset_y)
        for offset_y in range(-radius, radius + 1)
        for offset_x in range(-radius, radius + 1)
    ]
    offsets = np.array(displacements, dtype=np.float64)
    costs = np.empty((len(offsets), max(count - 1, 0), rows, cols))
    padded = np.pad(frames[:-1], ((0, 0), (radius, radius), (radius, radius)), mode="edge")
    current = frames[1:, :usable_h, :usable_w]
    difference = np.empty(current.shape)
    for index, (offset_x, offset_y) in enumerate(displacements):
        shifted = padded[
            :,
            radius + offset_y: radius + offset_y + usable_h,
            radius + offset_x: radius + offset_x + usable_w,
        ]
        np.subtract(current, shifted, out=difference)
        np.abs(difference, out=difference)
        _block_sums(difference, block_size, out=costs[index])

    # argmin keeps the first of equal costs, as the per-block search did.
    best = costs.argmin(axis=0)
    return MotionField(dx=offsets[best, 0], dy=offsets[best, 1])


def _block_sums(difference: np.ndarray, block_size: int, out: np.ndarray) -> None:
    """Write the per-block sums of an ``(n, rows*b, cols*b)`` stack into ``out``."""
    count, usable_h, usable_w = difference.shape
    rows, cols = usable_h // block_size, usable_w // block_size
    difference.reshape(count, rows, block_size, cols, block_size).sum(axis=(2, 4), out=out)
