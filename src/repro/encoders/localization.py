"""Simulated object-localization head (paper §IV-C).

Owl-ViT attaches a small MLP to every output patch token that predicts an
offset from the patch's default (anchor) box to the object the token
represents.  Training such a head is out of scope offline, so the
reproduction substitutes a *simulated pretrained head*: the predicted box for
a patch is the overlap-weighted average of the boxes of the objects covering
that patch, pulled toward the anchor when the patch is mostly background, and
perturbed with noise.  This reproduces the two behaviours the paper depends
on — per-patch open-vocabulary localization, and the failure mode that large
objects spanning many patches yield fragmented, slightly-off boxes.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.utils.geometry import BoundingBox, box_array
from repro.utils.rng import rng_from_tokens


class SimulatedBoxHead:
    """Predicts per-patch bounding boxes from anchors and object overlaps."""

    def __init__(self, noise_scale: float = 0.01, seed: int = 7) -> None:
        self._noise_scale = noise_scale
        self._seed = seed

    def predict(
        self,
        frame_id: str,
        anchors: Sequence[BoundingBox],
        object_boxes: Sequence[BoundingBox],
        overlaps: np.ndarray,
    ) -> List[BoundingBox]:
        """Predict one box per patch.

        Args:
            frame_id: Used to derive the deterministic noise stream.
            anchors: Default box of each patch.
            object_boxes: Ground-truth-shaped boxes of the objects present in
                the frame (what a pretrained detector would localise).
            overlaps: ``(num_patches, num_objects)`` matrix with the fraction
                of each patch covered by each object.

        Returns:
            A predicted :class:`BoundingBox` per patch.
        """
        predicted = self.predict_array(
            frame_id,
            box_array(anchors),
            box_array(object_boxes),
            np.asarray(overlaps, dtype=np.float64).reshape(len(anchors), len(object_boxes)),
        )
        return [BoundingBox(*row) for row in predicted.tolist()]

    def predict_array(
        self,
        frame_id: str,
        anchors: np.ndarray,
        object_boxes: np.ndarray,
        overlaps: np.ndarray,
    ) -> np.ndarray:
        """Array form of :meth:`predict`: ``(P, 4)`` anchors and ``(O, 4)``
        object boxes as ``[x, y, w, h]`` rows in, ``(P, 4)`` boxes out."""
        total = overlaps.sum(axis=1)
        covered = total > 1e-6
        # Accumulate object by object, in the same order as a per-patch
        # weighted sum, so every box is bit-for-bit the sequential result.
        blended = np.zeros_like(anchors)
        for index in range(object_boxes.shape[0]):
            blended += overlaps[:, index:index + 1] * object_boxes[index]
        blended /= np.where(covered, total, 1.0)[:, None]
        # Mostly-background patches regress toward their anchor, the way a
        # real head's low-objectness predictions hug the default box; any
        # patch with a substantial object overlap localises the object.
        anchor_pull = np.maximum(0.0, 1.0 - np.minimum(total / 0.25, 1.0))[:, None]
        blended = (1.0 - anchor_pull) * blended + anchor_pull * anchors
        boxes = np.where(covered[:, None], blended, anchors)
        return self._noisy(boxes, rng_from_tokens("boxhead", frame_id, base_seed=self._seed))

    def _noisy(self, boxes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        x, y, w, h = boxes.T
        if self._noise_scale > 0:
            # One draw of (P, 4) is the same stream as P draws of 4.
            jitter = rng.normal(scale=self._noise_scale, size=boxes.shape)
            x = x + jitter[:, 0]
            y = y + jitter[:, 1]
            w = np.maximum(w * (1.0 + jitter[:, 2]), 1e-4)
            h = np.maximum(h * (1.0 + jitter[:, 3]), 1e-4)
        # Clip to the unit frame, as BoundingBox.clipped does.
        x1 = np.minimum(np.maximum(x, 0.0), 1.0)
        y1 = np.minimum(np.maximum(y, 0.0), 1.0)
        x2 = np.minimum(np.maximum(x + w, 0.0), 1.0)
        y2 = np.minimum(np.maximum(y + h, 0.0), 1.0)
        return np.stack(
            [x1, y1, np.maximum(x2 - x1, 0.0), np.maximum(y2 - y1, 0.0)], axis=1
        )
