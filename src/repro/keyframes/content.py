"""Content-difference key-frame extraction.

The content-based strategy of §IV-A targets frames whose appearance differs
notably from the previously selected key frame.  The implementation renders
each frame to a low-resolution luminance image and keeps a frame whenever the
mean absolute pixel difference against the last key frame exceeds a threshold.
Frames are rendered through :meth:`FrameRenderer.render_grayscale`, the
one-frame case of the render path MVmed uses, and only when the minimum gap
lets them be selected.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.config import CONTENT_THRESHOLD, KEYFRAME_MIN_GAP
from repro.keyframes.base import KeyframeExtractor
from repro.video.model import Frame, Video
from repro.video.renderer import FrameRenderer


class ContentDiffKeyframeExtractor(KeyframeExtractor):
    """Keeps frames whose rendered content drifts past a threshold."""

    def __init__(
        self,
        threshold: float = CONTENT_THRESHOLD,
        min_gap: int = KEYFRAME_MIN_GAP,
        renderer: FrameRenderer | None = None,
    ) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self._threshold = threshold
        self._min_gap = max(min_gap, 0)
        self._renderer = renderer or FrameRenderer()

    def extract(self, video: Video) -> List[Frame]:
        if not video.frames:
            return []
        keyframes: List[Frame] = [video.frames[0]]
        reference = self._renderer.render_grayscale(video.frames[0])
        last_index = video.frames[0].index
        for frame in video.frames[1:]:
            if frame.index - last_index < self._min_gap:
                continue
            luminance = self._renderer.render_grayscale(frame)
            difference = float(np.abs(luminance - reference).mean())
            if difference >= self._threshold:
                keyframes.append(frame)
                reference = luminance
                last_index = frame.index
        return keyframes
