"""MVmed-style motion-vector key-frame extraction (paper §IV-A).

MVmed tracks objects in the compressed domain using codec motion vectors;
LOVO reuses the same signal to pick key frames: frames at which the aggregate
motion statistics change significantly indicate scene shifts or bursts of
activity and are ideal key-frame candidates.  The reproduction estimates the
motion field with block matching (see :mod:`repro.video.motion`) and marks a
key frame whenever the mean motion magnitude changes by more than
``motion_threshold`` relative to the running average, with a periodic
fallback so long static stretches are still represented.

A video is processed ``_CHUNK_FRAMES`` frames at a time: the chunk is
rendered into one reused luminance buffer whose row 0 carries the previous
chunk's last frame, block matching runs once over that stack, and the
running-average decision then walks the chunk's mean magnitudes in order.
Working memory is bounded by the chunk, not the video, and every magnitude
(hence every key frame) is the one a frame-by-frame pass computes.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.config import KEYFRAME_MIN_GAP, MOTION_THRESHOLD
from repro.keyframes.base import KeyframeExtractor
from repro.video.model import Frame, Video
from repro.video.motion import estimate_motion_run
from repro.video.renderer import FrameRenderer

# Frames rendered and block-matched per pass.  16 frames of 48x48 keep the
# buffers near 1.2 MB.
_CHUNK_FRAMES = 16


class MVMedKeyframeExtractor(KeyframeExtractor):
    """Selects key frames at motion-statistics change points."""

    def __init__(
        self,
        motion_threshold: float = MOTION_THRESHOLD,
        min_gap: int = KEYFRAME_MIN_GAP,
        fallback_stride: int = 15,
        renderer: FrameRenderer | None = None,
        block_size: int = 8,
        search_radius: int = 2,
    ) -> None:
        if motion_threshold <= 0:
            raise ValueError("motion_threshold must be positive")
        if fallback_stride <= 0:
            raise ValueError("fallback_stride must be positive")
        self._motion_threshold = motion_threshold
        self._min_gap = max(min_gap, 0)
        self._fallback_stride = fallback_stride
        self._renderer = renderer or FrameRenderer()
        self._block_size = block_size
        self._search_radius = search_radius

    def extract(self, video: Video) -> List[Frame]:
        frames = video.frames
        if not frames:
            return []
        keyframes: List[Frame] = [frames[0]]
        last_key_index = frames[0].index
        running_motion = 0.0
        observed = 0
        config = self._renderer.config
        luminance = np.empty((_CHUNK_FRAMES + 1, config.height, config.width))

        for start in range(0, len(frames), _CHUNK_FRAMES):
            chunk = frames[start:start + _CHUNK_FRAMES]
            self._renderer.render_luminance(chunk, luminance[1:])
            # Row 0 carries the previous chunk's last frame; the video's
            # first frame has no predecessor.
            run = luminance[:len(chunk) + 1] if start else luminance[1:len(chunk) + 1]
            field = estimate_motion_run(run, self._block_size, self._search_radius)
            magnitudes = field.pair_mean_magnitudes().tolist()
            luminance[0] = luminance[len(chunk)]

            for frame, magnitude in zip(chunk if start else chunk[1:], magnitudes):
                observed += 1
                if observed == 1:
                    running_motion = magnitude
                    continue

                change = abs(magnitude - running_motion) / max(running_motion, 1e-6)
                running_motion = 0.8 * running_motion + 0.2 * magnitude
                due_to_motion = change >= self._motion_threshold
                due_to_fallback = frame.index - last_key_index >= self._fallback_stride
                if (due_to_motion or due_to_fallback) and frame.index - last_key_index >= self._min_gap:
                    keyframes.append(frame)
                    last_key_index = frame.index
        return keyframes
