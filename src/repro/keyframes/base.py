"""Key-frame extractor interface and factory.

LOVO's design is orthogonal in its key-frame extraction algorithm (§IV-A):
any strategy that maps a video to a subset of its frames can be plugged in.
The paper's default combines a temporal strategy with a motion-vector-based
one (MVmed); the w/o-key-frame ablation keeps every frame.
"""

from __future__ import annotations

import abc
from typing import List

from repro.config import KeyframeConfig
from repro.video.model import Frame, Video


class KeyframeExtractor(abc.ABC):
    """Strategy interface: select a subset of a video's frames."""

    @abc.abstractmethod
    def extract(self, video: Video) -> List[Frame]:
        """Return the key frames of ``video`` in temporal order."""

    def extract_many(self, videos: List[Video]) -> List[Frame]:
        """Extract key frames from several videos and concatenate them."""
        frames: List[Frame] = []
        for video in videos:
            frames.extend(self.extract(video))
        return frames

    @property
    def name(self) -> str:
        """Short strategy name used in reports."""
        return type(self).__name__


def make_extractor(config: KeyframeConfig) -> KeyframeExtractor:
    """Build the extractor described by ``config``.

    The import is local to avoid a circular dependency between the concrete
    strategies and this factory.
    """
    from repro.keyframes.mvmed import MVMedKeyframeExtractor
    from repro.keyframes.uniform import AllFramesExtractor, UniformKeyframeExtractor

    if config.strategy == "uniform":
        return UniformKeyframeExtractor(stride=config.uniform_stride)
    if config.strategy == "mvmed":
        return MVMedKeyframeExtractor(fallback_stride=config.uniform_stride)
    return AllFramesExtractor()
