"""Key-frame extraction strategies (paper §IV-A)."""

from repro.keyframes.base import KeyframeExtractor, make_extractor
from repro.keyframes.mvmed import MVMedKeyframeExtractor
from repro.keyframes.uniform import AllFramesExtractor, UniformKeyframeExtractor

__all__ = [
    "KeyframeExtractor",
    "make_extractor",
    "UniformKeyframeExtractor",
    "AllFramesExtractor",
    "MVMedKeyframeExtractor",
]
