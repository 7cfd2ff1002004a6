"""Tests for the key-frame extraction strategies."""

from __future__ import annotations

import pytest

from repro.config import KeyframeConfig
from repro.keyframes import (
    AllFramesExtractor,
    MVMedKeyframeExtractor,
    UniformKeyframeExtractor,
    make_extractor,
)
from repro.video.datasets import make_bellevue


@pytest.fixture(scope="module")
def video():
    return make_bellevue(num_videos=1, frames_per_video=90).videos[0]


class TestUniform:
    def test_stride_selection(self, video):
        frames = UniformKeyframeExtractor(stride=10).extract(video)
        assert [frame.index for frame in frames] == list(range(0, 90, 10))

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            UniformKeyframeExtractor(stride=0)

    def test_all_frames(self, video):
        assert len(AllFramesExtractor().extract(video)) == video.num_frames


class TestMVMed:
    def test_returns_subset_in_order(self, video):
        frames = MVMedKeyframeExtractor(fallback_stride=15).extract(video)
        indices = [frame.index for frame in frames]
        assert indices == sorted(indices)
        assert indices[0] == 0
        assert len(frames) < video.num_frames

    def test_min_gap_respected(self, video):
        frames = MVMedKeyframeExtractor(min_gap=5, fallback_stride=15).extract(video)
        indices = [frame.index for frame in frames]
        gaps = [b - a for a, b in zip(indices, indices[1:])]
        assert all(gap >= 5 for gap in gaps)

    def test_fallback_prevents_starvation(self, video):
        frames = MVMedKeyframeExtractor(motion_threshold=100.0, fallback_stride=20).extract(video)
        indices = [frame.index for frame in frames]
        assert max(b - a for a, b in zip(indices, indices[1:])) <= 25

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MVMedKeyframeExtractor(motion_threshold=0.0)
        with pytest.raises(ValueError):
            MVMedKeyframeExtractor(fallback_stride=0)


class TestFactory:
    def test_factory_dispatch(self):
        assert isinstance(make_extractor(KeyframeConfig(strategy="uniform")), UniformKeyframeExtractor)
        assert isinstance(make_extractor(KeyframeConfig(strategy="mvmed")), MVMedKeyframeExtractor)
        assert isinstance(make_extractor(KeyframeConfig(strategy="all")), AllFramesExtractor)

    def test_extract_many_concatenates(self, video):
        extractor = UniformKeyframeExtractor(stride=30)
        frames = extractor.extract_many([video, video])
        assert len(frames) == 2 * len(extractor.extract(video))

    def test_name_property(self):
        assert "Uniform" in UniformKeyframeExtractor().name
