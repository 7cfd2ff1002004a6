"""Tests for the video data model (frames, videos, datasets)."""

from __future__ import annotations

import pytest

from repro.errors import VideoError
from repro.utils.geometry import BoundingBox
from repro.video.model import (
    Frame,
    ObjectAnnotation,
    Video,
    VideoDataset,
    concat_datasets,
    make_frame_id,
)


def build_frame(video_id: str, index: int, objects=()):
    return Frame(
        frame_id=make_frame_id(video_id, index),
        video_id=video_id,
        index=index,
        timestamp=index / 30.0,
        objects=tuple(objects),
    )


def build_video(video_id: str = "v0", num_frames: int = 5) -> Video:
    return Video(video_id=video_id, frames=[build_frame(video_id, i) for i in range(num_frames)])


class TestObjectAnnotation:
    def test_concept_tokens_include_all_facets(self):
        annotation = ObjectAnnotation(
            object_id="o1",
            category="car",
            attributes={"color": "red"},
            context=("road",),
            activity=("driving",),
            box=BoundingBox(0.1, 0.1, 0.2, 0.2),
        )
        tokens = annotation.concept_tokens()
        assert tokens == ["car", "red", "road", "driving"]

    def test_concept_tokens_order_attributes_by_key(self):
        # Insertion order must not matter: snapshots store attributes with
        # sorted keys, and the encoders sum token vectors in token order.
        first = ObjectAnnotation("o1", "person", {"color": "dark", "clothing": "jacket"})
        second = ObjectAnnotation("o1", "person", {"clothing": "jacket", "color": "dark"})
        assert first.concept_tokens() == second.concept_tokens() == [
            "person", "jacket", "dark",
        ]

    def test_describe_mentions_attributes_and_category(self):
        annotation = ObjectAnnotation(
            object_id="o1",
            category="bus",
            attributes={"color": "green"},
            context=("road",),
            activity=("driving",),
        )
        description = annotation.describe()
        assert "green" in description and "bus" in description


class TestFrame:
    def test_visible_objects_filters_degenerate_boxes(self):
        inside = ObjectAnnotation("a", "car", box=BoundingBox(0.1, 0.1, 0.2, 0.2))
        outside = ObjectAnnotation("b", "car", box=BoundingBox(1.5, 1.5, 0.2, 0.2))
        frame = build_frame("v0", 0, [inside, outside])
        visible = frame.visible_objects()
        assert [a.object_id for a in visible] == ["a"]

    def test_categories_deduplicated(self):
        frame = build_frame(
            "v0", 0,
            [
                ObjectAnnotation("a", "car", box=BoundingBox(0.1, 0.1, 0.2, 0.2)),
                ObjectAnnotation("b", "car", box=BoundingBox(0.4, 0.4, 0.2, 0.2)),
                ObjectAnnotation("c", "bus", box=BoundingBox(0.6, 0.6, 0.2, 0.2)),
            ],
        )
        assert frame.categories() == ["car", "bus"]


class TestVideo:
    def test_duration_and_count(self):
        video = build_video(num_frames=30)
        assert video.num_frames == 30
        assert video.duration_seconds == pytest.approx(1.0)

    def test_rejects_wrong_video_id(self):
        frame = build_frame("other", 0)
        with pytest.raises(VideoError):
            Video(video_id="v0", frames=[frame])

    def test_rejects_out_of_order_frames(self):
        frames = [build_frame("v0", 1), build_frame("v0", 0)]
        with pytest.raises(VideoError):
            Video(video_id="v0", frames=frames)

    def test_rejects_nonpositive_fps(self):
        with pytest.raises(VideoError):
            Video(video_id="v0", frames=[build_frame("v0", 0)], fps=0)

    def test_frame_pairs(self):
        video = build_video(num_frames=4)
        pairs = list(video.frame_pairs())
        assert len(pairs) == 3
        assert pairs[0][0].index == 0 and pairs[0][1].index == 1


class TestVideoDataset:
    def test_counts_and_iteration(self):
        dataset = VideoDataset(name="d", videos=[build_video("a", 3), build_video("b", 2)])
        assert dataset.num_videos == 2
        assert dataset.num_frames == 5
        assert len(dataset.all_frames()) == 5

    def test_frame_by_id(self):
        dataset = VideoDataset(name="d", videos=[build_video("a", 3)])
        frame = dataset.frame_by_id(make_frame_id("a", 2))
        assert frame.index == 2

    def test_frame_by_id_missing(self):
        dataset = VideoDataset(name="d", videos=[build_video("a", 3)])
        with pytest.raises(VideoError):
            dataset.frame_by_id("missing")

    def test_subset_truncates_frames(self):
        dataset = VideoDataset(name="d", videos=[build_video("a", 10), build_video("b", 10)])
        subset = dataset.subset(12)
        assert subset.num_frames == 12
        assert subset.num_videos == 2

    def test_subset_invalid(self):
        dataset = VideoDataset(name="d", videos=[build_video("a", 3)])
        with pytest.raises(VideoError):
            dataset.subset(0)

    def test_concat_datasets(self):
        combined = concat_datasets(
            "both",
            [
                VideoDataset(name="d1", videos=[build_video("a", 3)]),
                VideoDataset(name="d2", videos=[build_video("b", 4)]),
            ],
        )
        assert combined.num_frames == 7
        assert combined.name == "both"

    def test_categories(self):
        frame = build_frame("a", 0, [ObjectAnnotation("o", "dog", box=BoundingBox(0.1, 0.1, 0.2, 0.2))])
        video = Video(video_id="a", frames=[frame])
        dataset = VideoDataset(name="d", videos=[video])
        assert dataset.categories() == ["dog"]
