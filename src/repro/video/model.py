"""Data model for videos, frames, and ground-truth object annotations.

The real datasets used by the paper (Cityscapes, Bellevue Traffic,
QVHighlights, Beach, ActivityNet-QA) are not available offline, so the
reproduction works over synthetic videos that carry the same structure: a
dataset is a set of videos, a video is a sequence of frames, and every frame
is annotated with the objects it contains (category, visual attributes,
context and activity tags, bounding box).  These annotations play the role of
the ByteTrack-assisted manual labelling the paper uses for ground truth, and
they also parameterise the simulated encoders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.errors import VideoError
from repro.utils.geometry import BoundingBox


@dataclass(frozen=True)
class ObjectAnnotation:
    """A single ground-truth object instance inside one frame.

    Attributes:
        object_id: Identity of the object across frames (track id).
        category: Object class, e.g. ``"car"``, ``"person"``, ``"bus"``.
        attributes: Visual attributes such as ``{"color": "red",
            "size": "large"}``.
        context: Scene-context tags such as ``("road", "intersection")``.
        activity: Activity tags such as ``("driving",)`` or ``("walking",)``.
        box: Bounding box in normalised frame coordinates.
    """

    object_id: str
    category: str
    attributes: Mapping[str, str] = field(default_factory=dict)
    context: Tuple[str, ...] = ()
    activity: Tuple[str, ...] = ()
    box: BoundingBox = field(default_factory=lambda: BoundingBox(0.0, 0.0, 0.0, 0.0))

    def concept_tokens(self) -> List[str]:
        """All semantic tokens describing the object.

        The simulated encoders mix the concept vectors of these tokens into
        the visual embedding of any patch the object overlaps.  Attribute
        values come in attribute-key order, not dict insertion order: the
        mixture is a floating-point sum, and snapshots store attributes with
        sorted keys, so this keeps a loaded system's encodings bit-identical
        to the live system's.
        """
        tokens: List[str] = [self.category]
        tokens.extend(self.attributes[key] for key in sorted(self.attributes))
        tokens.extend(self.context)
        tokens.extend(self.activity)
        return tokens

    def describe(self) -> str:
        """A compact human-readable description for logs and examples."""
        attrs = " ".join(self.attributes.values())
        parts = [part for part in (attrs, self.category) if part]
        if self.activity:
            parts.append(" ".join(self.activity))
        if self.context:
            parts.append("on " + " ".join(self.context))
        return " ".join(parts)


@dataclass(frozen=True)
class Frame:
    """A single annotated video frame."""

    frame_id: str
    video_id: str
    index: int
    timestamp: float
    objects: Tuple[ObjectAnnotation, ...] = ()
    camera_offset: Tuple[float, float] = (0.0, 0.0)

    def visible_objects(self, min_area: float = 1e-4) -> List[ObjectAnnotation]:
        """Objects whose clipped box retains at least ``min_area`` area."""
        visible = []
        for annotation in self.objects:
            clipped = annotation.box.clipped()
            if clipped.area >= min_area:
                visible.append(annotation)
        return visible

    def categories(self) -> List[str]:
        """Distinct categories present in the frame."""
        seen: Dict[str, None] = {}
        for annotation in self.objects:
            seen.setdefault(annotation.category, None)
        return list(seen)


@dataclass
class Video:
    """A sequence of frames from one camera."""

    video_id: str
    frames: List[Frame]
    fps: float = 30.0
    camera: str = "fixed"
    scene: str = "generic"

    def __post_init__(self) -> None:
        if self.fps <= 0:
            raise VideoError(f"fps must be positive, got {self.fps}")
        for position, frame in enumerate(self.frames):
            if frame.video_id != self.video_id:
                raise VideoError(
                    f"Frame {frame.frame_id} belongs to video {frame.video_id!r}, "
                    f"not {self.video_id!r}"
                )
            if frame.index != position:
                raise VideoError(
                    f"Frame at position {position} has index {frame.index}; frames must be ordered"
                )

    @property
    def num_frames(self) -> int:
        """Number of frames in the video."""
        return len(self.frames)

    @property
    def duration_seconds(self) -> float:
        """Duration implied by the frame count and frame rate."""
        return self.num_frames / self.fps

    def frame_pairs(self) -> Iterator[Tuple[Frame, Frame]]:
        """Iterate over consecutive ``(previous, current)`` frame pairs."""
        yield from zip(self.frames, self.frames[1:])


@dataclass
class VideoDataset:
    """A named collection of videos plus dataset-level metadata."""

    name: str
    videos: List[Video]
    description: str = ""
    background_color: Tuple[float, float, float] = (0.45, 0.45, 0.45)

    @property
    def num_videos(self) -> int:
        """Number of videos in the dataset."""
        return len(self.videos)

    @property
    def num_frames(self) -> int:
        """Total number of frames across all videos."""
        return sum(video.num_frames for video in self.videos)

    @property
    def duration_seconds(self) -> float:
        """Total duration across all videos."""
        return sum(video.duration_seconds for video in self.videos)

    def iter_frames(self) -> Iterator[Frame]:
        """Iterate over every frame of every video, in order."""
        for video in self.videos:
            yield from video.frames

    def all_frames(self) -> List[Frame]:
        """All frames materialised as a list."""
        return list(self.iter_frames())

    def frame_by_id(self, frame_id: str) -> Frame:
        """Look up a frame by its id; raises :class:`VideoError` if missing."""
        for frame in self.iter_frames():
            if frame.frame_id == frame_id:
                return frame
        raise VideoError(f"Frame {frame_id!r} not found in dataset {self.name!r}")

    def categories(self) -> List[str]:
        """Distinct object categories appearing anywhere in the dataset."""
        seen: Dict[str, None] = {}
        for frame in self.iter_frames():
            for annotation in frame.objects:
                seen.setdefault(annotation.category, None)
        return list(seen)

    def subset(self, max_frames: int) -> "VideoDataset":
        """A new dataset truncated to at most ``max_frames`` frames.

        Used by the scalability benchmarks (Fig. 10) to sweep dataset size.
        """
        if max_frames <= 0:
            raise VideoError("max_frames must be positive")
        remaining = max_frames
        truncated_videos: List[Video] = []
        for video in self.videos:
            if remaining <= 0:
                break
            frames = video.frames[:remaining]
            truncated_videos.append(
                Video(
                    video_id=video.video_id,
                    frames=frames,
                    fps=video.fps,
                    camera=video.camera,
                    scene=video.scene,
                )
            )
            remaining -= len(frames)
        return VideoDataset(
            name=f"{self.name}[:{max_frames}]",
            videos=truncated_videos,
            description=self.description,
            background_color=self.background_color,
        )


def make_frame_id(video_id: str, index: int) -> str:
    """Canonical frame-id format shared by generators and the metadata store."""
    return f"{video_id}/frame{index:06d}"


def concat_datasets(name: str, datasets: Sequence[VideoDataset]) -> VideoDataset:
    """Concatenate several datasets into one (used by scalability sweeps)."""
    videos: List[Video] = []
    for dataset in datasets:
        videos.extend(dataset.videos)
    background = datasets[0].background_color if datasets else (0.45, 0.45, 0.45)
    return VideoDataset(name=name, videos=videos, background_color=background)
