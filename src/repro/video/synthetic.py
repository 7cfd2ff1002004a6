"""Procedural scene generator producing annotated synthetic videos.

The generator replaces the paper's real surveillance / dashcam / YouTube
footage.  A :class:`SceneSpec` describes the statistical composition of a
scene — which object archetypes appear, how often, how they move, and whether
the camera itself moves (Cityscapes and QVHighlights use moving cameras,
Bellevue and Beach are fixed).  :class:`SyntheticVideoGenerator` rolls that
specification forward in time with constant-velocity dynamics plus noise,
spawning and retiring objects, and emits fully annotated :class:`~repro.video.
model.Frame` objects.

Because every object carries its category, attributes, context and activity
tags, downstream components can (a) build ground truth for any query and
(b) simulate pretrained encoders whose embeddings reflect what is actually in
the frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import VideoError
from repro.utils.geometry import BoundingBox
from repro.utils.rng import rng_from_tokens
from repro.video.model import Frame, ObjectAnnotation, Video, make_frame_id


@dataclass(frozen=True)
class ObjectSpec:
    """Archetype of an object class that can appear in a scene.

    Attributes:
        category: Object class name (``"car"``, ``"person"``, ...).
        attributes: Fixed visual attributes of the archetype.
        context: Scene-context tags attached to every instance.
        activity: Activity tags attached to every instance.
        size: Nominal ``(width, height)`` of the bounding box in normalised
            frame coordinates.
        speed: Nominal speed in frame-widths per frame.
        spawn_weight: Relative probability of this archetype being chosen when
            a new object spawns.
        lane: Optional vertical position (``y`` centre) the object keeps, e.g.
            a road lane; when ``None`` the spawn position is uniform.
        paired: When true, instances spawn as side-by-side pairs (used for the
            "side by side with another car" query targets).
        max_age: Maximum number of frames an instance stays in the scene
            before it is retired (models scene cuts for slow-moving indoor
            objects); ``None`` means the object only leaves by moving
            off-screen.
        companion: Archetype of the paired companion object; when ``None`` the
            companion is a copy of this archetype (e.g. another car).
    """

    category: str
    attributes: Mapping[str, str] = field(default_factory=dict)
    context: Tuple[str, ...] = ()
    activity: Tuple[str, ...] = ()
    size: Tuple[float, float] = (0.12, 0.10)
    speed: float = 0.01
    spawn_weight: float = 1.0
    lane: Optional[float] = None
    paired: bool = False
    max_age: Optional[int] = None
    companion: Optional["ObjectSpec"] = None


@dataclass(frozen=True)
class SceneSpec:
    """Statistical description of a scene filmed by one camera.

    Attributes:
        name: Scene name, also used to seed the generator.
        object_specs: Archetypes that may appear.
        mean_objects: Target mean number of concurrently visible objects.
        camera: ``"fixed"`` or ``"moving"``.
        camera_speed: Magnitude of the camera drift per frame when moving.
        fps: Frame rate of the produced videos.
        background_color: RGB background colour used by the renderer.
        spawn_rate: Probability per frame of spawning a new object when the
            scene is below ``mean_objects``.
        default_max_age: Lifetime cap applied to archetypes that do not set
            their own ``max_age``; keeps slow scenes turning over so long
            videos contain many distinct object instances.
    """

    name: str
    object_specs: Tuple[ObjectSpec, ...]
    mean_objects: float = 4.0
    camera: str = "fixed"
    camera_speed: float = 0.004
    fps: float = 30.0
    background_color: Tuple[float, float, float] = (0.45, 0.45, 0.45)
    spawn_rate: float = 0.6
    default_max_age: int | None = None

    def __post_init__(self) -> None:
        if not self.object_specs:
            raise VideoError(f"SceneSpec {self.name!r} needs at least one ObjectSpec")
        if self.camera not in {"fixed", "moving"}:
            raise VideoError(f"camera must be 'fixed' or 'moving', got {self.camera!r}")


@dataclass
class _ActiveObject:
    """Internal mutable state of a live object while a video is generated."""

    object_id: str
    spec: ObjectSpec
    center: np.ndarray
    velocity: np.ndarray
    size: Tuple[float, float]
    age: int = 0

    def to_annotation(self, camera_offset: Tuple[float, float]) -> ObjectAnnotation:
        """Project the object into camera coordinates and annotate it."""
        cx = float(self.center[0] - camera_offset[0])
        cy = float(self.center[1] - camera_offset[1])
        box = BoundingBox.from_center(cx, cy, self.size[0], self.size[1])
        return ObjectAnnotation(
            object_id=self.object_id,
            category=self.spec.category,
            attributes=dict(self.spec.attributes),
            context=self.spec.context,
            activity=self.spec.activity,
            box=box,
        )


class SyntheticVideoGenerator:
    """Generates annotated videos from a :class:`SceneSpec`.

    The generator is deterministic given ``(scene.name, seed, video_id)``.
    """

    def __init__(self, scene: SceneSpec, seed: int = 0) -> None:
        self._scene = scene
        self._seed = seed
        self._current_camera_offset = np.zeros(2, dtype=np.float64)

    @property
    def scene(self) -> SceneSpec:
        """The scene specification driving this generator."""
        return self._scene

    def generate(self, video_id: str, num_frames: int) -> Video:
        """Generate one annotated video with ``num_frames`` frames."""
        if num_frames <= 0:
            raise VideoError("num_frames must be positive")
        rng = rng_from_tokens("video", self._scene.name, video_id, base_seed=self._seed)
        active: List[_ActiveObject] = []
        frames: List[Frame] = []
        camera_offset = np.zeros(2, dtype=np.float64)
        camera_velocity = self._initial_camera_velocity(rng)
        next_object_serial = 0

        for index in range(num_frames):
            self._current_camera_offset = camera_offset
            next_object_serial = self._maybe_spawn(rng, active, video_id, next_object_serial)
            self._step_objects(rng, active)
            if self._scene.camera == "moving":
                camera_velocity = self._update_camera_velocity(rng, camera_velocity)
                camera_offset = camera_offset + camera_velocity
            annotations = self._annotate(active, camera_offset)
            frames.append(
                Frame(
                    frame_id=make_frame_id(video_id, index),
                    video_id=video_id,
                    index=index,
                    timestamp=index / self._scene.fps,
                    objects=tuple(annotations),
                    camera_offset=(float(camera_offset[0]), float(camera_offset[1])),
                )
            )
            active = self._retire_offscreen(active, camera_offset)

        return Video(
            video_id=video_id,
            frames=frames,
            fps=self._scene.fps,
            camera=self._scene.camera,
            scene=self._scene.name,
        )

    def _initial_camera_velocity(self, rng: np.random.Generator) -> np.ndarray:
        if self._scene.camera != "moving":
            return np.zeros(2, dtype=np.float64)
        direction = rng.normal(size=2)
        direction /= max(np.linalg.norm(direction), 1e-9)
        return direction * self._scene.camera_speed

    def _update_camera_velocity(
        self, rng: np.random.Generator, velocity: np.ndarray
    ) -> np.ndarray:
        jitter = rng.normal(scale=self._scene.camera_speed * 0.2, size=2)
        updated = velocity + jitter
        norm = np.linalg.norm(updated)
        if norm > self._scene.camera_speed * 2.0:
            updated = updated / norm * self._scene.camera_speed * 2.0
        return updated

    def _maybe_spawn(
        self,
        rng: np.random.Generator,
        active: List[_ActiveObject],
        video_id: str,
        serial: int,
    ) -> int:
        """Spawn new objects while the scene is below its target density."""
        while len(active) < self._scene.mean_objects and rng.random() < self._scene.spawn_rate:
            spec = self._choose_spec(rng)
            spawned = self._spawn_object(rng, spec, video_id, serial)
            active.extend(spawned)
            serial += len(spawned)
        return serial

    def _choose_spec(self, rng: np.random.Generator) -> ObjectSpec:
        weights = np.array([spec.spawn_weight for spec in self._scene.object_specs])
        weights = weights / weights.sum()
        index = int(rng.choice(len(self._scene.object_specs), p=weights))
        return self._scene.object_specs[index]

    def _spawn_object(
        self,
        rng: np.random.Generator,
        spec: ObjectSpec,
        video_id: str,
        serial: int,
    ) -> List[_ActiveObject]:
        """Create one object (or a side-by-side pair for paired archetypes)."""
        # Spawn positions are expressed relative to the *current camera view*
        # so that a drifting camera keeps seeing new objects.
        camera_offset = self._current_camera_offset
        lane = spec.lane if spec.lane is not None else float(rng.uniform(0.2, 0.8))
        lane += float(camera_offset[1])
        moving_right = bool(rng.random() < 0.5)
        speed = spec.speed * float(rng.uniform(0.8, 1.2))
        if abs(spec.speed) < 0.003:
            # Slow or static objects (parked cars, seated people) appear inside
            # the visible frame — spawning them off-screen would mean they
            # never become visible before they are retired.
            start_x = float(rng.uniform(0.2, 0.8)) + float(camera_offset[0])
        else:
            start_x = -spec.size[0] if moving_right else 1.0 + spec.size[0]
            start_x += float(camera_offset[0])
        velocity = np.array([speed if moving_right else -speed, 0.0])
        size = (
            spec.size[0] * float(rng.uniform(0.9, 1.1)),
            spec.size[1] * float(rng.uniform(0.9, 1.1)),
        )
        primary = _ActiveObject(
            object_id=f"{video_id}/obj{serial:05d}",
            spec=spec,
            center=np.array([start_x, lane], dtype=np.float64),
            velocity=velocity,
            size=size,
        )
        spawned = [primary]
        if spec.paired:
            companion_spec = spec.companion or replace(spec, paired=False, companion=None)
            companion_spec = replace(companion_spec, paired=False, companion=None)
            companion_size = (
                companion_spec.size[0] * float(rng.uniform(0.9, 1.1)),
                companion_spec.size[1] * float(rng.uniform(0.9, 1.1)),
            )
            companion = _ActiveObject(
                object_id=f"{video_id}/obj{serial + 1:05d}",
                spec=companion_spec,
                center=primary.center + np.array([max(size[0], companion_size[0]) * 1.3, 0.0]),
                velocity=velocity.copy(),
                size=companion_size,
            )
            spawned.append(companion)
        return spawned

    def _step_objects(self, rng: np.random.Generator, active: List[_ActiveObject]) -> None:
        for obj in active:
            jitter = rng.normal(scale=abs(obj.spec.speed) * 0.1 + 1e-4, size=2)
            jitter[1] *= 0.3
            obj.center = obj.center + obj.velocity + jitter
            obj.age += 1

    def _annotate(
        self, active: List[_ActiveObject], camera_offset: np.ndarray
    ) -> List[ObjectAnnotation]:
        offset = (float(camera_offset[0]), float(camera_offset[1]))
        annotations = []
        for obj in active:
            annotation = obj.to_annotation(offset)
            if annotation.box.clipped().area > 1e-4:
                annotations.append(annotation)
        return annotations

    def _retire_offscreen(
        self, active: List[_ActiveObject], camera_offset: np.ndarray
    ) -> List[_ActiveObject]:
        """Drop objects that left the visible frame or exceeded their lifetime."""
        survivors = []
        for obj in active:
            max_age = obj.spec.max_age if obj.spec.max_age is not None else self._scene.default_max_age
            if max_age is not None and obj.age > max_age:
                continue
            cx = obj.center[0] - camera_offset[0]
            cy = obj.center[1] - camera_offset[1]
            if -0.5 <= cx <= 1.5 and -0.5 <= cy <= 1.5:
                survivors.append(obj)
        return survivors


def generate_videos(
    scene: SceneSpec,
    num_videos: int,
    frames_per_video: int,
    seed: int = 0,
    video_prefix: str | None = None,
) -> List[Video]:
    """Generate several videos of the same scene with independent streams.

    Video ids (and therefore frame and patch ids) include the seed when it is
    non-zero, so datasets generated with different seeds can be ingested into
    the same index without id collisions.
    """
    if video_prefix is not None:
        prefix = video_prefix
    elif seed == 0:
        prefix = scene.name
    else:
        prefix = f"{scene.name}-seed{seed}"
    generator = SyntheticVideoGenerator(scene, seed=seed)
    return [
        generator.generate(f"{prefix}-{index:03d}", frames_per_video)
        for index in range(num_videos)
    ]


COLOR_RGB: Dict[str, Tuple[float, float, float]] = {
    "red": (0.85, 0.15, 0.15),
    "black": (0.08, 0.08, 0.08),
    "white": (0.95, 0.95, 0.95),
    "green": (0.15, 0.65, 0.25),
    "yellow-green": (0.65, 0.80, 0.20),
    "blue": (0.15, 0.25, 0.80),
    "grey": (0.55, 0.55, 0.55),
    "silver": (0.75, 0.75, 0.78),
    "light": (0.85, 0.85, 0.80),
    "dark": (0.15, 0.15, 0.18),
    "brown": (0.45, 0.30, 0.15),
    "orange": (0.90, 0.55, 0.10),
}


def color_to_rgb(color_name: str) -> Tuple[float, float, float]:
    """Map a colour attribute to RGB for the renderer; grey when unknown."""
    return COLOR_RGB.get(color_name, (0.5, 0.5, 0.5))
