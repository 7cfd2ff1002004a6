"""Oracle tests: the whole-frame patch encoder and box head are bit-identical
to the per-patch reference loops they replaced.

The reference functions below are verbatim copies of the per-patch
``VisionEncoder.encode_frame`` and ``SimulatedBoxHead.predict`` loops.  They
use only public encoder API (plus the box head's noise settings, passed in
explicitly), so the vectorised implementation is free to change its
internals while these tests hold it to the exact floating-point results of
the loops: every comparison is ``np.array_equal`` or ``==``, never a
tolerance.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import BACKGROUND_WEIGHT, ENCODER_NOISE_SCALE, EncoderConfig, KeyframeConfig
from repro.encoders.concepts import ConceptSpace
from repro.encoders.localization import SimulatedBoxHead
from repro.encoders.vision import PatchEncoding, VisionEncoder
from repro.keyframes.base import make_extractor
from repro.utils.geometry import BoundingBox
from repro.utils.rng import rng_from_tokens
from repro.video.datasets import make_bellevue, make_cityscapes
from repro.video.model import Frame, ObjectAnnotation


# --------------------------------------------------------------------------
# Reference: the per-patch loops, verbatim.
# --------------------------------------------------------------------------


def reference_noisy(box: BoundingBox, rng, noise_scale: float) -> BoundingBox:
    if noise_scale <= 0:
        return box.clipped()
    jitter = rng.normal(scale=noise_scale, size=4)
    perturbed = BoundingBox(
        box.x + jitter[0],
        box.y + jitter[1],
        max(box.w * (1.0 + jitter[2]), 1e-4),
        max(box.h * (1.0 + jitter[3]), 1e-4),
    )
    return perturbed.clipped()


def reference_predict(
    noise_scale: float,
    seed: int,
    frame_id: str,
    anchors: Sequence[BoundingBox],
    object_boxes: Sequence[BoundingBox],
    overlaps: np.ndarray,
) -> List[BoundingBox]:
    rng = rng_from_tokens("boxhead", frame_id, base_seed=seed)
    predictions: List[BoundingBox] = []
    num_objects = len(object_boxes)
    for patch_index, anchor in enumerate(anchors):
        if num_objects == 0:
            predictions.append(reference_noisy(anchor, rng, noise_scale))
            continue
        weights = overlaps[patch_index]
        total = float(weights.sum())
        if total <= 1e-6:
            predictions.append(reference_noisy(anchor, rng, noise_scale))
            continue
        blended = np.zeros(4, dtype=np.float64)
        for object_index, box in enumerate(object_boxes):
            blended += weights[object_index] * box.to_array()
        blended /= total
        anchor_pull = max(0.0, 1.0 - min(total / 0.25, 1.0))
        blended = (1.0 - anchor_pull) * blended + anchor_pull * anchor.to_array()
        predictions.append(reference_noisy(BoundingBox.from_array(blended), rng, noise_scale))
    return predictions


def reference_overlaps(
    anchors: Sequence[BoundingBox], objects: Sequence[ObjectAnnotation]
) -> np.ndarray:
    num_patches = len(anchors)
    num_objects = len(objects)
    if num_objects == 0:
        return np.zeros((num_patches, 0), dtype=np.float64)
    anchor_array = np.array([anchor.to_array() for anchor in anchors])
    object_array = np.array([obj.box.to_array() for obj in objects])
    ax1 = anchor_array[:, None, 0]
    ay1 = anchor_array[:, None, 1]
    ax2 = ax1 + anchor_array[:, None, 2]
    ay2 = ay1 + anchor_array[:, None, 3]
    ox1 = object_array[None, :, 0]
    oy1 = object_array[None, :, 1]
    ox2 = ox1 + object_array[None, :, 2]
    oy2 = oy1 + object_array[None, :, 3]
    inter_w = np.clip(np.minimum(ax2, ox2) - np.maximum(ax1, ox1), 0.0, None)
    inter_h = np.clip(np.minimum(ay2, oy2) - np.maximum(ay1, oy1), 0.0, None)
    patch_area = anchor_array[:, None, 2] * anchor_array[:, None, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        overlaps = np.where(patch_area > 0, inter_w * inter_h / patch_area, 0.0)
    return overlaps


def reference_encode_frame(
    encoder: VisionEncoder,
    space: ConceptSpace,
    head_noise: float,
    head_seed: int,
    frame: Frame,
    scene: str = "generic",
) -> List[PatchEncoding]:
    config = encoder.config
    projection = space.projection_matrix(config.class_embedding_dim)
    anchors = encoder.grid.anchors()
    objects = frame.visible_objects()
    overlaps = reference_overlaps(anchors, objects)
    if objects:
        object_embeddings = np.stack([encoder.object_embedding(o) for o in objects])
    else:
        object_embeddings = np.zeros((0, config.embedding_dim), dtype=np.float64)
    background = space.vector(f"background:{scene}")
    rng = rng_from_tokens("vision", frame.frame_id, base_seed=config.seed)
    noise_directions = rng.normal(size=(len(anchors), config.embedding_dim))
    noise_directions /= np.linalg.norm(noise_directions, axis=1, keepdims=True)
    boxes = reference_predict(
        head_noise, head_seed, frame.frame_id, anchors, [o.box for o in objects], overlaps
    )

    encodings: List[PatchEncoding] = []
    for patch_index, _anchor in enumerate(anchors):
        mixture = BACKGROUND_WEIGHT * background
        if objects:
            weights = overlaps[patch_index]
            if weights.sum() > 0:
                mixture = mixture + weights @ object_embeddings
        signal_norm = np.linalg.norm(mixture)
        mixture = mixture + (
            ENCODER_NOISE_SCALE * signal_norm * noise_directions[patch_index]
        )
        norm = np.linalg.norm(mixture)
        if norm > 0:
            mixture = mixture / norm
        class_embedding = projection @ mixture
        class_norm = np.linalg.norm(class_embedding)
        if class_norm > 0:
            class_embedding = class_embedding / class_norm
        objectness = float(overlaps[patch_index].sum()) if objects else 0.0
        encodings.append(
            PatchEncoding(
                patch_id=f"{frame.frame_id}/patch{patch_index:03d}",
                frame_id=frame.frame_id,
                video_id=frame.video_id,
                patch_index=patch_index,
                embedding=mixture,
                class_embedding=class_embedding,
                box=boxes[patch_index],
                objectness=min(objectness, 1.0),
            )
        )
    return encodings


# --------------------------------------------------------------------------
# Comparison helpers
# --------------------------------------------------------------------------


def box_tuple(box: BoundingBox) -> Tuple[float, float, float, float]:
    return (box.x, box.y, box.w, box.h)


def assert_bit_identical(actual: List[PatchEncoding], expected: List[PatchEncoding]) -> None:
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.patch_id == want.patch_id
        assert got.frame_id == want.frame_id
        assert got.video_id == want.video_id
        assert got.patch_index == want.patch_index
        assert got.embedding.shape == want.embedding.shape
        assert np.array_equal(got.embedding, want.embedding), got.patch_id
        assert got.class_embedding.shape == want.class_embedding.shape
        assert np.array_equal(got.class_embedding, want.class_embedding), got.patch_id
        assert box_tuple(got.box) == box_tuple(want.box), got.patch_id
        assert got.objectness == want.objectness, got.patch_id


def check_encoder(
    encoder: VisionEncoder,
    space: ConceptSpace,
    frames: Sequence[Frame],
    scene: str = "generic",
    head_noise: float = 0.01,
    head_seed: int | None = None,
) -> None:
    seed = encoder.config.seed if head_seed is None else head_seed
    for frame in frames:
        assert_bit_identical(
            encoder.encode_frame(frame, scene=scene),
            reference_encode_frame(encoder, space, head_noise, seed, frame, scene),
        )


# --------------------------------------------------------------------------
# Real corpus: every key frame of a Bellevue + Cityscapes corpus
# --------------------------------------------------------------------------

DEFAULT = EncoderConfig()
SMALL = EncoderConfig(embedding_dim=48, class_embedding_dim=20, patch_grid=5, seed=11)


@pytest.fixture(scope="module")
def default_space() -> ConceptSpace:
    return ConceptSpace(dim=DEFAULT.embedding_dim, seed=DEFAULT.seed)


@pytest.fixture(scope="module")
def corpus_keyframes():
    extractor = make_extractor(KeyframeConfig())
    keyframes: List[Tuple[Frame, str]] = []
    for dataset in (make_bellevue(2, 150), make_cityscapes(2, 150)):
        for video in dataset.videos:
            keyframes.extend((frame, video.scene) for frame in extractor.extract(video))
    return keyframes


def test_corpus_keyframes_bit_identical(default_space, corpus_keyframes):
    encoder = VisionEncoder(default_space, DEFAULT)
    assert len(corpus_keyframes) > 20
    assert any(frame.visible_objects() for frame, _ in corpus_keyframes)
    for frame, scene in corpus_keyframes:
        check_encoder(encoder, default_space, [frame], scene=scene)


def test_corpus_keyframes_noise_free_box_head(default_space, corpus_keyframes):
    encoder = VisionEncoder(default_space, DEFAULT, box_head=SimulatedBoxHead(noise_scale=0.0))
    for frame, scene in corpus_keyframes[::3]:
        check_encoder(encoder, default_space, [frame], scene=scene, head_noise=0.0, head_seed=7)


def test_encode_frames_matches_per_frame_reference(default_space, corpus_keyframes):
    encoder = VisionEncoder(default_space, DEFAULT)
    frames = [frame for frame, _ in corpus_keyframes[:6]]
    expected: List[PatchEncoding] = []
    for frame in frames:
        expected.extend(reference_encode_frame(encoder, default_space, 0.01, DEFAULT.seed, frame))
    assert_bit_identical(encoder.encode_frames(frames), expected)


# --------------------------------------------------------------------------
# Generated frames: 0, 1 and many objects; edge-touching and overlapping boxes
# --------------------------------------------------------------------------

CATEGORIES = ("car", "bus", "person", "dog", "bicycle", "truck")
COLOURS = ("red", "white", "black", "grey", "blue")
# Coordinates snapped to a grid of 1/16 so boxes often share edges with patch
# anchors and with each other; exact 0.0 and 1.0 make frame-edge boxes.
COORD = st.one_of(
    st.sampled_from([-0.1, 0.0, 0.125, 0.25, 0.5, 0.75, 0.875, 1.0]),
    st.integers(min_value=-2, max_value=16).map(lambda k: k / 16.0),
    st.floats(min_value=-0.2, max_value=1.0, allow_nan=False),
)
SIZE = st.one_of(
    st.sampled_from([0.0, 1e-3, 0.0625, 0.125, 0.25, 0.5, 1.0, 1.2]),
    st.floats(min_value=0.0, max_value=1.2, allow_nan=False),
)


@st.composite
def annotations(draw, index: int) -> ObjectAnnotation:
    attributes = {"color": draw(st.sampled_from(COLOURS))}
    if draw(st.booleans()):
        attributes = {"size": draw(st.sampled_from(("large", "small"))), **attributes}
    return ObjectAnnotation(
        object_id=f"o{index}",
        category=draw(st.sampled_from(CATEGORIES)),
        attributes=attributes,
        context=draw(st.sampled_from([(), ("road",), ("street", "sidewalk")])),
        activity=draw(st.sampled_from([(), ("driving",), ("walking",)])),
        box=BoundingBox(draw(COORD), draw(COORD), draw(SIZE), draw(SIZE)),
    )


@st.composite
def frames(draw, max_objects: int = 12) -> Frame:
    count = draw(st.one_of(st.just(0), st.just(1), st.integers(0, max_objects)))
    objects = [draw(annotations(index)) for index in range(count)]
    if count and draw(st.booleans()):
        # A stacked duplicate: two objects with the same box overlap fully.
        objects.append(
            ObjectAnnotation(object_id="dup", category="car", box=objects[0].box)
        )
    name = draw(st.integers(0, 10_000))
    return Frame(frame_id=f"gen/frame{name:06d}", video_id="gen", index=name,
                 timestamp=float(name), objects=tuple(objects))


@pytest.fixture(scope="module")
def small_space() -> ConceptSpace:
    return ConceptSpace(dim=SMALL.embedding_dim, seed=SMALL.seed)


HYPOTHESIS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@HYPOTHESIS
@given(frame=frames())
def test_generated_frames_default_config(default_space, frame):
    encoder = VisionEncoder(default_space, DEFAULT)
    check_encoder(encoder, default_space, [frame], scene="intersection")


@HYPOTHESIS
@given(frame=frames())
def test_generated_frames_non_default_grid_and_dims(small_space, frame):
    encoder = VisionEncoder(small_space, SMALL)
    check_encoder(encoder, small_space, [frame], scene="street")


@HYPOTHESIS
@given(frame=frames(), noise=st.sampled_from([0.0, -1.0, 0.05]))
def test_generated_frames_custom_box_head(small_space, frame, noise):
    head = SimulatedBoxHead(noise_scale=noise, seed=3)
    encoder = VisionEncoder(small_space, SMALL, box_head=head)
    check_encoder(encoder, small_space, [frame], head_noise=noise, head_seed=3)


@pytest.mark.parametrize("grid", [1, 3, 8])
def test_fixed_frames_each_grid(grid):
    config = EncoderConfig(embedding_dim=32, class_embedding_dim=32, patch_grid=grid)
    space = ConceptSpace(dim=32, seed=config.seed)
    encoder = VisionEncoder(space, config)
    car = ObjectAnnotation("c", "car", {"color": "red"}, ("road",), ("driving",),
                           BoundingBox(0.0, 0.0, 0.5, 0.5))
    bus = ObjectAnnotation("b", "bus", {"color": "white"}, (), (),
                           BoundingBox(0.25, 0.25, 0.75, 0.75))
    edge = ObjectAnnotation("e", "person", {}, (), ("walking",),
                            BoundingBox(0.9, 0.9, 0.3, 0.3))
    cases = [(), (car,), (car, bus), (car, bus, edge), (edge,) * 5]
    frames_ = [
        Frame(frame_id=f"fixed/{grid}/{k}", video_id="fixed", index=k, timestamp=0.0,
              objects=objects)
        for k, objects in enumerate(cases)
    ]
    check_encoder(encoder, space, frames_)


# --------------------------------------------------------------------------
# The box head on its own, with arbitrary overlap matrices
# --------------------------------------------------------------------------

WEIGHT = st.one_of(
    st.sampled_from([0.0, 1e-7, 1e-6, 0.1, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    num_patches=st.integers(1, 12),
    num_objects=st.integers(0, 6),
    noise=st.sampled_from([0.0, 0.01, 0.2]),
)
def test_box_head_predict_matches_reference(data, num_patches, num_objects, noise):
    anchors = [
        BoundingBox(data.draw(COORD), data.draw(COORD), data.draw(SIZE), data.draw(SIZE))
        for _ in range(num_patches)
    ]
    boxes = [
        BoundingBox(data.draw(COORD), data.draw(COORD), data.draw(SIZE), data.draw(SIZE))
        for _ in range(num_objects)
    ]
    overlaps = np.array(
        [[data.draw(WEIGHT) for _ in range(num_objects)] for _ in range(num_patches)],
        dtype=np.float64,
    ).reshape(num_patches, num_objects)
    head = SimulatedBoxHead(noise_scale=noise, seed=5)
    got = head.predict("f", anchors, boxes, overlaps)
    want = reference_predict(noise, 5, "f", anchors, boxes, overlaps)
    assert [box_tuple(box) for box in got] == [box_tuple(box) for box in want]
