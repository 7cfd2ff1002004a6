"""Tests for the simulated detection model zoo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.detectors import (
    MSCOCO_CLASSES,
    DetectionModel,
    burn_model_compute,
    model_zoo,
)
from repro.encoders.concepts import ConceptSpace
from repro.utils.geometry import BoundingBox, iou
from repro.video.model import Frame, ObjectAnnotation


@pytest.fixture(scope="module")
def space():
    return ConceptSpace(dim=64, seed=7)


def frame_with(objects, frame_id="v0/frame000000") -> Frame:
    return Frame(frame_id=frame_id, video_id="v0", index=0, timestamp=0.0, objects=tuple(objects))


def annotation(category, color="red", object_id="o1", box=None) -> ObjectAnnotation:
    return ObjectAnnotation(
        object_id=object_id, category=category, attributes={"color": color},
        context=("road",), activity=("driving",),
        box=box or BoundingBox(0.3, 0.3, 0.2, 0.2),
    )


class TestDetectionModel:
    def test_detects_known_classes(self, space):
        model = DetectionModel(name="test", miss_rate=0.0, localization_noise=0.0)
        detections = model.detect(frame_with([annotation("car")]), space)
        assert len(detections) == 1
        assert detections[0].category == "car"
        assert iou(detections[0].box, annotation("car").box) > 0.95

    def test_ignores_unknown_classes(self, space):
        model = DetectionModel(name="test", miss_rate=0.0)
        detections = model.detect(frame_with([annotation("cart", object_id="cart-1")]), space)
        # "cart" falls back to "car" (nearest predefined class).
        assert detections and detections[0].category == "car"
        none_class = ObjectAnnotation("x", "statue", box=BoundingBox(0.1, 0.1, 0.2, 0.2))
        assert model.detect(frame_with([none_class]), space) == []

    def test_woman_maps_to_person(self, space):
        model = DetectionModel(name="test", miss_rate=0.0)
        detections = model.detect(frame_with([annotation("woman", object_id="w1")]), space)
        assert detections[0].category == "person"

    def test_miss_rate_drops_detections(self, space):
        always_miss = DetectionModel(name="blind", miss_rate=1.0)
        assert always_miss.detect(frame_with([annotation("car")]), space) == []

    def test_domain_bias_increases_misses(self, space):
        biased = DetectionModel(name="biased", miss_rate=0.0, domain_bias={"car": 1.0})
        assert biased.detect(frame_with([annotation("car")]), space) == []
        unbiased_class = annotation("person", object_id="p1")
        assert biased.detect(frame_with([unbiased_class]), space)

    def test_appearance_is_unit_norm_and_semantic(self, space):
        model = DetectionModel(name="test", miss_rate=0.0)
        detection = model.detect(frame_with([annotation("car", color="red")]), space)[0]
        assert np.linalg.norm(detection.appearance) == pytest.approx(1.0)
        red_query = space.encode(["red", "car"])
        dog_query = space.encode(["white", "dog"])
        assert float(detection.appearance @ red_query) > float(detection.appearance @ dog_query)

    def test_detection_deterministic_per_frame(self, space):
        model = DetectionModel(name="test", miss_rate=0.3)
        first = model.detect(frame_with([annotation("car")]), space)
        second = model.detect(frame_with([annotation("car")]), space)
        assert len(first) == len(second)

    def test_supports_class(self):
        model = DetectionModel(name="test")
        assert model.supports_class("car")
        assert not model.supports_class("woman")


class TestZooAndHelpers:
    def test_model_zoo_profiles(self):
        zoo = model_zoo()
        assert set(zoo) == {"tiny", "base", "large"}
        assert zoo["tiny"].miss_rate > zoo["large"].miss_rate
        assert zoo["tiny"].compute_units < zoo["large"].compute_units

    def test_mscoco_classes_closed_set(self):
        assert "car" in MSCOCO_CLASSES
        assert "woman" not in MSCOCO_CLASSES

    def test_burn_model_compute_accepts_zero(self):
        burn_model_compute(0)
        burn_model_compute(16, repeats=2)
