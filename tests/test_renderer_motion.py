"""Tests for the frame rasteriser and block-matching motion estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.geometry import BoundingBox
from repro.video.model import Frame, ObjectAnnotation
from repro.video.motion import MotionField, estimate_motion, estimate_motion_run
from repro.video.renderer import FrameRenderer, RenderConfig


def frame_with_car(index: int = 0, x: float = 0.3) -> Frame:
    annotation = ObjectAnnotation(
        object_id="car-1",
        category="car",
        attributes={"color": "red"},
        box=BoundingBox(x, 0.4, 0.25, 0.2),
    )
    return Frame(
        frame_id=f"v0/frame{index:06d}",
        video_id="v0",
        index=index,
        timestamp=index / 30.0,
        objects=(annotation,),
    )


class TestRenderer:
    def test_output_shape_and_range(self):
        renderer = FrameRenderer(config=RenderConfig(height=32, width=40))
        image = renderer.render(frame_with_car())
        assert image.shape == (32, 40, 3)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_object_changes_pixels(self):
        renderer = FrameRenderer(config=RenderConfig(noise_scale=0.0))
        empty = Frame(frame_id="v0/frame000000", video_id="v0", index=0, timestamp=0.0)
        with_car = frame_with_car()
        assert not np.allclose(renderer.render(empty), renderer.render(with_car))

    def test_red_car_is_reddish(self):
        renderer = FrameRenderer(config=RenderConfig(noise_scale=0.0))
        image = renderer.render(frame_with_car())
        height, width, _ = image.shape
        # Sample the centre of the car's box.
        y = int(0.5 * height)
        x = int(0.42 * width)
        assert image[y, x, 0] > image[y, x, 1]

    def test_roof_attribute_rendered(self):
        annotation = ObjectAnnotation(
            object_id="bus-1",
            category="bus",
            attributes={"color": "green", "roof": "white roof"},
            box=BoundingBox(0.2, 0.2, 0.4, 0.4),
        )
        frame = Frame(frame_id="v0/frame000000", video_id="v0", index=0, timestamp=0.0,
                      objects=(annotation,))
        image = FrameRenderer(config=RenderConfig(noise_scale=0.0)).render(frame)
        top_row = image[int(0.22 * image.shape[0]), int(0.4 * image.shape[1])]
        bottom_row = image[int(0.5 * image.shape[0]), int(0.4 * image.shape[1])]
        assert top_row.mean() > bottom_row.mean()

    def test_grayscale_shape(self):
        renderer = FrameRenderer()
        shape = (renderer.config.height, renderer.config.width)
        luminance = renderer.render_luminance((frame_with_car(),), np.empty((1, *shape)))
        assert luminance.shape == (1, *shape)

    def test_noise_is_deterministic_per_frame(self):
        renderer = FrameRenderer()
        first = renderer.render(frame_with_car())
        second = renderer.render(frame_with_car())
        np.testing.assert_allclose(first, second)


class TestMotionEstimation:
    def test_static_frames_give_zero_motion(self):
        image = np.random.default_rng(0).random((32, 32))
        field = estimate_motion_run(np.stack((image, image)), block_size=8, search_radius=2)
        assert field.pair_mean_magnitudes() == pytest.approx([0.0])

    def test_translation_recovered(self):
        rng = np.random.default_rng(1)
        previous = rng.random((40, 40))
        current = np.roll(previous, shift=2, axis=1)
        field = estimate_motion(previous, current, block_size=8, search_radius=3)
        # Interior blocks should report a dominant horizontal shift of ~2 px
        # (the sign follows the backward block-matching convention).
        assert abs(np.median(field.dx[1:-1, 1:-1])) == pytest.approx(2.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_motion(np.zeros((10, 10)), np.zeros((12, 12)))

    def test_empty_field_statistics(self):
        field = MotionField(dx=np.zeros((0, 0)), dy=np.zeros((0, 0)))
        assert field.pair_mean_magnitudes().shape == (0,)
        blockless = estimate_motion_run(np.zeros((2, 4, 4)), block_size=8)
        np.testing.assert_array_equal(blockless.pair_mean_magnitudes(), [0.0])

    def test_rendered_motion_detects_moving_object(self):
        renderer = FrameRenderer(config=RenderConfig(noise_scale=0.0))
        frames = (frame_with_car(index=0, x=0.30), frame_with_car(index=1, x=0.36))
        luminance = renderer.render_luminance(frames, np.empty((2, 48, 48)))
        field = estimate_motion_run(luminance, block_size=8, search_radius=3)
        assert field.pair_mean_magnitudes()[0] > 0.0
