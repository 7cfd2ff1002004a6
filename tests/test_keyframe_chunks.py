"""Chunked key-frame extraction is bit-identical to the per-frame code it replaced.

MVmed renders and block-matches ``_CHUNK_FRAMES`` frames per pass.  The
per-frame ``render``, luminance and ``estimate_motion`` bodies it replaced
are kept below as oracles: every luminance bit, block cost, motion
magnitude and key-frame id of the chunked path must equal theirs.  A golden
digest of the key frames over the benchmark-shaped corpus pins the whole
strategy, and a ``tracemalloc`` bound pins that the working memory follows the
chunk, not the video.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from repro.config import KEYFRAME_MIN_GAP, MOTION_THRESHOLD, KeyframeConfig
from repro.keyframes import MVMedKeyframeExtractor, make_extractor
from repro.keyframes import mvmed
from repro.keyframes.mvmed import _CHUNK_FRAMES
from repro.utils.geometry import BoundingBox
from repro.utils.rng import rng_from_tokens
from repro.video import make_bellevue, make_cityscapes
from repro.video.model import Frame, ObjectAnnotation, Video
from repro.video.motion import (
    _block_sums,
    estimate_motion,
    estimate_motion_run,
)
from repro.video.renderer import FrameRenderer, RenderConfig
from repro.video.synthetic import color_to_rgb

BACKGROUND = (0.45, 0.45, 0.45)


# --------------------------------------------------------------------------
# Oracles: the per-frame bodies, as they were before the chunked path.
# --------------------------------------------------------------------------


def oracle_render(config: RenderConfig, frame: Frame) -> np.ndarray:
    height, width = config.height, config.width
    image = np.tile(np.array(BACKGROUND, dtype=np.float64), (height, width, 1))
    for annotation in frame.objects:
        box = annotation.box.clipped()
        if box.area <= 0.0:
            continue
        color = np.array(color_to_rgb(annotation.attributes.get("color", "grey")))
        y1 = int(np.floor(box.y * height))
        y2 = int(np.ceil(box.y2 * height))
        x1 = int(np.floor(box.x * width))
        x2 = int(np.ceil(box.x2 * width))
        y1, y2 = max(y1, 0), min(max(y2, y1 + 1), height)
        x1, x2 = max(x1, 0), min(max(x2, x1 + 1), width)
        image[y1:y2, x1:x2, :] = color
        roof = annotation.attributes.get("roof")
        if roof and y2 > y1 + 1:
            roof_color = np.array(color_to_rgb(roof.split()[0]))
            image[y1:y1 + max((y2 - y1) // 4, 1), x1:x2, :] = roof_color
    if config.noise_scale > 0:
        rng = rng_from_tokens("render", frame.frame_id, base_seed=config.seed)
        image = image + rng.normal(scale=config.noise_scale, size=image.shape)
    return np.clip(image, 0.0, 1.0)


def oracle_render_grayscale(config: RenderConfig, frame: Frame) -> np.ndarray:
    image = oracle_render(config, frame)
    weights = np.array([0.299, 0.587, 0.114])
    return image @ weights


def oracle_costs(
    previous: np.ndarray, current: np.ndarray, block_size: int, search_radius: int
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    height, width = previous.shape
    rows = height // block_size
    cols = width // block_size
    usable_h = rows * block_size
    usable_w = cols * block_size
    current_blocks = current[:usable_h, :usable_w]
    offsets = [
        (offset_x, offset_y)
        for offset_y in range(-search_radius, search_radius + 1)
        for offset_x in range(-search_radius, search_radius + 1)
    ]
    costs = np.full((len(offsets), rows, cols), np.inf, dtype=np.float64)
    padded = np.pad(previous, search_radius, mode="edge")
    for index, (offset_x, offset_y) in enumerate(offsets):
        shifted = padded[
            search_radius + offset_y: search_radius + offset_y + usable_h,
            search_radius + offset_x: search_radius + offset_x + usable_w,
        ]
        difference = np.abs(current_blocks - shifted)
        per_block = difference.reshape(rows, block_size, cols, block_size).sum(axis=(1, 3))
        costs[index] = per_block
    return costs, offsets


def oracle_estimate_motion(
    previous: np.ndarray, current: np.ndarray, block_size: int = 8, search_radius: int = 2
) -> Tuple[np.ndarray, np.ndarray]:
    costs, offsets = oracle_costs(previous, current, block_size, search_radius)
    rows, cols = costs.shape[1:]
    best = costs.reshape(len(offsets), -1).argmin(axis=0).reshape(rows, cols)
    offset_array = np.array(offsets, dtype=np.float64)
    return offset_array[best, 0], offset_array[best, 1]


def oracle_mean_magnitude(dx: np.ndarray, dy: np.ndarray) -> float:
    magnitude = np.sqrt(dx ** 2 + dy ** 2)
    if magnitude.size == 0:
        return 0.0
    return float(magnitude.mean())


def oracle_magnitudes(video: Video) -> List[float]:
    """Mean motion magnitude of each frame against its predecessor, frame by frame."""
    config = RenderConfig()
    magnitudes = []
    previous = None
    for frame in video.frames:
        luminance = oracle_render_grayscale(config, frame)
        if previous is not None:
            magnitudes.append(oracle_mean_magnitude(*oracle_estimate_motion(previous, luminance)))
        previous = luminance
    return magnitudes


def oracle_mvmed(video: Video, fallback_stride: int = 10) -> List[str]:
    """The per-frame MVmed decision over the oracle magnitudes."""
    frames = video.frames
    if not frames:
        return []
    keyframes = [frames[0].frame_id]
    last_key_index = frames[0].index
    running_motion = 0.0
    for observed, (frame, magnitude) in enumerate(zip(frames[1:], oracle_magnitudes(video)), 1):
        if observed == 1:
            running_motion = magnitude
            continue
        change = abs(magnitude - running_motion) / max(running_motion, 1e-6)
        running_motion = 0.8 * running_motion + 0.2 * magnitude
        due_to_motion = change >= MOTION_THRESHOLD
        due_to_fallback = frame.index - last_key_index >= fallback_stride
        if (due_to_motion or due_to_fallback) and frame.index - last_key_index >= KEYFRAME_MIN_GAP:
            keyframes.append(frame.frame_id)
            last_key_index = frame.index
    return keyframes


# --------------------------------------------------------------------------
# Inputs.
# --------------------------------------------------------------------------

COLOURS = ("red", "black", "white", "green", "yellow-green", "grey", "not-a-colour")

annotations = st.builds(
    lambda number, colour, roof, x, y, w, h: ObjectAnnotation(
        object_id=f"o{number}",
        category="car",
        attributes={"color": colour, **({"roof": f"{roof} roof"} if roof else {})},
        box=BoundingBox(x, y, w, h),
    ),
    st.integers(0, 99),
    st.sampled_from(COLOURS),
    st.sampled_from((None, "white", "red")),
    # Boxes reach past every edge (clipped), and some have zero width or height.
    st.floats(-0.5, 1.2),
    st.floats(-0.5, 1.2),
    st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
    st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
)

render_configs = st.builds(
    RenderConfig,
    height=st.sampled_from((48, 50, 17, 8)),
    width=st.sampled_from((48, 44, 23, 9)),
    noise_scale=st.sampled_from((0.0, 0.01, 0.3)),
    seed=st.integers(0, 3),
)


def make_frames(objects_per_frame: Sequence[Sequence[ObjectAnnotation]]) -> List[Frame]:
    return [
        Frame(frame_id=f"v0/f{index:06d}", video_id="v0", index=index,
              timestamp=index / 30.0, objects=tuple(objects))
        for index, objects in enumerate(objects_per_frame)
    ]


def moving_video(length: int, name: str = "v0") -> Video:
    """A car crossing the frame with a speed that changes every few frames."""
    frames = []
    x = 0.05
    for index in range(length):
        x += 0.004 * (1 + (index // 7) % 3)
        car = ObjectAnnotation("car", "car", {"color": "red"},
                               box=BoundingBox(x % 0.9, 0.4, 0.2, 0.15))
        bus = ObjectAnnotation("bus", "bus", {"color": "green", "roof": "white roof"},
                               box=BoundingBox(0.6 - 0.003 * index % 0.5, 0.1, 0.3, 0.25))
        frames.append(Frame(frame_id=f"{name}/f{index:06d}", video_id=name, index=index,
                            timestamp=index / 30.0, objects=(car, bus)))
    return Video(video_id=name, frames=frames)


# --------------------------------------------------------------------------
# Rendering.
# --------------------------------------------------------------------------


class TestLuminanceStack:
    @settings(max_examples=60, deadline=None)
    @given(render_configs, st.lists(st.lists(annotations, max_size=4), min_size=1, max_size=5))
    def test_run_equals_per_frame_oracle(self, config, objects_per_frame):
        renderer = FrameRenderer(config=config)
        frames = make_frames(objects_per_frame)
        out = np.full((len(frames) + 2, config.height, config.width), np.nan)
        stack = renderer.render_luminance(frames, out)
        expected = np.stack([oracle_render_grayscale(config, frame) for frame in frames])
        assert_array_equal(stack, expected)
        assert np.isnan(out[len(frames):]).all()  # rows past the run are untouched
        alone = np.empty((1, config.height, config.width))
        for frame, row in zip(frames, expected):
            assert_array_equal(renderer.render(frame), oracle_render(config, frame))
            assert_array_equal(renderer.render_luminance((frame,), alone)[0], row)

    def test_out_must_fit_the_run(self):
        renderer = FrameRenderer()
        frames = make_frames([[], []])
        with pytest.raises(ValueError):
            renderer.render_luminance(frames, np.empty((1, 48, 48)))
        with pytest.raises(ValueError):
            renderer.render_luminance(frames, np.empty((2, 48, 40)))

    def test_empty_run(self):
        out = FrameRenderer().render_luminance([], np.empty((0, 48, 48)))
        assert out.shape == (0, 48, 48)


# --------------------------------------------------------------------------
# Block matching.
# --------------------------------------------------------------------------


BLOCK_SIZES = (1, 2, 3, 5, 7, 8, 9, 12, 16)
STACK_KINDS = ("rendered", "rendered with noise", "uniform noise")
FRAME_SHAPES = ("48x48", "50x44", "one block wide", "one block")


def make_stack(kind: str, count: int, shape: str, block_size: int, seed: int) -> np.ndarray:
    """Rendered frames (flat regions, so many tied costs) or uniform noise.

    A one-block-wide frame is summed by NumPy as one run per block, so it
    takes its own branch in the block sums; the other shapes do not divide
    most block sizes.
    """
    height, width = {
        "48x48": (48, 48),
        "50x44": (50, 44),
        "one block wide": (3 * block_size + 1, block_size + block_size // 2),
        "one block": (block_size + 1, block_size),
    }[shape]
    if kind == "uniform noise":
        return np.random.default_rng(seed).random((count, height, width))
    noise = 0.01 if kind == "rendered with noise" else 0.0
    renderer = FrameRenderer(config=RenderConfig(height=height, width=width, noise_scale=noise))
    video = moving_video(count + seed % 20)
    return renderer.render_luminance(video.frames[-count:], np.empty((count, height, width)))


stack_specs = st.tuples(
    st.sampled_from(STACK_KINDS),
    st.integers(2, 5),
    st.sampled_from(FRAME_SHAPES),
    st.integers(0, 2**31 - 1),
)


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
class TestBlockMatching:
    @settings(max_examples=15, deadline=None)
    @given(spec=stack_specs)
    def test_block_costs_equal_the_per_pair_sum(self, block_size, spec):
        kind, count, shape, seed = spec
        stack = make_stack(kind, count, shape, block_size, seed)
        rows, cols = stack.shape[1] // block_size, stack.shape[2] // block_size
        usable = stack[:, :rows * block_size, :cols * block_size]
        difference = np.abs(usable[1:] - usable[:-1])
        costs = np.empty((len(difference), rows, cols))
        _block_sums(difference, block_size, costs)
        for pair, per_pair in enumerate(difference):
            assert_array_equal(
                costs[pair], per_pair.reshape(rows, block_size, cols, block_size).sum(axis=(1, 3))
            )

    @settings(max_examples=15, deadline=None)
    @given(spec=stack_specs, search_radius=st.integers(1, 3))
    def test_run_equals_per_pair_oracle(self, block_size, spec, search_radius):
        kind, count, shape, seed = spec
        stack = make_stack(kind, count, shape, block_size, seed)
        field = estimate_motion_run(stack, block_size, search_radius)
        means = field.pair_mean_magnitudes()
        assert len(means) == len(stack) - 1
        for pair in range(len(stack) - 1):
            dx, dy = oracle_estimate_motion(stack[pair], stack[pair + 1], block_size, search_radius)
            assert_array_equal(field.dx[pair], dx)
            assert_array_equal(field.dy[pair], dy)
            assert_array_equal(field.magnitude[pair], np.sqrt(dx ** 2 + dy ** 2))
            assert means[pair] == oracle_mean_magnitude(dx, dy)
            two_frame = estimate_motion(stack[pair], stack[pair + 1], block_size, search_radius)
            assert_array_equal(two_frame.dx, dx)
            assert_array_equal(two_frame.dy, dy)
            one_pair = estimate_motion_run(stack[pair:pair + 2], block_size, search_radius)
            assert one_pair.pair_mean_magnitudes()[0] == oracle_mean_magnitude(dx, dy)


class TestMotionField:
    def test_short_stacks(self):
        for count in (0, 1):
            field = estimate_motion_run(np.zeros((count, 16, 16)))
            assert field.dx.shape == (0, 2, 2)
            assert field.pair_mean_magnitudes().shape == (0,)

    def test_frames_smaller_than_a_block(self):
        field = estimate_motion_run(np.zeros((3, 5, 20)), block_size=8)
        assert field.dx.shape == (2, 0, 2)
        assert_array_equal(field.pair_mean_magnitudes(), [0.0, 0.0])


# --------------------------------------------------------------------------
# Whole videos.
# --------------------------------------------------------------------------

LENGTHS = (0, 1, 2, _CHUNK_FRAMES, _CHUNK_FRAMES + 1, 2 * _CHUNK_FRAMES + 1)


class TestChunkBoundaries:
    @pytest.mark.parametrize("length", LENGTHS)
    def test_magnitudes_and_keyframes_equal_per_frame(self, length, monkeypatch):
        video = moving_video(length)
        seen: List[float] = []
        original = mvmed.estimate_motion_run

        def recording(frames, block_size, search_radius):
            field = original(frames, block_size, search_radius)
            seen.extend(field.pair_mean_magnitudes().tolist())
            return field

        monkeypatch.setattr(mvmed, "estimate_motion_run", recording)
        keyframes = MVMedKeyframeExtractor(fallback_stride=10).extract(video)
        assert seen == oracle_magnitudes(video)
        assert [frame.frame_id for frame in keyframes] == oracle_mvmed(video)


# --------------------------------------------------------------------------
# Golden key frames, recorded with the per-frame extractors.
# --------------------------------------------------------------------------


def benchmark_videos() -> List[Video]:
    """The benchmark's base corpus (2x300 frames of each dataset) and segments."""
    datasets = [make_bellevue(2, 300), make_cityscapes(2, 300)]
    builders = (make_bellevue, make_cityscapes)
    datasets += [
        builders[k % 2](1, 120, seed=1 + seed * 1000 + k) for seed in (1, 2) for k in range(3)
    ]
    datasets += [builders[k % 2](1, 60, seed=1 + 5 * 1000 + k) for k in range(2)]
    return [video for dataset in datasets for video in dataset.videos]


def keyframe_digest(extractor, videos: Sequence[Video]) -> Tuple[int, str]:
    ids = [[frame.frame_id for frame in extractor.extract(video)] for video in videos]
    return sum(map(len, ids)), hashlib.sha256(json.dumps(ids).encode("utf-8")).hexdigest()


class TestGoldenKeyframes:
    @pytest.fixture(scope="class")
    def videos(self):
        return benchmark_videos()

    def test_mvmed(self, videos):
        extractor = make_extractor(KeyframeConfig(strategy="mvmed"))
        assert keyframe_digest(extractor, videos) == (
            206, "6825db5df321404597065526a8511f5d1f6e41490c7d3b5510e713d44b9cab3d",
        )


# --------------------------------------------------------------------------
# Memory.
# --------------------------------------------------------------------------


def extract_peak_bytes(video: Video) -> int:
    extractor = MVMedKeyframeExtractor(fallback_stride=10)
    tracemalloc.start()
    try:
        extractor.extract(video)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    def test_peak_follows_the_chunk_not_the_video(self):
        short = make_bellevue(1, 300).videos[0]
        long = make_bellevue(1, 1200).videos[0]
        short_peak = extract_peak_bytes(short)
        long_peak = extract_peak_bytes(long)
        assert short_peak <= 3 * 2**20
        assert long_peak <= 1.1 * short_peak
