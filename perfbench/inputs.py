"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the system is built here from ``--seed``, before
any timing starts, so the same seed always produces the same inputs.  The base
video corpus never changes with the seed; the seed only picks query texts and
the segments appended or streamed in.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, List

from repro.video import make_bellevue, make_cityscapes
from repro.video.model import VideoDataset

# Table II vocabulary.  Every generated text has the same shape (colour,
# object, activity, place: four object tokens, no relations), so texts differ
# mainly in which frames they retrieve, not in the shape of the rerank work.
COLOURS = ("red", "black", "white", "green", "blue", "grey", "silver", "dark",
           "light", "brown", "orange", "yellow-green")
OBJECTS = ("car", "bus", "truck", "person", "woman", "man", "bicycle", "dog", "cart")
ACTIVITIES = ("driving", "walking", "parked", "standing", "riding")
PLACES = ("road", "street", "sidewalk")

# The base corpus: Bellevue 2x300 + Cityscapes 2x300 frames (121 key frames,
# 7,744 patch vectors under the default config).
BASE_VIDEOS = 2
BASE_FRAMES_PER_VIDEO = 300
SEGMENT_FRAMES = 120  # about 12 key frames


class TextPool:
    """Distinct query texts in a seed-fixed order; no text is handed out twice."""

    def __init__(self, seed: int) -> None:
        combos = list(itertools.product(COLOURS, OBJECTS, ACTIVITIES, PLACES))
        random.Random(seed).shuffle(combos)
        self._texts: Iterator[str] = (
            f"A {colour} {obj} {activity} on the {place}."
            for colour, obj, activity, place in combos
        )

    def take(self, count: int) -> List[str]:
        texts = list(itertools.islice(self._texts, count))
        if len(texts) != count:
            raise RuntimeError("query text pool exhausted")
        return texts


def base_corpus() -> List[VideoDataset]:
    """The fixed video corpus every video workload starts from."""
    return [
        make_bellevue(BASE_VIDEOS, BASE_FRAMES_PER_VIDEO),
        make_cityscapes(BASE_VIDEOS, BASE_FRAMES_PER_VIDEO),
    ]


def segments(seed: int, count: int, frames: int = SEGMENT_FRAMES) -> List[VideoDataset]:
    """Seed-varied one-video segments, alternating Bellevue and Cityscapes.

    Segment seeds are non-zero and distinct per run seed, so their video,
    frame and patch ids never collide with the base corpus or each other.
    """
    builders = (make_bellevue, make_cityscapes)
    return [
        builders[k % 2](1, frames, seed=1 + seed * 1000 + k)
        for k in range(count)
    ]
