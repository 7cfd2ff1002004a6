"""Simulated object-detection model zoo used by the baseline systems.

Baselines such as VOCAL, MIRIS and FiGO are built around conventional object
detectors trained on fixed label sets (MSCOCO), optionally ensembled at
different accuracy/cost trade-offs (FiGO).  Pretrained detector weights are
not available offline, so this module provides *simulated detectors* with the
properties that matter to the paper's comparison:

* a **closed label set** — objects outside the set are never detected, which
  is precisely why QA-index baselines cannot answer open-vocabulary queries;
* an **accuracy profile** — each model has a per-object miss probability and
  localization noise, larger/costlier models miss less;
* a **real compute cost** — every frame processed runs an actual matrix
  workload proportional to the model's size, so measured latencies reflect
  how often each baseline re-processes video, which is the quantity the
  paper's runtime figures compare.

Detections carry an appearance feature (the object's concept embedding plus
noise) so query-dependent baselines can score attribute matches the way their
real counterparts run attribute classifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.encoders.concepts import ConceptSpace
from repro.utils.geometry import BoundingBox
from repro.utils.rng import rng_from_tokens
from repro.video.model import Frame

#: The subset of MSCOCO classes relevant to the evaluation scenes.  "woman",
#: "man", "cart" and similar open-vocabulary labels are deliberately absent:
#: closed-set detectors map them to their nearest predefined class or miss
#: them entirely.
MSCOCO_CLASSES: Tuple[str, ...] = (
    "person", "car", "bus", "truck", "bicycle", "dog",
)

#: How non-COCO categories appear to a closed-set detector.
_CLASS_FALLBACK: Dict[str, str] = {
    "woman": "person",
    "man": "person",
    "cart": "car",
}


@dataclass(frozen=True)
class SimulatedDetection:
    """One detection produced by a simulated model."""

    category: str
    box: BoundingBox
    score: float
    appearance: np.ndarray
    object_id: str


@dataclass
class DetectionModel:
    """A closed-set detector with an accuracy/cost profile."""

    name: str
    classes: Tuple[str, ...] = MSCOCO_CLASSES
    miss_rate: float = 0.1
    localization_noise: float = 0.01
    compute_units: int = 96
    seed: int = 11
    #: Categories this model is systematically worse at (domain bias), mapped
    #: to an *additional* miss probability.
    domain_bias: Dict[str, float] = field(default_factory=dict)

    def detect(self, frame: Frame, concept_space: ConceptSpace) -> List[SimulatedDetection]:
        """Run the detector on one frame.

        The call performs a real matrix workload proportional to
        ``compute_units`` so that baselines that re-scan video per query pay a
        genuine, measurable cost.
        """
        _burn_compute(self.compute_units, frame.frame_id, self.name)
        rng = rng_from_tokens("detector", self.name, frame.frame_id, base_seed=self.seed)
        detections: List[SimulatedDetection] = []
        for annotation in frame.visible_objects():
            detected_class = self._map_category(annotation.category)
            if detected_class is None:
                continue
            miss = self.miss_rate + self.domain_bias.get(annotation.category, 0.0)
            if rng.random() < miss:
                continue
            box = self._jitter_box(annotation.box, rng)
            appearance = concept_space.encode(annotation.concept_tokens())
            direction = rng.normal(size=appearance.shape)
            direction /= max(np.linalg.norm(direction), 1e-9)
            appearance = appearance + 0.1 * direction
            appearance = appearance / max(np.linalg.norm(appearance), 1e-9)
            detections.append(
                SimulatedDetection(
                    category=detected_class,
                    box=box,
                    score=float(rng.uniform(0.6, 0.99)),
                    appearance=appearance,
                    object_id=annotation.object_id,
                )
            )
        return detections

    def supports_class(self, category: str) -> bool:
        """Whether the detector's label set covers ``category``."""
        return category in self.classes

    def _map_category(self, category: str) -> Optional[str]:
        if category in self.classes:
            return category
        fallback = _CLASS_FALLBACK.get(category)
        if fallback is not None and fallback in self.classes:
            return fallback
        return None

    def _jitter_box(self, box: BoundingBox, rng: np.random.Generator) -> BoundingBox:
        if self.localization_noise <= 0:
            return box.clipped()
        jitter = rng.normal(scale=self.localization_noise, size=4)
        return BoundingBox(
            box.x + jitter[0],
            box.y + jitter[1],
            max(box.w * (1.0 + jitter[2]), 1e-4),
            max(box.h * (1.0 + jitter[3]), 1e-4),
        ).clipped()


def model_zoo() -> Dict[str, DetectionModel]:
    """The detector ensemble used by the QD-search baselines.

    FiGO's core idea is a throughput/accuracy ensemble: a cheap model, a
    mid-sized model, and an expensive, accurate one.
    """
    return {
        "tiny": DetectionModel(name="tiny", miss_rate=0.35, localization_noise=0.03, compute_units=48),
        "base": DetectionModel(name="base", miss_rate=0.15, localization_noise=0.015, compute_units=96),
        "large": DetectionModel(name="large", miss_rate=0.05, localization_noise=0.008, compute_units=160),
    }


_COMPUTE_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _burn_compute(units: int, *tokens: object) -> None:
    """Execute a deterministic matrix workload of size ``units``.

    This stands in for the GPU inference cost of the corresponding model: the
    wall-clock cost grows with the model size and with how many frames a
    baseline processes, which is exactly the scaling the paper's latency
    comparison measures.
    """
    if units <= 0:
        return
    if units not in _COMPUTE_CACHE:
        rng = np.random.default_rng(units)
        _COMPUTE_CACHE[units] = (
            rng.normal(size=(units, units)),
            rng.normal(size=(units, units)),
        )
    left, right = _COMPUTE_CACHE[units]
    np.tanh(left @ right).sum()


def burn_model_compute(units: int, repeats: int = 1) -> None:
    """Public wrapper for baselines that model multi-pass inference."""
    for _ in range(max(repeats, 0)):
        _burn_compute(units)
