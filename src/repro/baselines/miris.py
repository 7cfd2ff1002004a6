"""MIRIS-style query-dependent tracking baseline (paper §VII-A, [24]).

MIRIS answers object-track queries by running a detector plus tracker over
the video *for every query*, after an offline per-query step that trains /
tunes the detector and the query plan.  The reproduction keeps that
structure:

* ``query`` first pays a plan-configuration cost (detector "training" is
  simulated by a fixed number of model-compute passes);
* it then scans **every frame** of the dataset with the detector and a
  ByteTrack-style tracker;
* detected tracks are filtered by comparing their appearance features with
  the query embedding (attribute matching), which handles descriptive
  queries but not spatial relations — matching the paper's analysis.

The per-query full scan is what makes MIRIS orders of magnitude slower than
LOVO on large datasets while remaining reasonably accurate for simple and
normal queries.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.baselines.base import BaselineSystem
from repro.baselines.detectors import DetectionModel, burn_model_compute
from repro.config import EncoderConfig
from repro.core.results import ObjectQueryResult
from repro.encoders.text import ParsedQuery
from repro.obs.trace import span
from repro.tracking.bytetrack import ByteTracker, Detection
from repro.video.model import VideoDataset


class MIRISBaseline(BaselineSystem):
    """QD-search baseline: per-query detector training + full-video tracking."""

    name = "MIRIS"

    def __init__(
        self,
        encoder_config: EncoderConfig | None = None,
        detector: DetectionModel | None = None,
        plan_configuration_passes: int = 120,
        plan_configuration_units: int = 512,
        match_threshold: float = 0.35,
    ) -> None:
        super().__init__(encoder_config)
        self._detector = detector or DetectionModel(name="miris-detector", miss_rate=0.12)
        self._plan_passes = plan_configuration_passes
        self._plan_units = plan_configuration_units
        self._match_threshold = match_threshold

    def _preprocess(self, dataset: VideoDataset) -> None:
        """MIRIS has minimal query-agnostic preprocessing (frame registration)."""

    def _run_query(self, parsed: ParsedQuery, top_n: int, timings: Dict[str, float]) -> List:
        """Per-query detector training counts as processing, the scan as search.

        Fig. 8 attributes MIRIS' plan configuration and detector tuning to its
        (per-query) processing cost — it dominates MIRIS' *total* time — while
        the tracker scan is the user-perceived search time.
        """
        with span("processing") as processing:
            burn_model_compute(self._plan_units, repeats=self._plan_passes)
        timings["processing"] = processing.seconds
        return super()._run_query(parsed, top_n, timings)

    def _search(self, parsed: ParsedQuery, top_n: int) -> List[ObjectQueryResult]:
        query_vector = self._space.encode(list(parsed.object_tokens))
        results: List[ObjectQueryResult] = []
        for video in self.dataset.videos:
            tracker = ByteTracker()
            frame_appearance: Dict[str, Dict[int, np.ndarray]] = {}
            for frame in video.frames:
                detections = self._detector.detect(frame, self._space)
                tracker_input = [
                    Detection(box=d.box, score=d.score, category=d.category)
                    for d in detections
                ]
                tracker.step(frame.frame_id, tracker_input)
                # Remember appearances for scoring the tracked boxes later.
                frame_appearance[frame.frame_id] = {
                    index: detection.appearance for index, detection in enumerate(detections)
                }
                for detection in detections:
                    similarity = float(detection.appearance @ query_vector)
                    if similarity < self._match_threshold:
                        continue
                    results.append(
                        ObjectQueryResult(
                            frame_id=frame.frame_id,
                            video_id=frame.video_id,
                            box=detection.box,
                            score=similarity,
                            source=self.name,
                        )
                    )
            tracker.finish()
        results.sort(key=lambda result: result.score, reverse=True)
        return results[: max(top_n, 1) * 4]
