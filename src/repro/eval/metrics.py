"""Retrieval metrics: IoU-based matching and Average Precision (paper §VII-A).

The paper scores every method with Average Precision (AveP), the area under
the precision-recall curve: retrieved objects are ranked by score, an object
counts as a true positive when its IoU with the ground-truth box in the same
frame exceeds 0.5 (MSCOCO convention), and each method is evaluated on its
top-(10 x |ground truth|) retrieved objects.

Ground truth is organised at the *instance* level: one
:class:`GroundTruthInstance` per distinct object that satisfies the query
predicate, carrying its per-frame boxes over the frames where the predicate
holds.  A retrieval matches an instance when it lands on any of those frames
with sufficient IoU, and each instance can be matched at most once — so a
system that keeps returning the same object over and over gains no extra
credit, mirroring the paper's observation that key-frame diversity matters
("retrieve diverse objects from different parts of long videos, instead of
focusing on one repeated object").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

from repro.config import IOU_THRESHOLD
from repro.core.results import ObjectQueryResult
from repro.errors import EvaluationError
from repro.utils.geometry import BoundingBox, iou


@dataclass(frozen=True)
class GroundTruthInstance:
    """One ground-truth object instance with its per-frame boxes."""

    object_id: str
    boxes: Mapping[str, BoundingBox] = field(default_factory=dict)

    @property
    def num_frames(self) -> int:
        """Number of frames in which the instance satisfies the query."""
        return len(self.boxes)

    def box_in(self, frame_id: str) -> BoundingBox | None:
        """The instance's box in ``frame_id``, or ``None`` if absent there."""
        return self.boxes.get(frame_id)


def match_results(
    results: Sequence[ObjectQueryResult],
    ground_truth: Sequence[GroundTruthInstance],
    iou_threshold: float = IOU_THRESHOLD,
) -> List[bool | None]:
    """Greedy matching of ranked results against ground-truth instances.

    Results are processed in descending score order; each instance can be
    matched at most once.  Returns, for every ranked result:

    * ``True`` — the result localises a not-yet-matched instance (true
      positive);
    * ``None`` — the result localises an instance that an earlier, higher
      ranked result already matched (a duplicate view of the same object;
      collapsed, neither rewarded nor penalised);
    * ``False`` — the result does not localise any ground-truth instance
      (false positive).
    """
    if not 0.0 < iou_threshold < 1.0:
        raise EvaluationError("iou_threshold must lie strictly between 0 and 1")
    instances_by_frame: Dict[str, List[int]] = {}
    for index, instance in enumerate(ground_truth):
        for frame_id in instance.boxes:
            instances_by_frame.setdefault(frame_id, []).append(index)

    matched: set[int] = set()
    ranked = sorted(results, key=lambda result: result.score, reverse=True)
    relevances: List[bool | None] = []
    for result in ranked:
        outcome: bool | None = False
        for instance_index in instances_by_frame.get(result.frame_id, []):
            target_box = ground_truth[instance_index].boxes[result.frame_id]
            if iou(result.box, target_box) >= iou_threshold:
                if instance_index in matched:
                    outcome = None
                    continue
                matched.add(instance_index)
                outcome = True
                break
        relevances.append(outcome)
    return relevances


def average_precision(relevances: Sequence[bool | None], num_positives: int) -> float:
    """AP over a ranked relevance list with ``num_positives`` targets.

    ``AP = (1 / num_positives) * sum_i precision@i * rel_i``, the discrete
    area under the precision-recall curve.  Entries that are ``None``
    (collapsed duplicates of an already-matched instance) are skipped and do
    not advance the rank position.
    """
    if num_positives <= 0:
        raise EvaluationError("num_positives must be positive")
    hits = 0
    position = 0
    precision_sum = 0.0
    for relevant in relevances:
        if relevant is None:
            continue
        position += 1
        if relevant:
            hits += 1
            precision_sum += hits / position
    return precision_sum / num_positives


def evaluate_results(
    results: Sequence[ObjectQueryResult],
    ground_truth: Sequence[GroundTruthInstance],
    iou_threshold: float = IOU_THRESHOLD,
    top_multiplier: int = 10,
) -> float:
    """AveP of ranked results against ground truth, following the paper.

    Only the top ``top_multiplier x |ground truth|`` results are considered,
    matching the protocol in §VII-A.  Returns 0.0 when there are no results;
    raises when there is no ground truth (the query is ill-posed).
    """
    if not ground_truth:
        raise EvaluationError("Cannot evaluate a query with empty ground truth")
    if not results:
        return 0.0
    limit = top_multiplier * len(ground_truth)
    ranked = sorted(results, key=lambda result: result.score, reverse=True)[:limit]
    relevances = match_results(ranked, ground_truth, iou_threshold=iou_threshold)
    return average_precision(relevances, num_positives=len(ground_truth))


def recall_at_k(
    results: Sequence[ObjectQueryResult],
    ground_truth: Sequence[GroundTruthInstance],
    k: int,
    iou_threshold: float = IOU_THRESHOLD,
) -> float:
    """Fraction of ground-truth instances recovered within the top ``k`` results."""
    if not ground_truth:
        raise EvaluationError("Cannot evaluate a query with empty ground truth")
    if k <= 0:
        return 0.0
    ranked = sorted(results, key=lambda result: result.score, reverse=True)[:k]
    relevances = match_results(ranked, ground_truth, iou_threshold=iou_threshold)
    return sum(1 for relevant in relevances if relevant) / len(ground_truth)
