"""Result types returned by LOVO and the baseline systems."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.utils.geometry import BoundingBox

#: Phases that are offline/amortised work rather than per-query search time.
_OFFLINE_PHASES = frozenset({"processing", "indexing"})


@dataclass(frozen=True)
class ObjectQueryResult:
    """One retrieved object: a frame, a bounding box, and a relevance score."""

    frame_id: str
    video_id: str
    box: BoundingBox
    score: float
    patch_id: str = ""
    source: str = "lovo"

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view used by reports and serialisation."""
        return {
            "frame_id": self.frame_id,
            "video_id": self.video_id,
            "box": list(self.box.to_array()),
            "score": self.score,
            "patch_id": self.patch_id,
            "source": self.source,
        }


@dataclass
class QueryResponse:
    """Full response to one object query, including timing breakdowns."""

    query: str
    results: List[ObjectQueryResult] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def search_seconds(self) -> float:
        """Query-time seconds (everything except offline video processing)."""
        return sum(
            seconds for phase, seconds in self.timings.items()
            if phase not in _OFFLINE_PHASES
        )

    def top(self, n: int) -> List[ObjectQueryResult]:
        """The ``n`` highest-scoring results."""
        ranked = sorted(self.results, key=lambda result: result.score, reverse=True)
        return ranked[:n]

    def frames(self) -> List[str]:
        """Distinct frame ids in rank order."""
        seen: Dict[str, None] = {}
        for result in sorted(self.results, key=lambda r: r.score, reverse=True):
            seen.setdefault(result.frame_id, None)
        return list(seen)


@dataclass
class BatchQueryResponse:
    """Response to a batch of object queries answered in one engine pass.

    ``responses`` holds one :class:`QueryResponse` per input query, in input
    order, with per-query timings amortised (batch phase time divided by the
    batch size) so that summing them reproduces the batch totals recorded in
    :attr:`timings`.
    """

    queries: List[str] = field(default_factory=list)
    responses: List[QueryResponse] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.responses)

    def __iter__(self):
        return iter(self.responses)

    def __getitem__(self, index: int) -> QueryResponse:
        return self.responses[index]

    @property
    def batch_size(self) -> int:
        """Number of queries answered by this batch."""
        return len(self.queries)

    @property
    def search_seconds(self) -> float:
        """Batch query-time seconds (excludes offline processing phases)."""
        return sum(
            seconds for phase, seconds in self.timings.items()
            if phase not in _OFFLINE_PHASES
        )

