"""Shared scaffolding for baseline query systems.

Every baseline exposes the same two-call interface as LOVO — ``ingest`` once,
``query`` per request — and, like LOVO, times each phase with a
:func:`~repro.obs.trace.span` and adds it up in its own
``lovo_phase_seconds_total{phase}`` counter, so the evaluation harness
treats all systems identically.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional

from repro.config import EncoderConfig
from repro.core.results import QueryResponse
from repro.encoders.concepts import ConceptSpace
from repro.encoders.text import ParsedQuery, QueryParser, TextEncoder
from repro.errors import QueryError
from repro.obs.registry import Counter, MetricsRegistry, phase_seconds_counter
from repro.obs.trace import span
from repro.video.model import Frame, VideoDataset


class BaselineSystem(abc.ABC):
    """Base class for all baselines; subclasses implement the two phases."""

    name: str = "baseline"

    def __init__(self, encoder_config: EncoderConfig | None = None) -> None:
        self._encoder_config = encoder_config or EncoderConfig()
        self._space = ConceptSpace(
            dim=self._encoder_config.embedding_dim, seed=self._encoder_config.seed
        )
        self._text_encoder = TextEncoder(
            self._space, class_embedding_dim=self._encoder_config.class_embedding_dim
        )
        self._parser: QueryParser = self._text_encoder.parser
        self._phase_seconds = phase_seconds_counter(MetricsRegistry())
        self._dataset: Optional[VideoDataset] = None
        self._frames: Dict[str, Frame] = {}
        self._scene_by_video: Dict[str, str] = {}

    @property
    def phase_seconds(self) -> Counter:
        """Accumulated seconds per phase (``processing``, ``search``)."""
        return self._phase_seconds

    @property
    def concept_space(self) -> ConceptSpace:
        """The shared concept space (same pretrained space as LOVO)."""
        return self._space

    @property
    def text_encoder(self) -> TextEncoder:
        """Query text encoder."""
        return self._text_encoder

    @property
    def dataset(self) -> VideoDataset:
        """The ingested dataset; raises before :meth:`ingest`."""
        if self._dataset is None:
            raise QueryError(f"{self.name}: no dataset ingested yet")
        return self._dataset

    def ingest(self, dataset: VideoDataset) -> None:
        """Register the dataset and run the system-specific preprocessing."""
        self._dataset = dataset
        self._frames = {frame.frame_id: frame for frame in dataset.iter_frames()}
        self._scene_by_video = {video.video_id: video.scene for video in dataset.videos}
        with span("processing") as processing:
            self._preprocess(dataset)
        self._phase_seconds.inc(processing.seconds, phase="processing")

    def query(self, text: str, top_n: int | None = None) -> QueryResponse:
        """Parse the query and dispatch to the system-specific search."""
        if self._dataset is None:
            raise QueryError(f"{self.name}: call ingest() before query()")
        parsed = self._parser.parse(text)
        timings: Dict[str, float] = {}
        results = self._run_query(parsed, top_n or 50, timings)
        response = QueryResponse(query=text, results=results, timings=timings)
        response.metadata["system"] = self.name
        for phase, seconds in timings.items():
            self._phase_seconds.inc(seconds, phase=phase)
        return response

    def _run_query(self, parsed: ParsedQuery, top_n: int, timings: Dict[str, float]) -> List:
        """Execute the query, recording each phase's seconds into ``timings``.

        The default implementation times everything as ``"search"``;
        subclasses with per-query offline work (e.g. MIRIS' detector training
        and plan configuration) override this to attribute that work to the
        ``"processing"`` phase, which Fig. 8 counts toward total time but not
        toward user-perceived search time.
        """
        with span("search") as searching:
            results = self._search(parsed, top_n)
        timings["search"] = searching.seconds
        return results

    def frame(self, frame_id: str) -> Frame:
        """Look up a registered frame by id."""
        try:
            return self._frames[frame_id]
        except KeyError as error:
            raise QueryError(f"{self.name}: unknown frame {frame_id!r}") from error

    def scene_of(self, frame: Frame) -> str:
        """Scene label of a frame's parent video."""
        return self._scene_by_video.get(frame.video_id, "generic")

    def all_frames(self) -> List[Frame]:
        """Every frame of the ingested dataset."""
        return list(self._frames.values())

    @abc.abstractmethod
    def _preprocess(self, dataset: VideoDataset) -> None:
        """System-specific offline processing (indexing, sampling, ...)."""

    @abc.abstractmethod
    def _search(self, parsed: ParsedQuery, top_n: int) -> List:
        """System-specific query execution returning ObjectQueryResults."""
