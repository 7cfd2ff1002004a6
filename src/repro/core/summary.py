"""Video Summary module (paper §IV).

Transforms raw videos into the per-patch vector collection: key-frame
extraction (§IV-A), patch processing with the decoupled visual encoder
(§IV-B), object localization (§IV-C), and assembly of the collection records
(§IV-D).  This is the *one-time*, query-agnostic phase of LOVO — its cost is
reported as "Processing" throughout the evaluation and is amortised over all
future queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.config import LOVOConfig
from repro.encoders.concepts import ConceptSpace
from repro.encoders.vision import FrameArrays, PatchEncoding, VisionEncoder
from repro.keyframes.base import KeyframeExtractor, make_extractor
from repro.video.model import Frame, VideoDataset


@dataclass
class SummaryOutput:
    """Everything the summary phase produces for one dataset."""

    keyframes: List[Frame] = field(default_factory=list)
    encodings: List[PatchEncoding] = field(default_factory=list)
    frame_scene: Dict[str, str] = field(default_factory=dict)
    frames_processed: int = 0
    total_frames: int = 0

    @property
    def num_keyframes(self) -> int:
        """Number of key frames selected."""
        return len(self.keyframes)

    @property
    def num_entities(self) -> int:
        """Number of patch records produced (one vector-database entity each)."""
        return len(self.encodings)


class VideoSummarizer:
    """Runs key-frame extraction and patch encoding over a dataset."""

    def __init__(
        self,
        config: LOVOConfig | None = None,
        concept_space: ConceptSpace | None = None,
        extractor: KeyframeExtractor | None = None,
        vision_encoder: VisionEncoder | None = None,
    ) -> None:
        self._config = config or LOVOConfig()
        self._space = concept_space or ConceptSpace(
            dim=self._config.encoder.embedding_dim, seed=self._config.encoder.seed
        )
        self._extractor = extractor or make_extractor(self._config.keyframes)
        self._encoder = vision_encoder or VisionEncoder(self._space, self._config.encoder)

    @property
    def concept_space(self) -> ConceptSpace:
        """The shared concept space (also used by the text encoder)."""
        return self._space

    @property
    def vision_encoder(self) -> VisionEncoder:
        """The decoupled patch encoder."""
        return self._encoder

    @property
    def extractor(self) -> KeyframeExtractor:
        """The configured key-frame extractor."""
        return self._extractor

    def summarize(self, dataset: VideoDataset) -> SummaryOutput:
        """Summarise a dataset into key frames and patch encodings.

        The whole call is the paper's "Processing" phase.

        Args:
            dataset: The annotated video dataset to process.

        Returns:
            A :class:`SummaryOutput` with key frames, patch encodings, and the
            scene label of every key frame (needed when re-encoding candidate
            frames during rerank).
        """
        output = SummaryOutput(total_frames=dataset.num_frames)
        for video in dataset.videos:
            keyframes = self._extractor.extract(video)
            encodings = self._encoder.encode_frames(keyframes, scene=video.scene)
            output.keyframes.extend(keyframes)
            output.encodings.extend(encodings)
            output.frames_processed += video.num_frames
            for frame in keyframes:
                output.frame_scene[frame.frame_id] = video.scene
        return output

    def encode_single_frame(self, frame: Frame, scene: str = "generic") -> FrameArrays:
        """Encode one frame on demand into the arrays a rerank candidate is built from."""
        return self._encoder.encode_frame_arrays(frame, scene=scene)
