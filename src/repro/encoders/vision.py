"""Decoupled ViT-style patch encoder (paper §IV-B, §IV-C).

Each key frame is divided into a regular grid of patches; every patch gets a
visual embedding in the concept space (dimension ``D``) plus a projected
class embedding (dimension ``D'``) and a predicted bounding box.  The encoder
is *query-agnostic*: it never sees the text query, so a frame is encoded
exactly once, which is the property LOVO's one-time indexing relies on.

The embedding of a patch is a mixture of the concept vectors of the objects
overlapping it (weighted by how much of the patch they cover), a background
component, and noise — the deterministic analogue of running a pretrained
ViT over the pixels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.config import BACKGROUND_WEIGHT, ENCODER_NOISE_SCALE, EncoderConfig
from repro.encoders.concepts import ConceptSpace
from repro.encoders.localization import SimulatedBoxHead
from repro.errors import EncodingError
from repro.utils.geometry import BoundingBox, box_array
from repro.utils.rng import rng_from_tokens
from repro.video.model import Frame, ObjectAnnotation


@dataclass(frozen=True)
class PatchGrid:
    """Regular patch grid over the unit frame."""

    grid_size: int

    def __post_init__(self) -> None:
        if self.grid_size <= 0:
            raise EncodingError("grid_size must be positive")

    @property
    def num_patches(self) -> int:
        """Total number of patches ``K = grid_size ** 2``."""
        return self.grid_size * self.grid_size

    def anchor(self, patch_index: int) -> BoundingBox:
        """Default (anchor) box of the ``patch_index``-th patch."""
        if not 0 <= patch_index < self.num_patches:
            raise EncodingError(
                f"patch_index must lie in [0, {self.num_patches}), got {patch_index}"
            )
        row, col = divmod(patch_index, self.grid_size)
        size = 1.0 / self.grid_size
        return BoundingBox(col * size, row * size, size, size)

    def anchors(self) -> List[BoundingBox]:
        """Anchor boxes for every patch in row-major order."""
        return [self.anchor(index) for index in range(self.num_patches)]


@dataclass(frozen=True)
class PatchEncoding:
    """Encoded representation of one patch of one key frame.

    This is exactly the per-patch record the paper stores in its vector
    collection (§IV-D): the class embedding that goes into the vector index,
    the predicted bounding box, and the identifiers linking back to the frame.
    ``embedding`` (the patch's concept-space vector) is ``None`` on an
    encoding replayed from a delta snapshot, which stores only what the
    index needs.
    """

    patch_id: str
    frame_id: str
    video_id: str
    patch_index: int
    embedding: Optional[np.ndarray]
    class_embedding: np.ndarray
    box: BoundingBox
    objectness: float


class FrameArrays(NamedTuple):
    """One encoded key frame in array form, one row per patch (row-major grid).

    The rerank stage builds its candidates from this; ingest turns it into
    :class:`PatchEncoding` records.  Row ``i`` is patch ``patch_id(frame_id, i)``.
    """

    embeddings: np.ndarray  # (P, D) unit rows in the concept space
    boxes: np.ndarray  # (P, 4) predicted [x, y, w, h]
    objectness: np.ndarray  # (P,) in [0, 1]


def patch_id(frame_id: str, patch_index: int) -> str:
    """The stored id of the ``patch_index``-th patch of a frame."""
    return f"{frame_id}/patch{patch_index:03d}"


class VisionEncoder:
    """Query-agnostic patch encoder producing :class:`PatchEncoding` records."""

    def __init__(
        self,
        concept_space: ConceptSpace,
        config: EncoderConfig | None = None,
        box_head: SimulatedBoxHead | None = None,
    ) -> None:
        self._space = concept_space
        self._config = config or EncoderConfig()
        if concept_space.dim != self._config.embedding_dim:
            raise EncodingError(
                "ConceptSpace dimension must match EncoderConfig.embedding_dim "
                f"({concept_space.dim} != {self._config.embedding_dim})"
            )
        self._grid = PatchGrid(self._config.patch_grid)
        self._anchors = box_array(self._grid.anchors())
        self._projection = concept_space.projection_matrix(self._config.class_embedding_dim)
        self._box_head = box_head or SimulatedBoxHead(seed=self._config.seed)
        self._object_embedding_cache: Dict[Tuple[str, ...], np.ndarray] = {}

    @property
    def grid(self) -> PatchGrid:
        """The patch grid used for every frame."""
        return self._grid

    @property
    def config(self) -> EncoderConfig:
        """Encoder configuration."""
        return self._config

    @property
    def class_embedding_dim(self) -> int:
        """Dimensionality ``D'`` of the stored class embeddings."""
        return self._config.class_embedding_dim

    def encode_frame(self, frame: Frame, scene: str = "generic") -> List[PatchEncoding]:
        """Encode one key frame into per-patch records.

        The computation is independent of any query: it depends only on the
        frame content (object annotations stand in for pixels) and the fixed
        "pretrained" concept space.
        """
        embeddings, boxes, objectness = self.encode_frame_arrays(frame, scene=scene)
        class_embeddings = _unit_rows(
            np.matmul(self._projection, embeddings[:, :, None])[:, :, 0]
        )
        frame_id, video_id = frame.frame_id, frame.video_id
        # Positional fields, in PatchEncoding's declaration order.
        return [
            PatchEncoding(
                patch_id(frame_id, patch_index), frame_id, video_id, patch_index,
                embedding, class_embedding, BoundingBox(*box), patch_objectness,
            )
            for patch_index, (embedding, class_embedding, box, patch_objectness) in enumerate(
                zip(embeddings, class_embeddings, boxes.tolist(), objectness.tolist())
            )
        ]

    def encode_frame_arrays(self, frame: Frame, scene: str = "generic") -> FrameArrays:
        """Encode one key frame into whole-frame arrays, without class embeddings.

        This is :meth:`encode_frame` minus the projection into the stored
        class space and the per-patch records, which the rerank stage never
        reads.
        """
        anchors = self._anchors
        num_patches = anchors.shape[0]
        objects = frame.visible_objects()
        object_boxes = box_array([obj.box for obj in objects])
        overlaps = self._overlap_matrix(anchors, object_boxes)
        object_embeddings = self._object_embeddings(objects)
        background = self._space.vector(f"background:{scene}")
        rng = rng_from_tokens("vision", frame.frame_id, base_seed=self._config.seed)
        # Noise is applied as a *relative* perturbation: a random direction
        # whose magnitude is ``ENCODER_NOISE_SCALE`` times the signal magnitude, so
        # the encoder's imperfection is a fixed fraction of its output rather
        # than something that can swamp the semantic content.
        noise_directions = rng.normal(size=(num_patches, self._config.embedding_dim))
        noise_directions /= np.linalg.norm(noise_directions, axis=1, keepdims=True)
        boxes = self._box_head.predict_array(frame.frame_id, anchors, object_boxes, overlaps)

        # Whole-frame array operations.  Row norms and row products go through
        # stacked matmuls because those round exactly like the per-vector
        # ``dot``/``gemv`` calls of encoding one patch at a time, so a patch's
        # encoding never depends on the rest of the frame; ``norm(axis=1)`` or
        # one ``(P, O) @ (O, D)`` GEMM would change the last bits.
        mixture = np.broadcast_to(BACKGROUND_WEIGHT * background, noise_directions.shape)
        objectness = overlaps.sum(axis=1)
        mixed = mixture + np.matmul(overlaps[:, None, :], object_embeddings)[:, 0]
        mixture = np.where((objectness > 0)[:, None], mixed, mixture)
        signal_norm = row_norms(mixture)
        mixture = mixture + ENCODER_NOISE_SCALE * signal_norm * noise_directions
        return FrameArrays(_unit_rows(mixture), boxes, np.minimum(objectness, 1.0))

    def encode_frames(
        self, frames: Sequence[Frame], scene: str = "generic"
    ) -> List[PatchEncoding]:
        """Encode several frames and concatenate their patch records."""
        encodings: List[PatchEncoding] = []
        for frame in frames:
            encodings.extend(self.encode_frame(frame, scene=scene))
        return encodings

    #: Token-type weights mirroring the text encoder's head-noun-heavy
    #: weighting, so visual and textual mixtures stay aligned: the category
    #: dominates, visual attributes are prominent, context is a weak prior.
    _CATEGORY_WEIGHT = 1.6
    _ATTRIBUTE_WEIGHT = 1.1
    _CONTEXT_WEIGHT = 0.5
    _ACTIVITY_WEIGHT = 0.9

    def object_embedding(self, annotation: ObjectAnnotation) -> np.ndarray:
        """Full-dimensional concept embedding of a single annotated object."""
        tokens = tuple(annotation.concept_tokens())
        if tokens not in self._object_embedding_cache:
            weights = {annotation.category: self._CATEGORY_WEIGHT}
            for value in annotation.attributes.values():
                weights[value] = self._ATTRIBUTE_WEIGHT
            for context in annotation.context:
                weights[context] = self._CONTEXT_WEIGHT
            for activity in annotation.activity:
                weights[activity] = self._ACTIVITY_WEIGHT
            self._object_embedding_cache[tokens] = self._space.encode(
                list(tokens), weights=weights
            )
        return self._object_embedding_cache[tokens]

    def _object_embeddings(self, objects: Sequence[ObjectAnnotation]) -> np.ndarray:
        if not objects:
            return np.zeros((0, self._config.embedding_dim), dtype=np.float64)
        return np.stack([self.object_embedding(annotation) for annotation in objects])

    @staticmethod
    def _overlap_matrix(anchors: np.ndarray, object_boxes: np.ndarray) -> np.ndarray:
        """Fraction of each patch covered by each object: ``(P, 4)`` anchor
        and ``(O, 4)`` object ``[x, y, w, h]`` rows in, ``(P, O)`` out."""
        ax1 = anchors[:, None, 0]
        ay1 = anchors[:, None, 1]
        ax2 = ax1 + anchors[:, None, 2]
        ay2 = ay1 + anchors[:, None, 3]
        ox1 = object_boxes[None, :, 0]
        oy1 = object_boxes[None, :, 1]
        ox2 = ox1 + object_boxes[None, :, 2]
        oy2 = oy1 + object_boxes[None, :, 3]
        inter_w = np.clip(np.minimum(ax2, ox2) - np.maximum(ax1, ox1), 0.0, None)
        inter_h = np.clip(np.minimum(ay2, oy2) - np.maximum(ay1, oy1), 0.0, None)
        patch_area = anchors[:, None, 2] * anchors[:, None, 3]
        with np.errstate(divide="ignore", invalid="ignore"):
            overlaps = np.where(patch_area > 0, inter_w * inter_h / patch_area, 0.0)
        return overlaps


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """``(N, 1)`` Euclidean row norms, rounded exactly like ``norm`` of one row."""
    return np.sqrt(np.matmul(matrix[:, None, :], matrix[:, :, None]))[:, 0]


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; zero rows are left as they are."""
    norms = row_norms(matrix)
    return matrix / np.where(norms > 0, norms, 1.0)
