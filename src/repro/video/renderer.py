"""Low-resolution rasteriser turning annotated frames into pixel arrays.

The real pipeline decodes H.264 frames; the reproduction renders each
annotated frame onto a small RGB grid (default ``48x48``).  The rendered
pixels feed the block-matching motion estimator (MVmed substitute), so key
frames are chosen from genuine image data rather than ground-truth
shortcuts.

The MVmed extractor renders a run of frames at a time with
:meth:`FrameRenderer.render_luminance`, which writes the luminance into a
caller-owned ``(n, H, W)`` buffer and reuses one colour image and one noise
image for the whole run; :meth:`FrameRenderer.render` paints one frame's
RGB image with the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.utils.rng import rng_from_tokens
from repro.video.model import Frame
from repro.video.synthetic import color_to_rgb

_LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])


@dataclass(frozen=True)
class RenderConfig:
    """Rasteriser settings.

    Attributes:
        height: Raster height in pixels.
        width: Raster width in pixels.
        noise_scale: Standard deviation of per-pixel sensor noise.
        seed: Seed for the deterministic per-frame noise.
    """

    height: int = 48
    width: int = 48
    noise_scale: float = 0.01
    seed: int = 0


class FrameRenderer:
    """Renders annotated frames to ``(H, W, 3)`` float arrays in ``[0, 1]``."""

    def __init__(
        self,
        background_color: Tuple[float, float, float] = (0.45, 0.45, 0.45),
        config: RenderConfig | None = None,
    ) -> None:
        self._config = config or RenderConfig()
        self._background_image = np.tile(
            np.array(background_color, dtype=np.float64),
            (self._config.height, self._config.width, 1),
        )

    @property
    def config(self) -> RenderConfig:
        """The renderer configuration."""
        return self._config

    def render(self, frame: Frame) -> np.ndarray:
        """Render one frame to a fresh ``(H, W, 3)`` array in ``[0, 1]``."""
        height, width = self._config.height, self._config.width
        image = np.empty((height, width, 3))
        self._paint(frame, image, np.empty_like(image))
        return image

    def render_luminance(self, frames: Sequence[Frame], out: np.ndarray) -> np.ndarray:
        """Render a run of frames into the caller's ``(n, H, W)`` buffer.

        Row ``i`` of ``out`` receives the luminance of ``frames[i]``; ``out``
        must hold at least ``len(frames)`` rows.  One ``(H, W, 3)`` colour
        image and one noise image are reused across the whole run, so the
        working memory is independent of ``n``.  Returns the filled rows.
        """
        height, width = self._config.height, self._config.width
        if out.shape[1:] != (height, width) or out.shape[0] < len(frames):
            raise ValueError(
                f"out {out.shape} cannot hold {len(frames)} frames of {height}x{width}"
            )
        image = np.empty((height, width, 3))
        noise = np.empty_like(image)
        for row, frame in enumerate(frames):
            self._paint(frame, image, noise)
            np.matmul(image, _LUMA_WEIGHTS, out=out[row])
        return out[: len(frames)]

    def _paint(self, frame: Frame, image: np.ndarray, noise: np.ndarray) -> None:
        """Draw ``frame`` into ``image`` in place, using ``noise`` as scratch.

        Objects are drawn back-to-front in annotation order as filled
        rectangles of their colour attribute; a small amount of deterministic
        per-frame noise models sensor variation.  ``standard_normal`` scaled
        afterwards draws the same values as ``normal(scale=...)``.
        """
        height, width = self._config.height, self._config.width
        image[...] = self._background_image
        for annotation in frame.objects:
            box = annotation.box.clipped()
            if box.area <= 0.0:
                continue
            y1 = math.floor(box.y * height)
            y2 = math.ceil(box.y2 * height)
            x1 = math.floor(box.x * width)
            x2 = math.ceil(box.x2 * width)
            y1, y2 = max(y1, 0), min(max(y2, y1 + 1), height)
            x1, x2 = max(x1, 0), min(max(x2, x1 + 1), width)
            image[y1:y2, x1:x2, :] = color_to_rgb(annotation.attributes.get("color", "grey"))
            roof = annotation.attributes.get("roof")
            if roof and y2 > y1 + 1:
                image[y1:y1 + max((y2 - y1) // 4, 1), x1:x2, :] = color_to_rgb(roof.split()[0])
        if self._config.noise_scale > 0:
            rng = rng_from_tokens("render", frame.frame_id, base_seed=self._config.seed)
            rng.standard_normal(out=noise)
            noise *= self._config.noise_scale
            image += noise
        np.clip(image, 0.0, 1.0, out=image)
