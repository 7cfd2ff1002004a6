"""Minimal NumPy transformer building blocks (attention, layer norm, MLP).

The cross-modality rerank model (paper §VI-B, Fig. 5) is a stack of feature
enhancer and decoder layers built around image↔text cross-attention.  These
primitives implement that machinery directly in NumPy.  Image and text
tokens already live in one aligned concept space, so attention needs no
query, key or value projection: it compares and mixes the tokens themselves.

A :class:`CrossModalLayer` runs in float32 end to end: it takes float32
tokens, and the padding, attention logits, mask and softmax, the residual
adds, the MLPs and the layer norms all stay float32, so a stack of layers
never round-trips through float64.  Every scalar on that path is a Python
float, which NumPy casts to the array's dtype under both the legacy
promotion rules and NEP 50.  :func:`softmax` and :func:`layer_norm` keep
the dtype they are given.

Attention over several stacked frames pads every frame's rows to the widest
frame and runs one batched product.  Where each row goes is a
:class:`Segments` layout, built once per stack of frames and reused by every
layer over it; a layer pads each side once, and both attention directions
read the same padded arrays.  The feed-forward MLPs run over zero-padded
tiles of :data:`ROW_BLOCK` rows, so every matrix product has one fixed shape
and a row's output is the same bits whichever rows are stacked around it; a
query side padded to whole blocks of as many rows gives identical rows
identical attention bits.

Layer norm, the MLP activation and the residual adds run in place, one
operation at a time in the order of the plain expressions they stand for,
so they round exactly like them and allocate fewer temporaries.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.utils.rng import rng_from_tokens


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def layer_norm(x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Layer normalisation over the last dimension (no learned affine).

    ``x - mean`` is taken once and the variance is summed from it, in the
    operations :func:`numpy.var` runs, so the result has the bits of
    ``(x - x.mean(-1)) / np.sqrt(x.var(-1) + eps)``.
    """
    centred = x - x.mean(axis=-1, keepdims=True)
    variance = np.square(centred).sum(axis=-1, keepdims=True) / x.shape[-1]
    centred /= np.sqrt(variance + eps)
    return centred


#: Rows of one BLAS row block.  A matrix product rounds the rows of a ragged
#: tail unlike the rows of its full kernel blocks, so products whose rows must
#: round alike get whole blocks: the feed-forward MLPs run on zero-padded tiles
#: of exactly this many rows (one product shape, so a row's output is the same
#: bits wherever it is stacked), and the reranker pads each frame's image rows
#: to whole blocks (so identical rows get identical attention bits).  Small
#: tiles waste few padding rows on the reranker's short text stacks.
ROW_BLOCK = 16


class Segments(NamedTuple):
    """Where each row of a stack of segments sits once they are padded to the widest.

    Segment ``s`` owns rows ``bounds[s]:bounds[s + 1]`` of the stack; padded,
    they are ``padded[s, :bounds[s + 1] - bounds[s]]``.  A layout depends only
    on the bounds, so one is built per stack and serves every layer over it.
    """

    index: tuple[np.ndarray, np.ndarray]  # (segment, slot) of every stacked row, in order
    shape: tuple[int, int]  # (segments, widest)
    padding: np.ndarray | None  # (segments, widest) True on padding slots; None if none

    @classmethod
    def of(cls, bounds: Sequence[int], multiple: int = 1) -> "Segments":
        """The layout of segments ``bounds[s]:bounds[s + 1]``, with ``bounds[0] == 0``,
        padded to the widest rounded up to a multiple of ``multiple`` rows."""
        sizes = np.diff(bounds)
        segment = np.repeat(np.arange(sizes.shape[0]), sizes)
        slot = np.arange(segment.shape[0]) - np.asarray(bounds[:-1])[segment]
        widest = -(-int(sizes.max(initial=0)) // multiple) * multiple
        padding = np.arange(widest) >= sizes[:, None]
        return cls((segment, slot), (sizes.shape[0], widest), padding if padding.any() else None)

    def pad(self, rows: np.ndarray) -> np.ndarray:
        """The stacked ``rows`` as a zero-padded ``(segments, widest, dim)`` array."""
        padded = np.zeros(self.shape + rows.shape[1:], dtype=rows.dtype)
        padded[self.index] = rows
        return padded

    def unpad(self, padded: np.ndarray) -> np.ndarray:
        """The stacked rows of a ``(segments, widest, dim)`` result, in order."""
        return padded[self.index]


class CrossAttention:
    """Single-head cross-attention over aligned modalities.

    ``attend(queries, keys_values)`` returns, for each query token, a mixture
    of the key tokens weighted by softmax similarity.  The modalities share
    one concept space, so similarity is the plain dot product of the tokens.
    """

    def __init__(self, dim: int, temperature: float | None = None) -> None:
        # A Python float, so dividing float32 logits by it stays float32.
        self._temperature = float(temperature if temperature is not None else np.sqrt(dim))

    def attend(self, queries: np.ndarray, keys_values: np.ndarray) -> np.ndarray:
        """Cross-attend ``queries`` over ``keys_values``.

        Args:
            queries: ``(num_queries, dim)`` tokens.
            keys_values: ``(num_keys, dim)`` tokens.

        Returns:
            ``(num_queries, dim)`` attended representations.  When there are
            no key tokens the queries are returned unchanged.
        """
        return self.attend_segments(
            queries, (0, queries.shape[0]), keys_values, (0, keys_values.shape[0])
        )

    def attend_segments(
        self,
        queries: np.ndarray,
        query_bounds: Sequence[int],
        keys_values: np.ndarray,
        key_bounds: Sequence[int],
    ) -> np.ndarray:
        """Cross-attend stacked segments, each only over its own keys.

        Segment ``s`` is query rows ``query_bounds[s]:query_bounds[s + 1]``
        attending over key rows ``key_bounds[s]:key_bounds[s + 1]``.  All
        segments run as one batched product (see :meth:`attend_padded`), so
        no Python loop runs per segment.  With no key rows at all the queries
        are returned unchanged; otherwise every key segment must be non-empty.
        """
        query_segments, key_segments = Segments.of(query_bounds), Segments.of(key_bounds)
        return query_segments.unpad(self.attend_padded(
            query_segments.pad(queries), key_segments.pad(keys_values), key_segments.padding
        ))

    def attend_padded(
        self, queries: np.ndarray, keys: np.ndarray, key_padding: np.ndarray | None
    ) -> np.ndarray:
        """Attention of padded query segments over the same segments' padded keys.

        ``queries`` is ``(segments, widest query, dim)`` and ``keys``
        ``(segments, widest key, dim)``, with ``key_padding`` marking the
        padding keys (see :attr:`Segments.padding`); they get zero weight.
        Returns the ``(segments, widest query, dim)`` result, in the inputs'
        dtype; its padding rows are garbage.  With no key rows at all the
        queries are returned unchanged.
        """
        if keys.shape[1] == 0:
            return queries.copy()
        logits = queries @ keys.transpose(0, 2, 1)
        logits /= self._temperature
        if key_padding is not None:
            np.copyto(logits, -np.inf, where=key_padding[:, None, :])
        return softmax(logits, axis=-1) @ keys

    def attention_weights(self, queries: np.ndarray, keys_values: np.ndarray) -> np.ndarray:
        """The softmax attention matrix (used by tests and diagnostics)."""
        if keys_values.shape[0] == 0:
            return np.zeros((queries.shape[0], 0))
        return softmax(queries @ keys_values.T / self._temperature, axis=-1)


class FeedForward:
    """Two-layer position-wise MLP with a GELU-like nonlinearity, in float32.

    The weights are seeded float64 normals rounded to float32 once.  Rows run
    in zero-padded tiles of :data:`ROW_BLOCK` rows, so a row's output does not
    depend on how many rows are stacked with it or where it sits.  Input rows
    are rounded to float32 as they enter the tiles, and the output is float32.
    """

    def __init__(self, dim: int, hidden_dim: int, name: str, seed: int = 7) -> None:
        rng = rng_from_tokens("ffn", name, dim, hidden_dim, base_seed=seed)
        scale_in = 1.0 / np.sqrt(dim)
        scale_out = 1.0 / np.sqrt(hidden_dim)
        self._w_in = rng.normal(scale=scale_in, size=(dim, hidden_dim)).astype(np.float32)
        self._w_out = rng.normal(scale=scale_out, size=(hidden_dim, dim)).astype(np.float32)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the MLP token-wise; returns float32 rows."""
        num_rows, dim = x.shape
        num_tiles = -(-num_rows // ROW_BLOCK)
        tiles = np.zeros((num_tiles * ROW_BLOCK, dim), dtype=np.float32)
        tiles[:num_rows] = x
        # One fixed-shape product per tile (matmul runs each 2-D slice alone).
        hidden = tiles.reshape(num_tiles, ROW_BLOCK, dim) @ self._w_in
        # hidden * (1 / (1 + exp(-1.702 * hidden))), one operation at a time
        # in place: the same roundings with one temporary instead of four.
        gate = np.multiply(hidden, -1.702)
        np.exp(gate, out=gate)
        np.add(gate, 1.0, out=gate)
        np.divide(1.0, gate, out=gate)
        hidden *= gate
        out = hidden @ self._w_out
        return out.reshape(-1, dim)[:num_rows]


class CrossModalLayer:
    """One feature-enhancer layer: bidirectional cross-attention + MLPs.

    The image-to-text attention injects query-relevant semantics into the
    image tokens; the text-to-image attention grounds the text tokens in what
    is visible (paper §VI-B).  Residual connections keep the original concept
    content so repeated layers refine rather than replace it.  Tokens are
    float32 in and float32 out (see the module docstring).
    """

    def __init__(self, dim: int, hidden_dim: int, name: str, blend: float = 0.5, seed: int = 7) -> None:
        self._image_to_text = CrossAttention(dim)
        self._text_to_image = CrossAttention(dim)
        self._image_ffn = FeedForward(dim, hidden_dim, f"{name}/img_ffn", seed=seed)
        self._text_ffn = FeedForward(dim, hidden_dim, f"{name}/txt_ffn", seed=seed)
        self._blend = float(blend)

    def apply(
        self, image_tokens: np.ndarray, text_tokens: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run one enhancement round, returning updated (image, text) tokens."""
        return self.apply_segments(
            image_tokens, Segments.of((0, image_tokens.shape[0])),
            text_tokens, Segments.of((0, text_tokens.shape[0])),
        )

    def apply_segments(
        self,
        image_tokens: np.ndarray,
        image_segments: Segments,
        text_tokens: np.ndarray,
        text_segments: Segments,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One enhancement round over several stacked frames at once.

        Frame ``s`` owns segment ``s`` of the image rows and of the text rows
        (their :class:`Segments` layouts); attention never crosses frames,
        while the FFNs and layer norms are token-wise and run once over all
        rows.  Each side is padded once and the padded rows serve both
        attention directions.  The residual adds run in place.
        """
        image = image_segments.pad(image_tokens)
        text = text_segments.pad(text_tokens)
        enhanced_image = image_segments.unpad(
            self._image_to_text.attend_padded(image, text, text_segments.padding)
        )
        enhanced_image *= self._blend
        enhanced_image += image_tokens
        enhanced_text = text_segments.unpad(
            self._text_to_image.attend_padded(text, image, image_segments.padding)
        )
        enhanced_text *= self._blend
        enhanced_text += text_tokens
        return self._feed_forward(self._image_ffn, enhanced_image), self._feed_forward(
            self._text_ffn, enhanced_text
        )

    @staticmethod
    def _feed_forward(ffn: FeedForward, x: np.ndarray) -> np.ndarray:
        """``layer_norm(x + 0.1 * ffn.apply(x))``, the residual add in place."""
        out = ffn.apply(x)
        out *= 0.1
        out += x
        return layer_norm(out)
