"""Minimal NumPy transformer building blocks (attention, layer norm, MLP).

The cross-modality rerank model (paper §VI-B, Fig. 5) is a stack of feature
enhancer and decoder layers built around image↔text cross-attention.  These
primitives implement that machinery directly in NumPy.  Image and text
tokens already live in one aligned concept space, so attention needs no
query, key or value projection: it compares and mixes the tokens themselves.

Attention over several stacked frames pads every frame's rows to the widest
frame and runs one batched product; a :class:`CrossModalLayer` pads each
side once per layer, and both attention directions read the same padded
arrays.  The feed-forward MLPs run in float32 over zero-padded tiles of
:data:`_FFN_TILE_ROWS` rows, so every matrix product has one fixed shape and
a row's output is the same bits whichever rows are stacked around it.

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


#: Rows of one feed-forward tile.  Every FFN matrix product runs on exactly
#: this many rows (the input is zero-padded to whole tiles), so BLAS picks the
#: same kernel and reduction order for a row wherever it sits in a stack.
_FFN_TILE_ROWS = 64


class _Padded(NamedTuple):
    """Stacked segments zero-padded to the widest: segment ``s`` is ``rows[s]``."""

    rows: np.ndarray  # (segments, widest, dim)
    sizes: np.ndarray  # (segments,) real rows of each segment
    index: tuple[np.ndarray, np.ndarray]  # (segment, slot) of every stacked row, in order

    def unpad(self, padded: np.ndarray) -> np.ndarray:
        """The stacked rows of a ``(segments, widest, dim)`` result, in order."""
        return padded[self.index]


def _pad_segments(rows: np.ndarray, bounds: Sequence[int]) -> _Padded:
    """Stack segment ``s`` (rows ``bounds[s]:bounds[s + 1]``) as ``padded.rows[s]``."""
    starts = np.asarray(bounds[:-1])
    sizes = np.diff(bounds)
    segment = np.repeat(np.arange(sizes.shape[0]), sizes)
    slot = np.arange(rows.shape[0]) - starts[segment]
    padded = np.zeros((sizes.shape[0], sizes.max(initial=0), rows.shape[1]))
    padded[segment, slot] = rows
    return _Padded(padded, sizes, (segment, slot))


class CrossAttention:
    """Single-head cross-attention over aligned modalities.

    ``attend(queries, keys_values)`` returns, for each query token, a mixture
    of the key tokens weighted by softmax similarity.  The modalities share
    one concept space, so similarity is the plain dot product of the tokens.
    """

    def __init__(self, dim: int, temperature: float | None = None) -> None:
        self._temperature = temperature if temperature is not None else float(np.sqrt(dim))

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
        padded_queries = _pad_segments(queries, query_bounds)
        return padded_queries.unpad(
            self.attend_padded(padded_queries, _pad_segments(keys_values, key_bounds))
        )

    def attend_padded(self, queries: _Padded, keys_values: _Padded) -> np.ndarray:
        """Attention of padded query segments over the same segments' padded keys.

        Returns the ``(segments, widest query, dim)`` result; its padding rows
        are garbage.  Padding keys get zero weight.  With no key rows at all
        the queries are returned unchanged.
        """
        keys = keys_values.rows
        if keys.shape[1] == 0:
            return queries.rows.copy()
        logits = queries.rows @ keys.transpose(0, 2, 1) / self._temperature
        key_padding = np.arange(keys.shape[1]) >= keys_values.sizes[:, None]
        if key_padding.any():
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
    in zero-padded tiles of :data:`_FFN_TILE_ROWS`, so a row's output does not
    depend on how many rows are stacked with it or where it sits.
    """

    def __init__(self, dim: int, hidden_dim: int, name: str, seed: int = 7) -> None:
        rng = rng_from_tokens("ffn", name, dim, hidden_dim, base_seed=seed)
        scale_in = 1.0 / np.sqrt(dim)
        scale_out = 1.0 / np.sqrt(hidden_dim)
        self._w_in = rng.normal(scale=scale_in, size=(dim, hidden_dim)).astype(np.float32)
        self._w_out = rng.normal(scale=scale_out, size=(hidden_dim, dim)).astype(np.float32)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the MLP token-wise; returns float64 rows."""
        num_rows, dim = x.shape
        num_tiles = -(-num_rows // _FFN_TILE_ROWS)
        tiles = np.zeros((num_tiles * _FFN_TILE_ROWS, dim), dtype=np.float32)
        tiles[:num_rows] = x
        # One fixed-shape product per tile (matmul runs each 2-D slice alone).
        hidden = tiles.reshape(num_tiles, _FFN_TILE_ROWS, dim) @ self._w_in
        # hidden * (1 / (1 + exp(-1.702 * hidden))), one operation at a time
        # in place: the same roundings with one temporary instead of four.
        gate = np.multiply(hidden, -1.702)
        np.exp(gate, out=gate)
        np.add(gate, 1.0, out=gate)
        np.divide(1.0, gate, out=gate)
        hidden *= gate
        out = hidden @ self._w_out
        return out.reshape(-1, dim)[:num_rows].astype(np.float64)


class CrossModalLayer:
    """One feature-enhancer layer: bidirectional cross-attention + MLPs.

    The image-to-text attention injects query-relevant semantics into the
    image tokens; the text-to-image attention grounds the text tokens in what
    is visible (paper §VI-B).  Residual connections keep the original concept
    content so repeated layers refine rather than replace it.
    """

    def __init__(self, dim: int, hidden_dim: int, name: str, blend: float = 0.5, seed: int = 7) -> None:
        self._image_to_text = CrossAttention(dim)
        self._text_to_image = CrossAttention(dim)
        self._image_ffn = FeedForward(dim, hidden_dim, f"{name}/img_ffn", seed=seed)
        self._text_ffn = FeedForward(dim, hidden_dim, f"{name}/txt_ffn", seed=seed)
        self._blend = blend

    def apply(
        self, image_tokens: np.ndarray, text_tokens: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run one enhancement round, returning updated (image, text) tokens."""
        return self.apply_segments(
            image_tokens, (0, image_tokens.shape[0]), text_tokens, (0, text_tokens.shape[0])
        )

    def apply_segments(
        self,
        image_tokens: np.ndarray,
        image_bounds: Sequence[int],
        text_tokens: np.ndarray,
        text_bounds: Sequence[int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """One enhancement round over several stacked frames at once.

        Frame ``s`` owns image rows ``image_bounds[s]:image_bounds[s + 1]``
        and text rows ``text_bounds[s]:text_bounds[s + 1]``; attention never
        crosses frames, while the FFNs and layer norms are token-wise and run
        once over all rows.  Each side is padded once and the padded rows
        serve both attention directions.  The residual adds run in place.
        """
        image = _pad_segments(image_tokens, image_bounds)
        text = _pad_segments(text_tokens, text_bounds)
        enhanced_image = image.unpad(self._image_to_text.attend_padded(image, text))
        enhanced_image *= self._blend
        enhanced_image += image_tokens
        enhanced_text = text.unpad(self._text_to_image.attend_padded(text, image))
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
