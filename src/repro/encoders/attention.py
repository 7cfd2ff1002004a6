"""Minimal NumPy transformer building blocks (attention, layer norm, MLP).

The cross-modality rerank model (paper §VI-B, Fig. 5) is a stack of feature
enhancer and decoder layers built around image↔text cross-attention.  These
primitives implement that machinery directly in NumPy.  The "pretrained"
projection matrices are deterministic orthonormal matrices shared between the
query and key paths, which preserves the dot-product structure of the shared
concept space — the NumPy analogue of a model whose modalities were aligned
during pretraining.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.rng import rng_from_tokens


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def layer_norm(x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Layer normalisation over the last dimension (no learned affine)."""
    mean = x.mean(axis=-1, keepdims=True)
    variance = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(variance + eps)


def orthonormal_matrix(dim: int, name: str, seed: int = 7) -> np.ndarray:
    """Deterministic orthonormal ``dim x dim`` matrix keyed by ``name``."""
    rng = rng_from_tokens("orthonormal", name, dim, base_seed=seed)
    matrix = rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(matrix)
    return q


class CrossAttention:
    """Single-head cross-attention with aligned (shared) Q/K projections.

    ``attend(queries, keys_values)`` returns, for each query token, a mixture
    of the value tokens weighted by softmax similarity.  Because the query and
    key projections are the same orthonormal matrix, similarity in the
    projected space equals similarity in the input space — the alignment a
    pretrained cross-modal model provides.
    """

    def __init__(self, dim: int, name: str, temperature: float | None = None, seed: int = 7) -> None:
        self._dim = dim
        self._shared_qk = orthonormal_matrix(dim, f"{name}/qk", seed=seed)
        self._value = orthonormal_matrix(dim, f"{name}/v", seed=seed)
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
        attending over key rows ``key_bounds[s]:key_bounds[s + 1]``.  The
        projections run once over all rows and only the softmax runs per
        segment, so one segment gives exactly :meth:`attend`.  With no key
        rows at all the queries are returned unchanged; otherwise every key
        segment must be non-empty.
        """
        if keys_values.shape[0] == 0:
            return queries.copy()
        projected_q = queries @ self._shared_qk
        projected_k = keys_values @ self._shared_qk
        projected_v = keys_values @ self._value
        attended = np.empty_like(projected_q)
        segments = zip(query_bounds[:-1], query_bounds[1:], key_bounds[:-1], key_bounds[1:])
        for q0, q1, k0, k1 in segments:
            logits = projected_q[q0:q1] @ projected_k[k0:k1].T / self._temperature
            attended[q0:q1] = softmax(logits, axis=-1) @ projected_v[k0:k1]
        # Undo the value rotation so the output stays in the concept space.
        return attended @ self._value.T

    def attention_weights(self, queries: np.ndarray, keys_values: np.ndarray) -> np.ndarray:
        """The softmax attention matrix (used by tests and diagnostics)."""
        if keys_values.shape[0] == 0:
            return np.zeros((queries.shape[0], 0))
        projected_q = queries @ self._shared_qk
        projected_k = keys_values @ self._shared_qk
        logits = projected_q @ projected_k.T / self._temperature
        return softmax(logits, axis=-1)


class FeedForward:
    """Two-layer position-wise MLP with a GELU-like nonlinearity."""

    def __init__(self, dim: int, hidden_dim: int, name: str, seed: int = 7) -> None:
        rng = rng_from_tokens("ffn", name, dim, hidden_dim, base_seed=seed)
        scale_in = 1.0 / np.sqrt(dim)
        scale_out = 1.0 / np.sqrt(hidden_dim)
        self._w_in = rng.normal(scale=scale_in, size=(dim, hidden_dim))
        self._w_out = rng.normal(scale=scale_out, size=(hidden_dim, dim))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the MLP token-wise."""
        hidden = x @ self._w_in
        activated = hidden * (1.0 / (1.0 + np.exp(-1.702 * hidden)))
        return activated @ self._w_out


class CrossModalLayer:
    """One feature-enhancer layer: bidirectional cross-attention + MLPs.

    The image-to-text attention injects query-relevant semantics into the
    image tokens; the text-to-image attention grounds the text tokens in what
    is visible (paper §VI-B).  Residual connections keep the original concept
    content so repeated layers refine rather than replace it.
    """

    def __init__(self, dim: int, hidden_dim: int, name: str, blend: float = 0.5, seed: int = 7) -> None:
        self._image_to_text = CrossAttention(dim, f"{name}/i2t", seed=seed)
        self._text_to_image = CrossAttention(dim, f"{name}/t2i", seed=seed)
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
        once over all rows.
        """
        enhanced_image = image_tokens + self._blend * self._image_to_text.attend_segments(
            image_tokens, image_bounds, text_tokens, text_bounds
        )
        enhanced_text = text_tokens + self._blend * self._text_to_image.attend_segments(
            text_tokens, text_bounds, image_tokens, image_bounds
        )
        enhanced_image = layer_norm(
            enhanced_image + 0.1 * self._image_ffn.apply(enhanced_image)
        )
        enhanced_text = layer_norm(
            enhanced_text + 0.1 * self._text_ffn.apply(enhanced_text)
        )
        return enhanced_image, enhanced_text
