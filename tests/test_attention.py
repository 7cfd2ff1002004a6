"""Tests for the NumPy transformer primitives."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoders.attention import (
    _FFN_TILE_ROWS,
    CrossAttention,
    CrossModalLayer,
    FeedForward,
    layer_norm,
    softmax,
)


class TestPrimitives:
    def test_softmax_rows_sum_to_one(self):
        logits = np.random.default_rng(0).normal(size=(5, 7))
        probabilities = softmax(logits)
        np.testing.assert_allclose(probabilities.sum(axis=-1), np.ones(5))
        assert (probabilities >= 0).all()

    def test_softmax_handles_large_logits(self):
        probabilities = softmax(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(probabilities, [[0.5, 0.5]])

    def test_layer_norm_statistics(self):
        x = np.random.default_rng(1).normal(loc=3.0, scale=2.0, size=(4, 16))
        normalised = layer_norm(x)
        np.testing.assert_allclose(normalised.mean(axis=-1), np.zeros(4), atol=1e-8)
        np.testing.assert_allclose(normalised.std(axis=-1), np.ones(4), atol=1e-3)



class TestCrossAttention:
    def test_rotating_both_inputs_leaves_attention_unchanged(self):
        """Aligned modalities need no projection: an orthonormal Q applied to
        both sides keeps every similarity, so the weights stay put and the
        output turns with the inputs."""
        rng = np.random.default_rng(2)
        rotation, _ = np.linalg.qr(rng.normal(size=(16, 16)))
        queries = rng.normal(size=(4, 16))
        keys = rng.normal(size=(7, 16))
        attention = CrossAttention(dim=16)
        np.testing.assert_allclose(
            attention.attention_weights(queries @ rotation, keys @ rotation),
            attention.attention_weights(queries, keys),
            rtol=0, atol=1e-12,
        )
        np.testing.assert_allclose(
            attention.attend(queries @ rotation, keys @ rotation),
            attention.attend(queries, keys) @ rotation,
            rtol=0, atol=1e-12,
        )

    def test_output_shape(self):
        attention = CrossAttention(dim=16)
        queries = np.random.default_rng(0).normal(size=(3, 16))
        keys = np.random.default_rng(1).normal(size=(5, 16))
        assert attention.attend(queries, keys).shape == (3, 16)

    def test_empty_keys_returns_queries(self):
        attention = CrossAttention(dim=8)
        queries = np.random.default_rng(0).normal(size=(2, 8))
        np.testing.assert_allclose(attention.attend(queries, np.zeros((0, 8))), queries)

    def test_attention_weights_focus_on_similar_key(self):
        attention = CrossAttention(dim=8, temperature=0.1)
        query = np.zeros((1, 8)); query[0, 0] = 1.0
        matching = np.zeros(8); matching[0] = 1.0
        distractor = np.zeros(8); distractor[1] = 1.0
        weights = attention.attention_weights(query, np.stack([matching, distractor]))
        assert weights.shape == (1, 2)
        assert weights[0, 0] > weights[0, 1]

    def test_attended_output_moves_toward_values(self):
        attention = CrossAttention(dim=8, temperature=0.05)
        query = np.zeros((1, 8)); query[0, 0] = 1.0
        value = np.zeros((1, 8)); value[0, 0] = 1.0
        attended = attention.attend(query, value)
        assert float((attended @ value[0])[0]) > 0.9


class TestLayers:
    def test_feed_forward_shape_and_determinism(self):
        ffn = FeedForward(dim=16, hidden_dim=32, name="f")
        x = np.random.default_rng(0).normal(size=(4, 16))
        out = ffn.apply(x)
        assert out.shape == (4, 16)
        np.testing.assert_allclose(out, FeedForward(16, 32, "f").apply(x))
        assert out.dtype == np.float64

    @given(
        num_rows=st.integers(1, 4 * _FFN_TILE_ROWS + 37),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_feed_forward_row_bits_do_not_depend_on_the_stack(self, num_rows, data):
        """A row's output is the same bits in any stack, at any offset."""
        ffn = FeedForward(dim=128, hidden_dim=256, name="enhancer0/img_ffn")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        stack = np.random.default_rng(seed).normal(size=(num_rows, 128))
        start = data.draw(st.integers(0, num_rows - 1), label="start")
        stop = data.draw(st.integers(start + 1, num_rows), label="stop")
        np.testing.assert_array_equal(ffn.apply(stack[start:stop]), ffn.apply(stack)[start:stop])

    def test_cross_modal_layer_shapes(self):
        layer = CrossModalLayer(dim=16, hidden_dim=32, name="layer0")
        image = np.random.default_rng(0).normal(size=(6, 16))
        text = np.random.default_rng(1).normal(size=(3, 16))
        new_image, new_text = layer.apply(image, text)
        assert new_image.shape == image.shape
        assert new_text.shape == text.shape

    def test_cross_modal_layer_changes_representations(self):
        layer = CrossModalLayer(dim=16, hidden_dim=32, name="layer0")
        image = np.random.default_rng(0).normal(size=(6, 16))
        text = np.random.default_rng(1).normal(size=(3, 16))
        new_image, _new_text = layer.apply(image, text)
        assert not np.allclose(new_image, image)
