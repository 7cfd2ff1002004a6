"""Tests for the NumPy transformer primitives."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoders.attention import (
    ROW_BLOCK,
    CrossAttention,
    CrossModalLayer,
    FeedForward,
    Segments,
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
        assert out.dtype == np.float32

    @given(
        num_rows=st.integers(1, 16 * ROW_BLOCK + 37),
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


def old_layer_norm(x, eps=1e-6):
    return (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + eps)


def old_feed_forward(ffn, x):
    """``FeedForward.apply`` with the activation as one expression (float32 out)."""
    num_rows, dim = x.shape
    num_tiles = -(-num_rows // ROW_BLOCK)
    tiles = np.zeros((num_tiles * ROW_BLOCK, dim), dtype=np.float32)
    tiles[:num_rows] = x
    hidden = tiles.reshape(num_tiles, ROW_BLOCK, dim) @ ffn._w_in
    activated = hidden * (1.0 / (1.0 + np.exp(-1.702 * hidden)))
    return (activated @ ffn._w_out).reshape(-1, dim)[:num_rows]


def old_pad(rows, bounds):
    sizes = np.diff(bounds)
    segment = np.repeat(np.arange(sizes.shape[0]), sizes)
    slot = np.arange(rows.shape[0]) - np.asarray(bounds[:-1])[segment]
    padded = np.zeros((sizes.shape[0], sizes.max(initial=0), rows.shape[1]), dtype=rows.dtype)
    padded[segment, slot] = rows
    return padded, (segment, slot)


def old_attend_segments(attention, queries, query_bounds, keys_values, key_bounds):
    """``attend_segments`` padding both of its own sides, masking by boolean index."""
    padded_queries, query_rows = old_pad(queries, query_bounds)
    padded_keys, _ = old_pad(keys_values, key_bounds)
    logits = padded_queries @ padded_keys.transpose(0, 2, 1) / attention._temperature
    key_padding = np.arange(padded_keys.shape[1]) >= np.diff(key_bounds)[:, None]
    logits[np.broadcast_to(key_padding[:, None, :], logits.shape)] = -np.inf
    return (softmax(logits, axis=-1) @ padded_keys)[query_rows]


def old_apply_segments(layer, image, image_bounds, text, text_bounds):
    """``CrossModalLayer.apply_segments`` with each attention direction
    padding its own inputs and the residuals as out-of-place expressions."""
    enhanced_image = image + layer._blend * old_attend_segments(
        layer._image_to_text, image, image_bounds, text, text_bounds
    )
    enhanced_text = text + layer._blend * old_attend_segments(
        layer._text_to_image, text, text_bounds, image, image_bounds
    )
    return (
        old_layer_norm(enhanced_image + 0.1 * old_feed_forward(layer._image_ffn, enhanced_image)),
        old_layer_norm(enhanced_text + 0.1 * old_feed_forward(layer._text_ffn, enhanced_text)),
    )


def bounds_of(sizes):
    return np.cumsum([0] + sizes).tolist()


class TestInPlaceArithmeticIsBitExact:
    """The in-place and shared-padding forms round exactly like the expressions they replaced."""

    @given(
        rows=st.integers(1, 40),
        dim=st.integers(1, 130),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**16),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_layer_norm(self, rows, dim, scale, seed, dtype):
        x = np.random.default_rng(seed).normal(loc=scale, scale=scale, size=(rows, dim))
        x = x.astype(dtype)
        normalised = layer_norm(x)
        assert normalised.dtype == dtype
        np.testing.assert_array_equal(normalised, old_layer_norm(x))

    @given(rows=st.integers(1, 8 * ROW_BLOCK + 5), seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_feed_forward_activation(self, rows, seed):
        ffn = FeedForward(dim=128, hidden_dim=256, name="decoder1/txt_ffn")
        x = np.random.default_rng(seed).normal(size=(rows, 128))
        np.testing.assert_array_equal(ffn.apply(x), old_feed_forward(ffn, x))

    @given(
        image_sizes=st.lists(st.integers(1, 20), min_size=1, max_size=6),
        text_rows=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_layer_shares_padding_between_directions(self, image_sizes, text_rows, seed):
        """One padding per side serving both directions equals each
        direction padding its own inputs, as ``attend_segments`` did."""
        layer = CrossModalLayer(dim=32, hidden_dim=64, name="enhancer0")
        rng = np.random.default_rng(seed)
        image = rng.normal(size=(sum(image_sizes), 32)).astype(np.float32)
        text = rng.normal(size=(text_rows * len(image_sizes), 32)).astype(np.float32)
        image_bounds = bounds_of(image_sizes)
        text_bounds = bounds_of([text_rows] * len(image_sizes))
        for got, want in zip(
            layer.apply_segments(
                image, Segments.of(image_bounds), text, Segments.of(text_bounds)
            ),
            old_apply_segments(layer, image, image_bounds, text, text_bounds),
        ):
            assert got.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(got, want)


class TestSegments:
    def test_layout(self):
        segments = Segments.of([0, 2, 5, 6])
        assert segments.shape == (3, 3)
        np.testing.assert_array_equal(segments.index[0], [0, 0, 1, 1, 1, 2])
        np.testing.assert_array_equal(segments.index[1], [0, 1, 0, 1, 2, 0])
        np.testing.assert_array_equal(
            segments.padding, [[False, False, True], [False, False, False], [False, True, True]]
        )
        rows = np.arange(12, dtype=np.float32).reshape(6, 2)
        padded = segments.pad(rows)
        assert padded.dtype == np.float32
        np.testing.assert_array_equal(padded[0, 2], [0.0, 0.0])
        np.testing.assert_array_equal(segments.unpad(padded), rows)

    def test_equal_segments_have_no_padding_mask(self):
        assert Segments.of([0, 4, 8]).padding is None
        assert Segments.of([0]).shape == (0, 0)

    def test_multiple_rounds_the_widest_up(self):
        segments = Segments.of([0, 3, 20], multiple=ROW_BLOCK)
        assert segments.shape == (2, 2 * ROW_BLOCK)
        assert segments.padding[1, 17:].all() and not segments.padding[1, :17].any()
        assert Segments.of([0, ROW_BLOCK], multiple=ROW_BLOCK).padding is None


class TestFloat32Layers:
    def test_layer_keeps_float32(self):
        layer = CrossModalLayer(dim=16, hidden_dim=32, name="layer0")
        rng = np.random.default_rng(4)
        image = rng.normal(size=(6, 16)).astype(np.float32)
        text = rng.normal(size=(3, 16)).astype(np.float32)
        assert [out.dtype for out in layer.apply(image, text)] == [np.float32, np.float32]
        assert softmax(image).dtype == np.float32

    @given(
        image_sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
        text_rows=st.integers(1, 6),
        duplicate=st.integers(0, 5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_image_rows_get_identical_bits(
        self, image_sizes, text_rows, duplicate, seed
    ):
        """Image segments padded to whole ``ROW_BLOCK`` blocks give
        a frame's identical image rows the same output at any slot."""
        frame = duplicate % len(image_sizes)
        image_bounds = bounds_of(image_sizes)
        rng = np.random.default_rng(seed)
        image = rng.normal(size=(image_bounds[-1], 64)).astype(np.float32)
        text = rng.normal(size=(text_rows * len(image_sizes), 64)).astype(np.float32)
        start, stop = image_bounds[frame], image_bounds[frame + 1]
        image[start:stop] = image[start]
        layer = CrossModalLayer(dim=64, hidden_dim=128, name="decoder0")
        out_image, _ = layer.apply_segments(
            image,
            Segments.of(image_bounds, multiple=ROW_BLOCK),
            text,
            Segments.of(bounds_of([text_rows] * len(image_sizes))),
        )
        for row in range(start + 1, stop):
            np.testing.assert_array_equal(out_image[row], out_image[start])
