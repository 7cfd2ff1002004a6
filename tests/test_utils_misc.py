"""Tests for deterministic RNG helpers and serialization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import derive_seed, rng_from_tokens, stable_shuffle
from repro.utils.serialization import load_arrays, load_json, save_arrays, save_json


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed("a", 1) == derive_seed("a", 1)

    def test_derive_seed_varies_with_tokens(self):
        assert derive_seed("a") != derive_seed("b")

    def test_derive_seed_varies_with_base_seed(self):
        assert derive_seed("a", base_seed=0) != derive_seed("a", base_seed=1)

    def test_rng_streams_reproducible(self):
        first = rng_from_tokens("x").normal(size=5)
        second = rng_from_tokens("x").normal(size=5)
        np.testing.assert_allclose(first, second)

    def test_rng_streams_independent(self):
        a = rng_from_tokens("x").normal(size=5)
        b = rng_from_tokens("y").normal(size=5)
        assert not np.allclose(a, b)

    def test_stable_shuffle_is_permutation_and_deterministic(self):
        items = list(range(20))
        shuffled = stable_shuffle(items, "key")
        assert sorted(shuffled) == items
        assert shuffled == stable_shuffle(items, "key")

    @given(st.lists(st.integers(), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_stable_shuffle_preserves_multiset(self, items):
        assert sorted(stable_shuffle(items, "k")) == sorted(items)

    def test_seed_non_negative(self):
        for token in ["a", "b", 123, ("x", "y")]:
            assert derive_seed(token) >= 0


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        payload = {"name": "lovo", "values": [1, 2, 3], "nested": {"pi": 3.14}}
        path = tmp_path / "sub" / "payload.json"
        save_json(path, payload)
        assert load_json(path) == payload

    def test_json_serialises_numpy_types(self, tmp_path):
        payload = {"int": np.int64(5), "float": np.float64(2.5), "array": np.arange(3)}
        path = tmp_path / "payload.json"
        save_json(path, payload)
        loaded = load_json(path)
        assert loaded["int"] == 5
        assert loaded["array"] == [0, 1, 2]

    def test_json_rejects_unknown_types(self, tmp_path):
        with pytest.raises(TypeError):
            save_json(tmp_path / "bad.json", {"obj": object()})

    def test_array_round_trip(self, tmp_path):
        arrays = {"a": np.arange(10, dtype=np.float64), "b": np.eye(3)}
        path = tmp_path / "arrays.npz"
        save_arrays(path, arrays)
        loaded = load_arrays(path)
        np.testing.assert_allclose(loaded["a"], arrays["a"])
        np.testing.assert_allclose(loaded["b"], arrays["b"])
