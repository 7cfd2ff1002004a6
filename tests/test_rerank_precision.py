"""The rerank's layer stack runs in float32 end to end.

Spies on the primitives every layer runs — ``FeedForward.apply``,
``CrossAttention.attend_padded`` and ``layer_norm`` — during real queries and
asserts that every floating array they receive and return is float32 (the
attention's padding mask is bool), so no layer round-trips through float64.
The float32 path keeps every parity bar: batch = serial and snapshot = live
still compare ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LOVO
from repro.encoders import attention
from repro.eval.workloads import all_queries

TEXTS = [spec.text for spec in all_queries() if spec.query_id.startswith("Q")]


def float_dtypes(value) -> list:
    """Dtypes of the floating arrays in ``value`` (an array or a tuple of them)."""
    arrays = value if isinstance(value, tuple) else (value,)
    return [
        array.dtype
        for array in arrays
        if isinstance(array, np.ndarray) and not np.issubdtype(array.dtype, np.bool_)
    ]


@pytest.fixture
def spied(monkeypatch):
    """Records ``(primitive, dtypes of its array arguments and result)`` per call."""
    calls = []

    def spy(name, function):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            calls.append((name, float_dtypes(args) + float_dtypes(tuple(kwargs.values())),
                          float_dtypes(result)))
            return result
        return wrapper

    monkeypatch.setattr(
        attention.FeedForward, "apply", spy("ffn", attention.FeedForward.apply)
    )
    monkeypatch.setattr(
        attention.CrossAttention,
        "attend_padded",
        spy("attend_padded", attention.CrossAttention.attend_padded),
    )
    monkeypatch.setattr(attention, "layer_norm", spy("layer_norm", attention.layer_norm))
    return calls


class TestFloat32Contract:
    def test_every_layer_primitive_sees_only_float32(self, lovo_system, spied):
        lovo_system.query_batch(TEXTS)
        assert {name for name, _args, _result in spied} == {"ffn", "attend_padded", "layer_norm"}
        for name, args, result in spied:
            assert args and all(dtype == np.float32 for dtype in args), (name, args)
            assert result == [np.float32], (name, result)

    def test_batch_equals_serial(self, lovo_system):
        batch = lovo_system.query_batch(TEXTS)
        for text, response in zip(TEXTS, batch.responses):
            assert response.results == lovo_system.query(text).results, text

    def test_snapshot_equals_live(self, lovo_system, tmp_path):
        lovo_system.save(tmp_path / "snapshot")
        loaded = LOVO.load(tmp_path / "snapshot")
        for text in TEXTS:
            assert loaded.query(text).results == lovo_system.query(text).results, text
