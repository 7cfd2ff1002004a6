"""Validation tests for the configuration dataclasses and stored payloads."""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import repro
from repro.config import (
    RETIRED_FIELDS,
    SECTIONS,
    EncoderConfig,
    IndexConfig,
    KeyframeConfig,
    LOVOConfig,
    QueryConfig,
    parse_section,
)
from repro.errors import ConfigurationError
from tests.conftest import RETIRED_AT_OLD_DEFAULTS


class TestEncoderConfig:
    def test_defaults_valid(self):
        config = EncoderConfig()
        assert config.embedding_dim > config.class_embedding_dim

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ConfigurationError):
            EncoderConfig(embedding_dim=0)
        with pytest.raises(ConfigurationError):
            EncoderConfig(class_embedding_dim=0)

    def test_rejects_class_dim_larger_than_embedding(self):
        with pytest.raises(ConfigurationError):
            EncoderConfig(embedding_dim=32, class_embedding_dim=64)

    def test_rejects_bad_grid_and_noise(self):
        with pytest.raises(ConfigurationError):
            EncoderConfig(patch_grid=0)


class TestKeyframeConfig:
    def test_valid_strategies(self):
        for strategy in ("mvmed", "uniform", "content", "all"):
            assert KeyframeConfig(strategy=strategy).strategy == strategy

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            KeyframeConfig(strategy="magic")

    def test_bad_stride_rejected(self):
        with pytest.raises(ConfigurationError):
            KeyframeConfig(uniform_stride=0)


class TestIndexConfig:
    def test_defaults(self):
        config = IndexConfig()
        assert config.index_type == "flat"

    def test_unknown_index_type(self):
        with pytest.raises(ConfigurationError):
            IndexConfig(index_type="faiss")

    def test_nprobe_bounds(self):
        with pytest.raises(ConfigurationError):
            IndexConfig(num_coarse_clusters=4, nprobe=8)

    def test_bad_quantization_params(self):
        with pytest.raises(ConfigurationError):
            IndexConfig(num_subspaces=0)
        with pytest.raises(ConfigurationError):
            IndexConfig(num_centroids=1)


class TestQueryConfig:
    def test_defaults(self):
        config = QueryConfig()
        assert config.rerank_enabled and config.ann_enabled

    def test_bad_depths(self):
        with pytest.raises(ConfigurationError):
            QueryConfig(fast_search_k=0)
        with pytest.raises(ConfigurationError):
            QueryConfig(rerank_n=0)
        with pytest.raises(ConfigurationError):
            QueryConfig(max_candidate_frames=0)


class TestLOVOConfig:
    def test_with_overrides_replaces_only_given_parts(self):
        base = LOVOConfig()
        updated = base.with_overrides(query=QueryConfig(rerank_enabled=False))
        assert updated.query.rerank_enabled is False
        assert updated.encoder is base.encoder
        assert updated.index is base.index

    def test_default_composition(self):
        config = LOVOConfig()
        assert config.index.index_type == "flat"
        assert config.query.max_candidate_frames == 30
        assert config.keyframes.strategy == "mvmed"


# ---------------------------------------------------------------------------
# Stored payloads, retired fields, and dead knobs
# ---------------------------------------------------------------------------

class TestRetiredFields:
    def test_sections_hold_42_fields_and_no_retired_one(self):
        assert set(SECTIONS) == set(RETIRED_AT_OLD_DEFAULTS)
        assert sum(len(fields(cls)) for cls in SECTIONS.values()) == 42
        for name, cls in SECTIONS.items():
            names = {f.name for f in fields(cls)}
            assert names.isdisjoint(RETIRED_AT_OLD_DEFAULTS[name]), name

    def test_fixed_values_equal_the_old_defaults(self):
        assert RETIRED_FIELDS == RETIRED_AT_OLD_DEFAULTS
        assert sum(len(keys) for keys in RETIRED_FIELDS.values()) == 28

    def test_retired_key_at_fixed_value_is_dropped(self):
        payload = LOVOConfig().to_dict()
        for section, keys in RETIRED_AT_OLD_DEFAULTS.items():
            payload[section].update(keys)
        assert LOVOConfig.from_dict(payload) == LOVOConfig()
        stored = {"index_type": "flat", "kmeans_iterations": 12}
        assert parse_section("index", stored) == IndexConfig(index_type="flat")
        assert stored == {"index_type": "flat", "kmeans_iterations": 12}

    @pytest.mark.parametrize(
        "section, key, value",
        [("index", "kmeans_iterations", 20), ("obs", "slo_max_events", 1),
         ("shard", "max_parallel", 2), ("query", "iou_threshold", 0.7)],
    )
    def test_retired_key_at_other_value_is_rejected(self, section, key, value):
        fixed = RETIRED_AT_OLD_DEFAULTS[section][key]
        with pytest.raises(ConfigurationError) as caught:
            LOVOConfig.from_dict({section: {key: value}})
        message = str(caught.value)
        for part in (repr(section), key, repr(value), repr(fixed)):
            assert part in message

    def test_other_unknown_keys_still_rejected(self):
        with pytest.raises(ConfigurationError, match="unexpected keyword"):
            LOVOConfig.from_dict({"index": {"kmeans_iters": 12}})
        with pytest.raises(ConfigurationError, match="Unknown configuration sections"):
            LOVOConfig.from_dict({"tracing": {}})

    @pytest.mark.parametrize(
        "payload",
        [[], ["serve"], "encoder", None, {"serve": []}, {"obs": "enabled"}],
        ids=["empty-list", "list-of-section-names", "string", "null",
             "list-section", "string-section"],
    )
    def test_non_object_payload_is_a_configuration_error(self, payload):
        with pytest.raises(ConfigurationError, match="must be an object"):
            LOVOConfig.from_dict(payload)


def attribute_reads(root: Path) -> set:
    """Every ``x.<name>`` read in the package's modules except ``config.py``."""
    names = set()
    for path in root.rglob("*.py"):
        if path == root / "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_config_field_is_read_outside_config():
    """A field that nothing reads is a knob that silently does nothing."""
    reads = attribute_reads(Path(repro.__file__).parent)
    assert len(SECTIONS) == 8
    dead = [
        f"{cls.__name__}.{f.name}"
        for cls in SECTIONS.values()
        for f in fields(cls)
        if f.name not in reads
    ]
    assert dead == []
