"""Tests for the canonical v1 query API (:class:`QueryRequest` / :class:`QueryOptions`).

Covers validation, JSON wire round-trips, request coercion on every entry
point, options-aware cache keying, and the full HTTP round trip of a
``QueryRequest`` through the ``/v1`` endpoints.
"""

from __future__ import annotations

import json
import threading
import urllib.request
import warnings

import numpy as np
import pytest

from repro.config import LOVOConfig, QueryConfig, ServeConfig
from repro.core.query import (
    QueryOptions,
    QueryRequest,
    as_query_batch,
    as_query_request,
)
from repro.errors import QueryError
from repro.serve import ResultCache, ServingEngine
from repro.serve.http import make_server
from repro.vectordb.base import exact_scores


class TestQueryOptions:
    def test_defaults_resolve_from_config(self):
        config = QueryConfig()
        assert QueryOptions().resolved(config) == (
            config.fast_search_k,
            config.rerank_n,
        )

    def test_explicit_values_override_config(self):
        fast_k, top_n = QueryOptions(top_n=7, fast_search_k=33).resolved(QueryConfig())
        assert (fast_k, top_n) == (33, 7)

    @pytest.mark.parametrize("bad", [0, -3, 1.5, "5", True])
    def test_rejects_non_positive_ints(self, bad):
        with pytest.raises(QueryError):
            QueryOptions(top_n=bad)
        with pytest.raises(QueryError):
            QueryOptions(fast_search_k=bad)

    def test_json_round_trip(self):
        options = QueryOptions(top_n=9, fast_search_k=64)
        assert QueryOptions.from_dict(options.to_dict()) == options
        assert QueryOptions.from_dict(None) == QueryOptions()
        assert QueryOptions().to_dict() == {}

    def test_unknown_keys_rejected(self):
        with pytest.raises(QueryError, match="Unknown query option"):
            QueryOptions.from_dict({"depth": 3})

    def test_hashable_for_grouping(self):
        assert {QueryOptions(top_n=5), QueryOptions(top_n=5)} == {QueryOptions(top_n=5)}
        assert QueryOptions(top_n=5) != QueryOptions(top_n=6)


class TestQueryRequest:
    def test_rejects_empty_text(self):
        for bad in ("", "   ", 42, None):
            with pytest.raises(QueryError):
                QueryRequest(bad)

    def test_rejects_non_options(self):
        with pytest.raises(QueryError):
            QueryRequest("a car", options={"top_n": 5})

    def test_json_round_trip(self):
        request = QueryRequest("a red car", QueryOptions(top_n=5))
        wire = json.loads(json.dumps(request.to_dict()))
        assert QueryRequest.from_dict(wire) == request
        bare = QueryRequest("a red car")
        assert QueryRequest.from_dict(bare.to_dict()) == bare
        assert "options" not in bare.to_dict()

    @pytest.mark.parametrize(
        "payload",
        [
            {"query": "a car", "top_n": 5},
            {"query": "a car", "options": {"top_n": 3}, "top_n": 9},
            {"query": "a car", "options": {"top_n": 3}, "top_n": 3},
            {"query": "a car", "depth": 3},
        ],
    )
    def test_from_dict_rejects_unknown_fields(self, payload):
        # The legacy top-level "top_n" is gone: it must fail loudly rather
        # than be silently ignored.
        with pytest.raises(QueryError, match="Unknown query request field"):
            QueryRequest.from_dict(payload)


class TestCoercionShims:
    def test_string_passes_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            request = as_query_request("a car")
        assert request == QueryRequest("a car")

    def test_query_request_with_separate_options_rejected(self):
        with pytest.raises(QueryError, match="both"):
            as_query_request(QueryRequest("a car"), options=QueryOptions(top_n=5))

    def test_batch_coercion_merges_shared_options(self):
        texts, options = as_query_batch(
            ["a", QueryRequest("b", QueryOptions(top_n=5))],
            options=QueryOptions(top_n=5),
        )
        assert texts == ["a", "b"]
        assert options == QueryOptions(top_n=5)

    def test_batch_coercion_rejects_mixed_options(self):
        with pytest.raises(QueryError, match="share one QueryOptions"):
            as_query_batch(
                [
                    QueryRequest("a", QueryOptions(top_n=5)),
                    QueryRequest("b", QueryOptions(top_n=6)),
                ]
            )

    def test_batch_rejects_single_request(self):
        with pytest.raises(QueryError):
            as_query_batch("a car")
        with pytest.raises(QueryError):
            as_query_batch(QueryRequest("a car"))


class TestCacheKeying:
    def test_key_is_shim_invariant(self):
        config = QueryConfig()
        explicit = ResultCache.key_for(
            "a car", QueryOptions(top_n=config.rerank_n), config
        )
        defaulted = ResultCache.key_for("a car", QueryOptions(), config)
        assert explicit == defaulted

    def test_key_varies_with_options(self):
        config = QueryConfig()
        base = ResultCache.key_for("a car", QueryOptions(), config)
        assert ResultCache.key_for("a car", QueryOptions(top_n=3), config) != base
        assert (
            ResultCache.key_for("a car", QueryOptions(fast_search_k=7), config) != base
        )


class TestExactScoresDeterminism:
    """The fixed-tile GEMM invariance the sharded parity guarantee rests on."""

    def test_scores_are_subset_and_position_invariant(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(700, 24))
        queries = rng.normal(size=(11, 24))
        full = exact_scores(matrix, queries)
        for _trial in range(10):
            rows = np.sort(
                rng.choice(700, size=int(rng.integers(1, 700)), replace=False)
            )
            sub = exact_scores(np.ascontiguousarray(matrix[rows]), queries)
            assert np.array_equal(full[rows], sub)
        for i in range(queries.shape[0]):
            single = exact_scores(matrix, queries[i : i + 1])
            assert np.array_equal(full[:, i], single[:, 0])

    def test_empty_inputs(self):
        assert exact_scores(np.zeros((0, 8)), np.zeros((3, 8))).shape == (0, 3)
        assert exact_scores(np.zeros((5, 8)), np.zeros((0, 8))).shape == (5, 0)


@pytest.fixture(scope="module")
def tiny_system():
    from repro.core.system import LOVO
    from repro.video import make_bellevue

    system = LOVO(LOVOConfig())
    system.ingest(make_bellevue(num_videos=1, frames_per_video=30))
    return system


class TestEntryPointShims:
    def test_lovo_query_accepts_request_or_options(self, tiny_system):
        text = "A red car driving in the center of the road"
        via_request = tiny_system.query(QueryRequest(text, QueryOptions(top_n=5)))
        via_options = tiny_system.query(text, options=QueryOptions(top_n=5))
        assert [(r.frame_id, r.score) for r in via_request.results] == [
            (r.frame_id, r.score) for r in via_options.results
        ]
        with pytest.raises(TypeError):
            tiny_system.query(text, top_n=5)

    def test_lovo_query_batch_accepts_options(self, tiny_system):
        texts = ["A red car driving in the center of the road", "a car"]
        batch = tiny_system.query_batch(texts, options=QueryOptions(top_n=5))
        via_requests = tiny_system.query_batch(
            [QueryRequest(text, QueryOptions(top_n=5)) for text in texts]
        )
        assert [
            [(r.frame_id, r.score) for r in response.results]
            for response in batch.responses
        ] == [
            [(r.frame_id, r.score) for r in response.results]
            for response in via_requests.responses
        ]
        with pytest.raises(TypeError):
            tiny_system.query_batch(texts, top_n=5)

    def test_engine_submit_accepts_request(self, tiny_system):
        config = ServeConfig(num_workers=1, cache_size=16, max_wait_ms=1.0)
        text = "A red car driving in the center of the road"
        with ServingEngine(tiny_system, config) as engine:
            direct = engine.query(QueryRequest(text, QueryOptions(top_n=5)))
            via_options = engine.query(text, options=QueryOptions(top_n=5))
            with pytest.raises(TypeError):
                engine.submit(text, top_n=5)
        assert [(r.frame_id, r.score) for r in direct.results] == [
            (r.frame_id, r.score) for r in via_options.results
        ]
        # The second call hit the cache: a request and separate options
        # share a key.
        assert via_options.metadata.get("cache_hit") is True


class TestHTTPRoundTrip:
    @pytest.fixture()
    def base_url(self, tiny_system):
        engine = ServingEngine(
            tiny_system, ServeConfig(num_workers=1, max_wait_ms=1.0, cache_size=0)
        ).start()
        server = make_server(engine, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield f"http://{host}:{port}"
        finally:
            server.shutdown()
            server.server_close()
            engine.stop()

    def test_query_request_survives_http(self, base_url, tiny_system):
        request = QueryRequest(
            "A red car driving in the center of the road", QueryOptions(top_n=5)
        )
        http_request = urllib.request.Request(
            base_url + "/v1/query",
            data=json.dumps(request.to_dict()).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(http_request, timeout=30) as response:
            payload = json.load(response)
        direct = tiny_system.query(request)
        assert payload["query"] == request.text
        assert [(r["frame_id"], r["score"]) for r in payload["results"]] == [
            (r.frame_id, r.score) for r in direct.results
        ]
