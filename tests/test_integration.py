"""End-to-end integration tests reproducing the paper's headline behaviours."""

from __future__ import annotations

import pytest

from repro import LOVO, LOVOConfig
from repro.config import EncoderConfig, IndexConfig, KeyframeConfig, QueryConfig
from repro.eval.metrics import evaluate_results
from repro.eval.workloads import build_ground_truth, queries_for_dataset, query_by_id
from tests.conftest import small_config


class TestLOVOAccuracy:
    def test_positive_avep_on_bellevue_queries(self, lovo_system, bellevue_small):
        evaluated = 0
        for spec in queries_for_dataset("bellevue"):
            ground_truth = build_ground_truth(bellevue_small, spec)
            if not ground_truth:
                # The reduced test dataset may lack instances for a query;
                # the full-size datasets are checked in test_datasets.py.
                continue
            response = lovo_system.query(spec.text)
            avep = evaluate_results(response.results, ground_truth)
            assert avep > 0.0, f"{spec.query_id} scored zero AveP"
            evaluated += 1
        assert evaluated >= 2

    def test_rerank_helps_relational_query(self, bellevue_small):
        spec = query_by_id("Q2.2")
        ground_truth = build_ground_truth(bellevue_small, spec)

        with_rerank = LOVO(small_config())
        with_rerank.ingest(bellevue_small)
        without_rerank = LOVO(small_config().with_overrides(query=QueryConfig(rerank_enabled=False)))
        without_rerank.ingest(bellevue_small)

        ap_with = evaluate_results(with_rerank.query(spec.text).results, ground_truth)
        ap_without = evaluate_results(without_rerank.query(spec.text).results, ground_truth)
        assert ap_with >= ap_without

    def test_open_vocabulary_query_runs(self, lovo_system):
        # "SUV" is outside the MSCOCO label set; LOVO should still return
        # ranked candidates rather than failing (QA-index methods cannot).
        response = lovo_system.query("A black SUV driving in the intersection of the road.")
        assert response.results


class TestLatencyShape:
    def test_fast_search_is_sub_100ms(self, lovo_system):
        response = lovo_system.query("A bus driving on the road.")
        assert response.timings["fast_search"] < 0.1

    def test_search_much_faster_than_qd_baseline(self, lovo_system, bellevue_small):
        from repro.baselines import FiGOBaseline

        figo = FiGOBaseline(EncoderConfig(embedding_dim=64, class_embedding_dim=32, patch_grid=6))
        figo.ingest(bellevue_small)
        query = "A red car driving in the center of the road."
        lovo_seconds = lovo_system.query(query).search_seconds
        figo_seconds = figo.query(query).search_seconds
        assert figo_seconds > lovo_seconds

    def test_rerank_cost_scales_with_candidates_not_dataset(self, bellevue_small):
        # A cap below the small system's key-frame count, so it binds on both.
        config = small_config().with_overrides(
            query=QueryConfig(fast_search_k=128, rerank_n=20, max_candidate_frames=5)
        )
        small_system = LOVO(config)
        small_system.ingest(bellevue_small.subset(60))
        big_system = LOVO(config)
        big_system.ingest(bellevue_small)
        assert big_system.num_keyframes > small_system.num_keyframes > 5

        query = "A red car driving in the center of the road."
        small_frames = small_system.query(query).metadata["num_candidates"]
        big_frames = big_system.query(query).metadata["num_candidates"]
        # Rerank touches at most max_candidate_frames frames, so its work
        # does not grow with the dataset: the bigger system reranks no more
        # frames than the smaller one.
        assert 0 < big_frames <= config.query.max_candidate_frames
        assert big_frames <= small_frames


class TestIndexVariants:
    @pytest.mark.parametrize("index_type", ["flat", "ivfpq", "hnsw"])
    def test_all_ann_variants_answer_queries(self, bellevue_small, index_type):
        config = LOVOConfig(
            encoder=EncoderConfig(embedding_dim=64, class_embedding_dim=32, patch_grid=6),
            keyframes=KeyframeConfig(strategy="uniform", uniform_stride=10),
            index=IndexConfig(index_type=index_type, num_subspaces=4, num_centroids=16,
                              num_coarse_clusters=8, nprobe=3),
            query=QueryConfig(fast_search_k=128, rerank_n=20, max_candidate_frames=30),
        )
        system = LOVO(config)
        system.ingest(bellevue_small)
        spec = query_by_id("Q2.1")
        ground_truth = build_ground_truth(bellevue_small, spec)
        avep = evaluate_results(system.query(spec.text).results, ground_truth)
        assert avep > 0.0

    def test_keyframe_ablation_increases_entities(self, bellevue_small):
        with_keyframes = LOVO(small_config())
        with_keyframes.ingest(bellevue_small)
        without_keyframes = LOVO(
            small_config().with_overrides(keyframes=KeyframeConfig(strategy="all"))
        )
        without_keyframes.ingest(bellevue_small.subset(60))
        per_frame = small_config().encoder.patch_grid ** 2
        assert without_keyframes.num_entities == 60 * per_frame
        assert with_keyframes.num_entities < bellevue_small.num_frames * per_frame
