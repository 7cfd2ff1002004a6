"""Behavioural tests for the baseline systems (VOCAL, MIRIS, FiGO, ZELDA, UMT, VISA)."""

from __future__ import annotations

import pytest

from repro.baselines import (
    FiGOBaseline,
    HybridBaseline,
    MIRISBaseline,
    UMTBaseline,
    VISABaseline,
    VOCALBaseline,
    ZELDABaseline,
)
from repro.config import EncoderConfig
from repro.errors import QueryError, UnsupportedQueryError
from repro.eval.metrics import evaluate_results
from repro.eval.workloads import build_ground_truth, query_by_id

SMALL_ENCODER = EncoderConfig(embedding_dim=64, class_embedding_dim=32, patch_grid=6)


def ingested(cls, dataset, **kwargs):
    baseline = cls(SMALL_ENCODER, **kwargs)
    baseline.ingest(dataset)
    return baseline


class TestBaselineInterface:
    def test_query_before_ingest_raises(self):
        with pytest.raises(QueryError):
            MIRISBaseline(SMALL_ENCODER).query("a car")

    @pytest.mark.parametrize("cls", [MIRISBaseline, FiGOBaseline, ZELDABaseline, UMTBaseline, VISABaseline])
    def test_query_returns_timed_response(self, cls, bellevue_small):
        baseline = ingested(cls, bellevue_small)
        response = baseline.query("A red car driving on the road.")
        assert "search" in response.timings
        assert response.metadata["system"] == baseline.name
        for result in response.results:
            assert result.source == baseline.name


class TestVOCAL:
    def test_supports_predefined_class_query(self, bellevue_small):
        vocal = ingested(VOCALBaseline, bellevue_small)
        response = vocal.query("A bus driving on the road.")
        assert response.results
        ground_truth = build_ground_truth(bellevue_small, query_by_id("Q2.3"))
        assert evaluate_results(response.results, ground_truth) > 0.2

    def test_rejects_attribute_query(self, bellevue_small):
        vocal = ingested(VOCALBaseline, bellevue_small)
        with pytest.raises(UnsupportedQueryError):
            vocal.query("A red car driving in the center of the road.")

    def test_rejects_open_vocabulary_class(self, qvhighlights_small):
        vocal = ingested(VOCALBaseline, qvhighlights_small)
        with pytest.raises(UnsupportedQueryError):
            vocal.query("A woman smiling sitting inside car.")

    def test_index_size_positive(self, bellevue_small):
        vocal = ingested(VOCALBaseline, bellevue_small)
        assert vocal.index_size() > 0

    def test_fast_queries(self, bellevue_small):
        vocal = ingested(VOCALBaseline, bellevue_small)
        response = vocal.query("A bus driving on the road.")
        assert response.search_seconds < 0.5


class TestMIRIS:
    def test_finds_described_objects(self, bellevue_small):
        miris = ingested(MIRISBaseline, bellevue_small, plan_configuration_passes=5)
        response = miris.query("A red car driving in the center of the road.")
        ground_truth = build_ground_truth(bellevue_small, query_by_id("Q2.1"))
        assert evaluate_results(response.results, ground_truth) > 0.1

    def test_plan_configuration_counted_as_processing(self, bellevue_small):
        miris = ingested(MIRISBaseline, bellevue_small, plan_configuration_passes=5)
        response = miris.query("A bus driving on the road.")
        assert "processing" in response.timings
        assert response.search_seconds < response.timings["processing"] + response.timings["search"] + 1e-6
        assert "processing" not in {"search"}  # search_seconds excludes processing by definition
        assert response.search_seconds == pytest.approx(response.timings["search"], rel=1e-6)


class TestFiGO:
    def test_scans_with_ensemble(self, bellevue_small):
        figo = ingested(FiGOBaseline, bellevue_small)
        response = figo.query("A red car driving in the center of the road.")
        assert response.results
        ground_truth = build_ground_truth(bellevue_small, query_by_id("Q2.1"))
        assert evaluate_results(response.results, ground_truth) > 0.1

    def test_search_slower_than_zelda(self, bellevue_small):
        figo = ingested(FiGOBaseline, bellevue_small)
        zelda = ingested(ZELDABaseline, bellevue_small)
        figo_time = figo.query("A bus driving on the road.").search_seconds
        zelda_time = zelda.query("A bus driving on the road.").search_seconds
        assert figo_time > zelda_time


class TestZELDA:
    def test_preprocessing_dominates(self, bellevue_small):
        zelda = ingested(ZELDABaseline, bellevue_small)
        response = zelda.query("A bus driving on the road.")
        assert zelda.phase_seconds.value(phase="processing") > response.search_seconds

    def test_reasonable_accuracy_on_simple_query(self, bellevue_small):
        zelda = ingested(ZELDABaseline, bellevue_small)
        response = zelda.query("A bus driving on the road.")
        ground_truth = build_ground_truth(bellevue_small, query_by_id("Q2.3"))
        assert evaluate_results(response.results, ground_truth) > 0.1


class TestUMTAndVISA:
    def test_umt_returns_moment_level_results(self, bellevue_small):
        umt = ingested(UMTBaseline, bellevue_small)
        response = umt.query("A bus driving on the road.")
        assert response.results

    def test_visa_better_on_daily_life_than_traffic(self, bellevue_small, qvhighlights_small):
        visa_traffic = ingested(VISABaseline, bellevue_small, llm_reasoning_repeats=1)
        visa_daily = ingested(VISABaseline, qvhighlights_small, llm_reasoning_repeats=1)
        traffic_ap = evaluate_results(
            visa_traffic.query("A red car driving in the center of the road.").results,
            build_ground_truth(bellevue_small, query_by_id("Q2.1")),
        )
        daily_ap = evaluate_results(
            visa_daily.query("A woman smiling sitting inside car.").results,
            build_ground_truth(qvhighlights_small, query_by_id("Q3.1")),
        )
        assert daily_ap > traffic_ap


class TestHybrid:
    def test_uses_index_when_possible(self, bellevue_small):
        hybrid = ingested(HybridBaseline, bellevue_small)
        response = hybrid.query("A bus driving on the road.")
        assert response.results
        assert response.search_seconds < 0.5

    def test_falls_back_to_search_for_complex_queries(self, bellevue_small):
        hybrid = ingested(HybridBaseline, bellevue_small)
        response = hybrid.query("A red car driving in the center of the road.")
        assert response.results
