"""Tests for the LOVO core modules: summary, storage, query strategy, system."""

from __future__ import annotations

import numpy as np
import pytest

from repro import LOVO
from repro.config import QueryConfig
from repro.core.results import ObjectQueryResult, QueryResponse, merge_timings
from repro.core.storage import LOVOStorage
from repro.core.summary import VideoSummarizer
from repro.errors import MetadataError, QueryError, VectorDatabaseError
from repro.utils.geometry import BoundingBox, box_array
from repro.video.datasets import make_bellevue, make_cityscapes
from tests.conftest import small_config


class TestResults:
    def test_query_response_search_seconds_excludes_processing(self):
        response = QueryResponse(
            query="q",
            timings={"processing": 5.0, "fast_search": 0.1, "rerank": 0.4},
        )
        assert response.search_seconds == pytest.approx(0.5)

    def test_top_and_frames_ordering(self):
        results = [
            ObjectQueryResult("f1", "v", BoundingBox(0, 0, 0.1, 0.1), score=0.2),
            ObjectQueryResult("f2", "v", BoundingBox(0, 0, 0.1, 0.1), score=0.9),
            ObjectQueryResult("f2", "v", BoundingBox(0, 0, 0.1, 0.1), score=0.5),
        ]
        response = QueryResponse(query="q", results=results)
        assert response.top(1)[0].frame_id == "f2"
        assert response.frames() == ["f2", "f1"]

    def test_result_as_dict(self):
        result = ObjectQueryResult("f", "v", BoundingBox(0, 0, 0.1, 0.1), 0.5, "p", "lovo")
        payload = result.as_dict()
        assert payload["frame_id"] == "f"
        assert len(payload["box"]) == 4

    def test_merge_timings(self):
        merged = merge_timings({"a": 1.0}, {"a": 0.5, "b": 2.0})
        assert merged == {"a": 1.5, "b": 2.0}


class TestVideoSummarizer:
    def test_summary_counts(self, bellevue_small, tiny_config):
        summarizer = VideoSummarizer(tiny_config)
        output = summarizer.summarize(bellevue_small)
        assert output.total_frames == bellevue_small.num_frames
        assert 0 < output.num_keyframes < bellevue_small.num_frames
        patches_per_frame = tiny_config.encoder.patch_grid ** 2
        assert output.num_entities == output.num_keyframes * patches_per_frame
        assert set(output.frame_scene.values()) == {"bellevue"}

    def test_keyframes_subset_of_dataset(self, bellevue_small, tiny_config):
        output = VideoSummarizer(tiny_config).summarize(bellevue_small)
        all_ids = {frame.frame_id for frame in bellevue_small.iter_frames()}
        assert {frame.frame_id for frame in output.keyframes} <= all_ids

    def test_encode_single_frame(self, bellevue_small, tiny_config):
        summarizer = VideoSummarizer(tiny_config)
        frame = bellevue_small.videos[0].frames[0]
        arrays = summarizer.encode_single_frame(frame, scene="bellevue")
        num_patches = tiny_config.encoder.patch_grid ** 2
        assert arrays.embeddings.shape == (num_patches, tiny_config.encoder.embedding_dim)
        assert arrays.boxes.shape == (num_patches, 4)
        assert arrays.objectness.shape == (num_patches,)
        # The same rows, bit for bit, as the records ingest stores.
        encodings = summarizer.vision_encoder.encode_frame(frame, scene="bellevue")
        np.testing.assert_array_equal(
            arrays.embeddings, np.stack([encoding.embedding for encoding in encodings])
        )
        np.testing.assert_array_equal(
            arrays.boxes, box_array([encoding.box for encoding in encodings])
        )
        np.testing.assert_array_equal(
            arrays.objectness, [encoding.objectness for encoding in encodings]
        )


class TestStorage:
    def build_storage(self, bellevue_small, tiny_config):
        summarizer = VideoSummarizer(tiny_config)
        output = summarizer.summarize(bellevue_small)
        storage = LOVOStorage(dim=tiny_config.encoder.class_embedding_dim,
                              index_config=tiny_config.index)
        storage.ingest(output.keyframes, output.encodings)
        return storage, output

    def test_ingest_and_search(self, bellevue_small, tiny_config):
        storage, output = self.build_storage(bellevue_small, tiny_config)
        assert storage.num_entities == output.num_entities
        probe = max(output.encodings, key=lambda encoding: encoding.objectness)
        hits = storage.search(probe.class_embedding, 10)
        assert len(hits) == 10
        assert any(hit.id == probe.patch_id for hit in hits)

    def test_exhaustive_search_flag(self, bellevue_small, tiny_config):
        storage, output = self.build_storage(bellevue_small, tiny_config)
        query = output.encodings[10].class_embedding
        exact = storage.search(query, 1, use_ann=False)
        assert exact[0].id == output.encodings[10].patch_id

    @pytest.mark.parametrize("use_ann", [True, False])
    def test_hits_are_joined_to_their_metadata_rows(self, bellevue_small, tiny_config, use_ann):
        storage, output = self.build_storage(bellevue_small, tiny_config)
        queries = np.stack([encoding.class_embedding for encoding in output.encodings[:3]])
        for hits in storage.search_batch(queries, 20, use_ann=use_ann):
            assert len(hits) == 20
            for hit in hits:
                record = storage.patch_record(hit.id)
                assert hit.metadata == {"frame_id": record.frame_id, "video_id": record.video_id}

    def test_hit_without_metadata_row_raises(self, bellevue_small, tiny_config):
        storage, output = self.build_storage(bellevue_small, tiny_config)
        # A vector whose row was never written (ingest writes rows first).
        probe = output.encodings[0].class_embedding
        storage.collection.insert(["orphan"], probe[None, :])
        with pytest.raises(MetadataError, match="orphan"):
            storage.search(probe, storage.num_entities)

    def test_storage_report(self, bellevue_small, tiny_config):
        storage, _ = self.build_storage(bellevue_small, tiny_config)
        report = storage.storage_report()
        assert report["num_entities"] == storage.num_entities
        assert report["index_type"] == "ivfpq"

    def test_empty_ingest_rejected(self, tiny_config):
        storage = LOVOStorage(dim=tiny_config.encoder.class_embedding_dim)
        with pytest.raises(VectorDatabaseError):
            storage.ingest([], [])


class TestLOVOSystem:
    def test_query_before_ingest_raises(self):
        with pytest.raises(QueryError):
            LOVO(small_config()).query("a red car")

    def test_end_to_end_query(self, lovo_system):
        response = lovo_system.query("A red car driving in the center of the road.")
        assert response.results
        assert "fast_search" in response.timings
        assert "rerank" in response.timings
        assert response.metadata["rerank_enabled"] is True
        for result in response.results:
            assert result.frame_id
            assert 0.0 <= result.box.clipped().x <= 1.0

    def test_results_sorted_by_score(self, lovo_system):
        response = lovo_system.query("A bus driving on the road.")
        scores = [result.score for result in sorted(response.results, key=lambda r: -r.score)]
        assert scores == sorted(scores, reverse=True)

    def test_rerank_disabled_path(self, bellevue_small):
        config = small_config().with_overrides(query=QueryConfig(rerank_enabled=False))
        system = LOVO(config)
        system.ingest(bellevue_small)
        response = system.query("A red car driving in the center of the road.")
        assert response.results
        assert "rerank" not in response.timings
        assert all(result.source == "lovo-fast" for result in response.results)

    def test_ann_disabled_path(self, bellevue_small):
        config = small_config().with_overrides(query=QueryConfig(ann_enabled=False))
        system = LOVO(config)
        system.ingest(bellevue_small)
        response = system.query("A bus driving on the road.")
        assert response.results
        assert response.metadata["ann_enabled"] is False

    def test_time_distribution_keys(self, lovo_system):
        distribution = lovo_system.time_distribution()
        assert set(distribution) == {"processing", "rerank", "indexing_fast_search"}
        assert distribution["processing"] > 0
        assert distribution["indexing_fast_search"] > 0
        # One processing and one indexing interval per ingest.
        assert lovo_system.timer.counts["processing"] == 1
        assert lovo_system.timer.counts["indexing"] == 1

    def test_storage_report_and_counts(self, lovo_system, bellevue_small, tiny_config):
        report = lovo_system.storage_report()
        assert report["num_entities"] == lovo_system.num_entities
        assert lovo_system.num_keyframes > 0
        assert lovo_system.ingested_datasets == [bellevue_small.name]

    def test_second_ingest_leaves_the_first_summary_alone(self, tmp_path):
        system = LOVO(small_config())
        first = system.ingest(make_bellevue(num_videos=1, frames_per_video=60))
        counts = (first.num_keyframes, first.num_entities, first.frames_processed,
                  first.total_frames, dict(first.frame_scene))
        second = system.ingest(make_cityscapes(num_videos=1, frames_per_video=60))
        assert (first.num_keyframes, first.num_entities, first.frames_processed,
                first.total_frames, dict(first.frame_scene)) == counts
        assert system.num_keyframes == first.num_keyframes + second.num_keyframes
        system.save(tmp_path / "snap")
        assert LOVO.load(tmp_path / "snap").num_keyframes == system.num_keyframes

    def test_incremental_ingest_grows_index(self, tiny_config):
        system = LOVO(small_config())
        system.ingest(make_bellevue(num_videos=1, frames_per_video=60))
        first_count = system.num_entities
        system.ingest(make_bellevue(num_videos=1, frames_per_video=60, seed=1))
        assert system.num_entities > first_count
        response = system.query("A red car driving on the road.")
        assert response.results
