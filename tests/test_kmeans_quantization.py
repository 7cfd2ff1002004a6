"""Tests for Lloyd's k-means and product quantization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionMismatchError, IndexNotBuiltError, VectorDatabaseError
from repro.vectordb.kmeans import _plus_plus_init, lloyd_kmeans
from repro.vectordb.quantization import ProductQuantizer


def choice_plus_plus_init(data, k, rng):
    """k-means++ seeding drawn with ``Generator.choice``, the reference."""
    num_points = data.shape[0]
    centroids = np.empty((k, data.shape[1]))
    centroids[0] = data[int(rng.integers(num_points))]
    closest = ((data - centroids[0]) ** 2).sum(axis=1)
    for index in range(1, k):
        total = closest.sum()
        if total <= 0:
            choice = int(rng.integers(num_points))
        else:
            choice = int(rng.choice(num_points, p=closest / total))
        centroids[index] = data[choice]
        closest = np.minimum(closest, ((data - centroids[index]) ** 2).sum(axis=1))
    return centroids


def reconstruction_error(quantizer: ProductQuantizer, vectors: np.ndarray) -> float:
    """Mean squared error of ``vectors`` encoded and decoded by ``quantizer``."""
    reconstructed = quantizer.decode(quantizer.encode(vectors))
    return float(((vectors - reconstructed) ** 2).sum(axis=1).mean())


def clustered_data(num_clusters=4, points_per_cluster=50, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=5.0, size=(num_clusters, dim))
    points = np.concatenate([
        center + rng.normal(scale=0.3, size=(points_per_cluster, dim)) for center in centers
    ])
    return points, centers


class TestKMeans:
    def test_finds_well_separated_clusters(self):
        points, centers = clustered_data()
        result = lloyd_kmeans(points, num_clusters=4, seed=1)
        assert result.centroids.shape == (4, 8)
        # Every true centre should have a learned centroid nearby.
        for center in centers:
            distances = np.linalg.norm(result.centroids - center, axis=1)
            assert distances.min() < 1.0

    def test_assignments_valid(self):
        points, _ = clustered_data()
        result = lloyd_kmeans(points, num_clusters=4)
        assert result.assignments.shape == (points.shape[0],)
        assert result.assignments.min() >= 0
        assert result.assignments.max() < 4

    def test_inertia_decreases_with_more_clusters(self):
        points, _ = clustered_data()
        few = lloyd_kmeans(points, num_clusters=2, seed=0)
        many = lloyd_kmeans(points, num_clusters=8, seed=0)
        assert many.inertia < few.inertia

    def test_clusters_capped_at_num_points(self):
        points = np.random.default_rng(0).normal(size=(3, 4))
        result = lloyd_kmeans(points, num_clusters=10)
        assert result.centroids.shape[0] == 3

    def test_empty_input_rejected(self):
        with pytest.raises(VectorDatabaseError):
            lloyd_kmeans(np.zeros((0, 4)), num_clusters=2)

    def test_non_2d_rejected(self):
        with pytest.raises(VectorDatabaseError):
            lloyd_kmeans(np.zeros(10), num_clusters=2)

    def test_deterministic_given_seed(self):
        points, _ = clustered_data()
        first = lloyd_kmeans(points, num_clusters=4, seed=5)
        second = lloyd_kmeans(points, num_clusters=4, seed=5)
        np.testing.assert_allclose(first.centroids, second.centroids)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_plus_plus_draws_match_generator_choice(self, seed):
        rng = np.random.default_rng(100 + seed)
        # Duplicate points drive the remaining distance mass to zero, which
        # takes the uniform fallback draw too.
        data = np.concatenate([rng.normal(size=(300, 8)), np.zeros((40, 8))])
        for k in (16, 256, data.shape[0]):
            got = _plus_plus_init(data, k, np.random.default_rng(seed))
            want = choice_plus_plus_init(data, k, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, want)

    @given(st.integers(2, 6), st.integers(10, 60))
    @settings(max_examples=20, deadline=None)
    def test_inertia_non_negative_and_assignment_consistent(self, k, n):
        rng = np.random.default_rng(k * 100 + n)
        points = rng.normal(size=(n, 5))
        result = lloyd_kmeans(points, num_clusters=k, seed=0)
        assert result.inertia >= 0.0
        recomputed = ((points - result.centroids[result.assignments]) ** 2).sum()
        assert recomputed == pytest.approx(result.inertia, rel=1e-6)


class TestProductQuantizer:
    def unit_vectors(self, n=200, dim=32, seed=0):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n, dim))
        return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)

    def test_requires_training_before_use(self):
        quantizer = ProductQuantizer(num_subspaces=4, num_centroids=8)
        with pytest.raises(IndexNotBuiltError):
            quantizer.encode(self.unit_vectors())
        with pytest.raises(IndexNotBuiltError):
            _ = quantizer.dim

    def test_invalid_parameters(self):
        with pytest.raises(VectorDatabaseError):
            ProductQuantizer(num_subspaces=0, num_centroids=8)
        with pytest.raises(VectorDatabaseError):
            ProductQuantizer(num_subspaces=4, num_centroids=1)

    def test_dimension_must_divide(self):
        quantizer = ProductQuantizer(num_subspaces=5, num_centroids=8)
        with pytest.raises(DimensionMismatchError):
            quantizer.train(self.unit_vectors(dim=32))

    def test_codes_shape_and_range(self):
        vectors = self.unit_vectors()
        quantizer = ProductQuantizer(num_subspaces=4, num_centroids=16)
        quantizer.train(vectors)
        codes = quantizer.encode(vectors)
        assert codes.shape == (vectors.shape[0], 4)
        assert codes.min() >= 0 and codes.max() < 16

    def test_reconstruction_reasonable(self):
        vectors = self.unit_vectors()
        quantizer = ProductQuantizer(num_subspaces=8, num_centroids=32)
        quantizer.train(vectors)
        assert reconstruction_error(quantizer, vectors) < 0.5

    def test_more_centroids_reduce_error(self):
        vectors = self.unit_vectors()
        small = ProductQuantizer(num_subspaces=4, num_centroids=4)
        big = ProductQuantizer(num_subspaces=4, num_centroids=64)
        small.train(vectors)
        big.train(vectors)
        assert reconstruction_error(big, vectors) < reconstruction_error(small, vectors)

    def test_adc_scores_approximate_exact(self):
        vectors = self.unit_vectors(n=300)
        quantizer = ProductQuantizer(num_subspaces=8, num_centroids=32)
        quantizer.train(vectors)
        codes = quantizer.encode(vectors)
        query = vectors[0]
        tables = quantizer.inner_product_tables(query)
        approximate = tables[np.arange(quantizer.num_subspaces), codes].sum(axis=1)
        exact = vectors @ query
        correlation = np.corrcoef(approximate, exact)[0, 1]
        assert correlation > 0.85

    def test_query_dimension_checked(self):
        quantizer = ProductQuantizer(num_subspaces=4, num_centroids=8)
        quantizer.train(self.unit_vectors())
        with pytest.raises(DimensionMismatchError):
            quantizer.inner_product_tables(np.zeros(16))

    def test_decode_shape_checked(self):
        quantizer = ProductQuantizer(num_subspaces=4, num_centroids=8)
        quantizer.train(self.unit_vectors())
        with pytest.raises(DimensionMismatchError):
            quantizer.decode(np.zeros((3, 5), dtype=np.int32))

    def test_codebooks_exposed_after_training(self):
        quantizer = ProductQuantizer(num_subspaces=4, num_centroids=8)
        quantizer.train(self.unit_vectors())
        assert len(quantizer.codebooks) == 4
        assert quantizer.codebooks[0].shape == (8, 8)
        assert quantizer.subspace_dim == 8
