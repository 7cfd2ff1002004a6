"""Lloyd's k-means, used to train PQ codebooks and coarse quantizers.

The paper trains its product-quantization codebooks "using clustering
algorithms, such as Lloyd's iteration" (§V-B).  This is a plain NumPy
implementation with k-means++-style seeding, empty-cluster repair, and a
convergence tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import VectorDatabaseError


@dataclass(frozen=True)
class KMeansResult:
    """Result of a k-means run.

    Attributes:
        centroids: ``(k, dim)`` cluster centres.
        assignments: ``(n,)`` index of the centroid assigned to each point.
        inertia: Sum of squared distances of points to their centroids.
        iterations: Number of Lloyd iterations actually executed.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    iterations: int


def lloyd_kmeans(
    points: np.ndarray,
    num_clusters: int,
    max_iterations: int = 25,
    tolerance: float = 1e-6,
    seed: int = 0,
) -> KMeansResult:
    """Cluster ``points`` into ``num_clusters`` groups with Lloyd's algorithm.

    Args:
        points: ``(n, dim)`` data matrix.
        num_clusters: Number of clusters ``k``; silently reduced to ``n`` when
            there are fewer points than requested clusters.
        max_iterations: Upper bound on Lloyd iterations.
        tolerance: Relative inertia improvement below which iteration stops.
        seed: Seed for the k-means++ style initialisation.

    Returns:
        A :class:`KMeansResult`.
    """
    data = np.asarray(points, dtype=np.float64)
    if data.ndim != 2:
        raise VectorDatabaseError(f"points must be 2-D, got shape {data.shape}")
    num_points = data.shape[0]
    if num_points == 0:
        raise VectorDatabaseError("Cannot run k-means on an empty point set")
    k = min(num_clusters, num_points)
    rng = np.random.default_rng(seed)

    centroids = _plus_plus_init(data, k, rng)
    assignments = np.zeros(num_points, dtype=np.int64)
    previous_inertia = np.inf
    iterations = 0

    while iterations < max_iterations:
        iterations += 1
        distances = _squared_distances(data, centroids)
        assignments = distances.argmin(axis=1)
        inertia = float(distances[np.arange(num_points), assignments].sum())

        for cluster in range(k):
            members = data[assignments == cluster]
            if len(members) == 0:
                # Re-seed an empty cluster at the point farthest from its centroid.
                farthest = int(distances.min(axis=1).argmax())
                centroids[cluster] = data[farthest]
            else:
                centroids[cluster] = members.mean(axis=0)

        if previous_inertia - inertia <= tolerance * max(previous_inertia, 1e-12):
            previous_inertia = inertia
            break
        previous_inertia = inertia

    distances = _squared_distances(data, centroids)
    assignments = distances.argmin(axis=1)
    inertia = float(distances[np.arange(num_points), assignments].sum())
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=inertia,
        iterations=iterations,
    )


def _plus_plus_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids proportionally to distance.

    Each draw runs the steps of ``rng.choice(num_points, p=closest / total)``
    (inverse-CDF of one uniform sample) without its per-call validation of
    ``p``, so it picks the same points from the same stream.
    """
    num_points = data.shape[0]
    centroids = np.empty((k, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(num_points))
    centroids[0] = data[first]
    closest = ((data - centroids[0]) ** 2).sum(axis=1)
    for index in range(1, k):
        total = closest.sum()
        if total <= 0:
            choice = int(rng.integers(num_points))
        else:
            cdf = (closest / total).cumsum()
            cdf /= cdf[-1]
            choice = int(cdf.searchsorted(rng.random(), side="right"))
        centroids[index] = data[choice]
        distances = ((data - centroids[index]) ** 2).sum(axis=1)
        closest = np.minimum(closest, distances)
    return centroids


def _squared_distances(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances ``(n, k)``."""
    data_norms = (data ** 2).sum(axis=1, keepdims=True)
    centroid_norms = (centroids ** 2).sum(axis=1)
    cross = data @ centroids.T
    return np.maximum(data_norms + centroid_norms - 2.0 * cross, 0.0)
