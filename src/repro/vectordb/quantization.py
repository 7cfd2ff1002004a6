"""Product quantization (paper §V-B).

A ``D'``-dimensional class embedding is split into ``P`` subspaces of ``m``
dimensions each (``D' = P * m``); every subspace gets its own codebook of
``M`` centroids trained with Lloyd's k-means.  A vector is stored as ``P``
centroid indices (its PQ code), and asymmetric distance computation (ADC)
scores a query against codes through per-subspace lookup tables, exactly the
residual-and-lookup-table scheme Algorithm 1 describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

import numpy as np

from repro.errors import (
    DimensionMismatchError,
    IndexNotBuiltError,
    SnapshotCorruptionError,
    VectorDatabaseError,
)
from repro.vectordb.base import as_query_matrix
from repro.vectordb.kmeans import lloyd_kmeans


@dataclass
class ProductQuantizer:
    """Trains subspace codebooks and encodes/decodes vectors as PQ codes."""

    num_subspaces: int
    num_centroids: int
    kmeans_iterations: int = 15
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_subspaces <= 0:
            raise VectorDatabaseError("num_subspaces must be positive")
        if self.num_centroids <= 1:
            raise VectorDatabaseError("num_centroids must be at least 2")
        self._codebooks: List[np.ndarray] | None = None
        self._dim: int | None = None
        self._subdim: int | None = None

    @property
    def is_trained(self) -> bool:
        """Whether :meth:`train` has been called."""
        return self._codebooks is not None

    @property
    def dim(self) -> int:
        """Dimensionality of the vectors the quantizer was trained on."""
        if self._dim is None:
            raise IndexNotBuiltError("ProductQuantizer has not been trained")
        return self._dim

    @property
    def subspace_dim(self) -> int:
        """Dimensionality ``m`` of each subspace."""
        if self._subdim is None:
            raise IndexNotBuiltError("ProductQuantizer has not been trained")
        return self._subdim

    @property
    def codebooks(self) -> List[np.ndarray]:
        """Per-subspace codebooks, each of shape ``(num_centroids, m)``."""
        if self._codebooks is None:
            raise IndexNotBuiltError("ProductQuantizer has not been trained")
        return self._codebooks

    def train(self, vectors: np.ndarray) -> None:
        """Train one codebook per subspace with Lloyd's k-means."""
        data = np.asarray(vectors, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] == 0:
            raise VectorDatabaseError("Training data must be a non-empty 2-D array")
        dim = data.shape[1]
        if dim % self.num_subspaces != 0:
            raise DimensionMismatchError(
                f"Vector dimension {dim} is not divisible by num_subspaces {self.num_subspaces}"
            )
        self._dim = dim
        self._subdim = dim // self.num_subspaces
        codebooks: List[np.ndarray] = []
        for subspace in range(self.num_subspaces):
            columns = slice(subspace * self._subdim, (subspace + 1) * self._subdim)
            result = lloyd_kmeans(
                data[:, columns],
                num_clusters=self.num_centroids,
                max_iterations=self.kmeans_iterations,
                seed=self.seed + subspace,
            )
            centroids = result.centroids
            if centroids.shape[0] < self.num_centroids:
                # Pad degenerate codebooks (fewer points than centroids) by
                # repeating existing entries so code indices stay valid.
                repeats = int(np.ceil(self.num_centroids / centroids.shape[0]))
                centroids = np.tile(centroids, (repeats, 1))[: self.num_centroids]
            codebooks.append(centroids)
        self._codebooks = codebooks

    def to_state(self) -> Dict[str, np.ndarray]:
        """Trained codebooks as one ``(P, M, m)`` array for persistence."""
        return {"codebooks": np.stack(self.codebooks)}

    @classmethod
    def from_state(
        cls,
        arrays: Mapping[str, np.ndarray],
        num_subspaces: int,
        num_centroids: int,
        kmeans_iterations: int = 15,
        seed: int = 0,
    ) -> "ProductQuantizer":
        """Rebuild a trained quantizer from :meth:`to_state` output."""
        quantizer = cls(
            num_subspaces=num_subspaces,
            num_centroids=num_centroids,
            kmeans_iterations=kmeans_iterations,
            seed=seed,
        )
        stacked = np.asarray(arrays["codebooks"], dtype=np.float64)
        if stacked.ndim != 3 or stacked.shape[:2] != (num_subspaces, num_centroids):
            raise SnapshotCorruptionError(
                f"PQ codebooks must have shape ({num_subspaces}, {num_centroids}, m), "
                f"got {stacked.shape}"
            )
        quantizer._codebooks = [stacked[subspace] for subspace in range(num_subspaces)]
        quantizer._subdim = int(stacked.shape[2])
        quantizer._dim = quantizer._subdim * num_subspaces
        return quantizer

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Encode vectors into ``(n, P)`` arrays of centroid indices."""
        data = self._check_input(vectors)
        codes = np.empty((data.shape[0], self.num_subspaces), dtype=np.int32)
        for subspace, codebook in enumerate(self.codebooks):
            columns = slice(subspace * self.subspace_dim, (subspace + 1) * self.subspace_dim)
            block = data[:, columns]
            distances = (
                (block ** 2).sum(axis=1, keepdims=True)
                + (codebook ** 2).sum(axis=1)
                - 2.0 * block @ codebook.T
            )
            codes[:, subspace] = distances.argmin(axis=1)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors from PQ codes."""
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != self.num_subspaces:
            raise DimensionMismatchError(
                f"codes must have shape (n, {self.num_subspaces}), got {codes.shape}"
            )
        reconstruction = np.empty((codes.shape[0], self.dim), dtype=np.float64)
        for subspace, codebook in enumerate(self.codebooks):
            columns = slice(subspace * self.subspace_dim, (subspace + 1) * self.subspace_dim)
            reconstruction[:, columns] = codebook[codes[:, subspace]]
        return reconstruction

    def inner_product_tables(self, query: np.ndarray) -> np.ndarray:
        """ADC lookup tables of the query against every codebook entry.

        Returns an array of shape ``(P, num_centroids)`` whose entry
        ``[p, c]`` is the dot product between the query's ``p``-th subvector
        and centroid ``c`` of subspace ``p``.  Scoring a stored code is then a
        table lookup and a sum — the "distance lookup-table" of Algorithm 1.
        """
        vector = np.asarray(query, dtype=np.float64).reshape(-1)
        if vector.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"query has dimension {vector.shape[0]}, expected {self.dim}"
            )
        return self.inner_product_tables_batch(vector[None, :])[0]

    def inner_product_tables_batch(self, queries: np.ndarray) -> np.ndarray:
        """ADC lookup tables for ``m`` queries at once.

        Returns an array of shape ``(m, P, num_centroids)``; each subspace's
        tables for the whole batch come from a single matrix product against
        that subspace's codebook, which is how the batched IVF-PQ search
        amortises table construction across queries.
        """
        batch = as_query_matrix(queries, self.dim)
        tables = np.empty(
            (batch.shape[0], self.num_subspaces, self.num_centroids), dtype=np.float64
        )
        for subspace, codebook in enumerate(self.codebooks):
            columns = slice(subspace * self.subspace_dim, (subspace + 1) * self.subspace_dim)
            tables[:, subspace, :] = batch[:, columns] @ codebook.T
        return tables

    def _check_input(self, vectors: np.ndarray) -> np.ndarray:
        data = np.asarray(vectors, dtype=np.float64)
        if data.ndim == 1:
            data = data[None, :]
        if not self.is_trained:
            raise IndexNotBuiltError("ProductQuantizer has not been trained")
        if data.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"vectors have dimension {data.shape[1]}, expected {self.dim}"
            )
        return data
