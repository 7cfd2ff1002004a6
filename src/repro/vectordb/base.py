"""Common interface for ANN indexes (Flat, IVF-PQ, HNSW) and exact scoring."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import DimensionMismatchError, PersistenceError, VectorDatabaseError


@dataclass(frozen=True)
class IndexHit:
    """One search result: an internal integer id and its similarity score."""

    id: int
    score: float


def as_query_matrix(queries: np.ndarray, dim: int, context: str = "queries") -> np.ndarray:
    """Coerce a query batch to a float64 ``(m, dim)`` matrix or raise.

    A single 1-D vector is promoted to a batch of one.  Shared by every
    multi-query entry point (indexes, collections, the product quantizer) so
    batch-shape semantics cannot drift between layers.
    """
    batch = np.asarray(queries, dtype=np.float64)
    if batch.ndim == 1:
        batch = batch[None, :]
    if batch.ndim != 2 or batch.shape[1] != dim:
        raise DimensionMismatchError(
            f"Expected {context} of shape (m, {dim}), got {batch.shape}"
        )
    return batch


def as_single_query(query: np.ndarray) -> np.ndarray:
    """One query vector as a ``(1, n)`` batch, for the batch-of-one wrappers."""
    return np.asarray(query, dtype=np.float64).reshape(1, -1)


#: Fixed GEMM tile shape used by :func:`exact_scores`.  Every tile the BLAS
#: ever sees is exactly ``(_SCORE_ROW_BLOCK, dim) @ (dim, _SCORE_QUERY_BLOCK)``,
#: so kernel selection — and with it the floating-point reduction order —
#: cannot depend on how many vectors or queries a caller happens to hold.
_SCORE_ROW_BLOCK = 2048
_SCORE_QUERY_BLOCK = 8


def exact_scores(matrix: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Inner-product scores ``(num_vectors, num_queries)``, bit-deterministically.

    A plain ``queries @ matrix.T`` lets the BLAS pick its kernel from the
    operand shapes, and different kernels reduce over the shared dimension in
    different orders — so the same (vector, query) pair can score differently
    at the last ulp depending on how many *other* rows sit in the matrix.
    That breaks the sharded database's bit-exact-parity invariant: a shard
    holds a row-subset of the global matrix, so its scores must not depend on
    the subset's size.

    This helper instead runs the product in zero-padded tiles of one fixed
    shape.  Within a fixed-shape GEMM the result of each output element is
    position-independent (verified empirically for the padded-tile layout and
    pinned by the vectordb determinism tests), so every score depends only on
    the row and query contents — not on matrix size, query-batch size, or
    placement.  Zero rows/columns cost a bounded ~((block-1)/total) overhead
    only on the final tile.

    A float32 ``matrix`` (the stored corpus) is upcast one row tile at a
    time into a float64 buffer, never as a whole.  The upcast is exact, so
    the scores equal those of ``matrix.astype(np.float64)`` bit for bit.
    """
    num_rows, dim = matrix.shape
    num_queries = queries.shape[0]
    scores = np.empty((num_rows, num_queries), dtype=np.float64)
    query_tile = np.zeros((_SCORE_QUERY_BLOCK, dim), dtype=np.float64)
    upcast = matrix.dtype != np.float64
    row_tile: np.ndarray | None = None
    for q_start in range(0, num_queries, _SCORE_QUERY_BLOCK):
        q_stop = min(q_start + _SCORE_QUERY_BLOCK, num_queries)
        width = q_stop - q_start
        query_tile[:width] = queries[q_start:q_stop]
        query_tile[width:] = 0.0
        for r_start in range(0, num_rows, _SCORE_ROW_BLOCK):
            r_stop = min(r_start + _SCORE_ROW_BLOCK, num_rows)
            chunk = matrix[r_start:r_stop]
            rows = chunk.shape[0]
            if rows < _SCORE_ROW_BLOCK or upcast:
                if row_tile is None:
                    row_tile = np.empty((_SCORE_ROW_BLOCK, dim), dtype=np.float64)
                row_tile[:rows] = chunk
                row_tile[rows:] = 0.0
                tile = row_tile @ query_tile.T
            else:
                tile = chunk @ query_tile.T
            scores[r_start:r_stop, q_start:q_stop] = tile[:rows, :width]
    return scores


def exact_top_k(
    matrix: np.ndarray, queries: np.ndarray, k: int
) -> List[List[Tuple[int, float]]]:
    """Each query's ``k`` best rows of ``matrix`` as ``(row, score)`` pairs,
    best first, scored by :func:`exact_scores`.

    ``matrix`` must hold at least one row and ``k`` must be positive.
    """
    scores = exact_scores(matrix, queries).T
    k = min(k, matrix.shape[0])
    ranked: List[List[Tuple[int, float]]] = []
    for row in scores:
        top = np.argpartition(-row, k - 1)[:k]
        top = top[np.argsort(-row[top])]
        ranked.append(list(zip(top.tolist(), row[top].tolist())))
    return ranked


def lossless_float32(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as float32 when that holds every value exactly, else as is.

    Index snapshots write their raw vectors through this: rows that entered
    through a collection were rounded to float32 on insert and are stored
    in half the bytes, while a standalone index fed float64 keeps full
    precision, so a loaded index always scores exactly as the live one.
    """
    if matrix.dtype == np.float32:
        return matrix
    narrowed = matrix.astype(np.float32)
    return narrowed if np.array_equal(narrowed, matrix) else matrix


class VectorIndex(abc.ABC):
    """Abstract maximum-inner-product index over unit-norm vectors.

    All LOVO embeddings are L2-normalised, so maximum inner product equals
    maximum cosine similarity and minimum Euclidean distance (paper §V-A).
    """

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise VectorDatabaseError("Index dimensionality must be positive")
        self._dim = dim

    @property
    def dim(self) -> int:
        """Vector dimensionality accepted by the index."""
        return self._dim

    @property
    @abc.abstractmethod
    def ntotal(self) -> int:
        """Number of vectors stored in the index."""

    @abc.abstractmethod
    def add(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        """Insert vectors with the given integer ids."""

    @abc.abstractmethod
    def build(self) -> None:
        """Finalise the index (train quantizers, build graphs); idempotent."""

    def search(self, query: np.ndarray, k: int) -> List[IndexHit]:
        """Top-``k`` hits for one query vector: a batch of one."""
        return self.search_batch(as_single_query(query), k)[0]

    @abc.abstractmethod
    def search_batch(self, queries: np.ndarray, k: int) -> List[List[IndexHit]]:
        """Answer ``m`` queries at once; one hit list per query row.

        ``queries`` is an ``(m, dim)`` array (a 1-D vector is a batch of
        one).  Every index follows the same contract: a query of the wrong
        dimension raises :class:`DimensionMismatchError` whatever the index
        holds; ``k <= 0`` and an empty index both yield ``[]`` per row; and
        ``k > ntotal`` returns at most ``ntotal`` hits per row (approximate
        indexes may return fewer).
        """

    def to_state(self) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """Serialise the built index as ``(meta, arrays)``.

        ``meta`` is a JSON-serialisable dict whose ``"kind"`` key names the
        index family; ``arrays`` holds the NumPy payloads destined for an
        ``.npz`` archive.  Restoring with :meth:`from_state` must yield an
        index whose :meth:`search`/:meth:`search_batch` results are
        bit-identical to the original.  Implementations may finalise
        (:meth:`build`) the index first.
        """
        raise PersistenceError(
            f"{type(self).__name__} does not implement snapshot persistence"
        )

    @classmethod
    def from_state(
        cls,
        dim: int,
        config: object,
        meta: Mapping[str, object],
        arrays: Mapping[str, np.ndarray],
    ) -> "VectorIndex":
        """Rebuild an index from :meth:`to_state` output without re-ingesting."""
        raise PersistenceError(f"{cls.__name__} does not implement snapshot persistence")

    def _validate(self, vectors: np.ndarray, *, keep_float32: bool = False) -> np.ndarray:
        """``vectors`` as an ``(n, dim)`` float64 matrix, or float32 when they
        arrive as float32 and ``keep_float32`` is set (no copy either way
        when the dtype already fits)."""
        data = np.asarray(vectors)
        if not (keep_float32 and data.dtype == np.float32):
            data = data.astype(np.float64, copy=False)
        if data.ndim == 1:
            data = data[None, :]
        if data.shape[1] != self._dim:
            raise DimensionMismatchError(
                f"Expected vectors of dimension {self._dim}, got {data.shape[1]}"
            )
        return data

    def _validate_query_batch(self, queries: np.ndarray) -> np.ndarray:
        return as_query_matrix(queries, self._dim)
