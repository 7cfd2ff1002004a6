"""Brute-force (exact) inner-product index — the LOVO(BF) variant of Table V.

A :class:`~repro.vectordb.collection.VectorCollection` configured as
``"flat"`` builds no index at all: it scores its own float32 matrix through
:func:`~repro.vectordb.base.exact_top_k`, so the corpus is stored once.
:class:`FlatIndex` is the same exact search over rows a caller adds to it
directly, behind the :class:`~repro.vectordb.base.VectorIndex` interface
(it is the exact reference the approximate families are measured against).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import VectorDatabaseError
from repro.utils.locking import create_lock
from repro.vectordb.base import IndexHit, VectorIndex, exact_top_k


class FlatIndex(VectorIndex):
    """Exact search over one float64 matrix of unit-norm vectors."""

    def __init__(self, dim: int) -> None:
        super().__init__(dim)
        self._write_lock = create_lock("FlatIndex._write_lock")
        # The searchable state is one (matrix, ids) pair that an add replaces
        # with a single assignment, so searches never need the lock.
        self._view = (np.zeros((0, dim)), np.zeros(0, dtype=np.int64))

    @property
    def ntotal(self) -> int:
        return int(self._view[1].shape[0])

    def add(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        data = self._validate(vectors)
        if len(ids) != data.shape[0]:
            raise VectorDatabaseError(f"Got {len(ids)} ids for {data.shape[0]} vectors")
        with self._write_lock:
            matrix, old_ids = self._view
            self._view = (
                np.concatenate([matrix, data]),
                np.concatenate([old_ids, np.asarray(ids, dtype=np.int64)]),
            )

    def build(self) -> None:
        """No-op: every added row is searchable at once."""

    def search_batch(self, queries: np.ndarray, k: int) -> List[List[IndexHit]]:
        """Exact multi-query search: one tiled matrix-matrix product."""
        batch = self._validate_query_batch(queries)
        matrix, ids = self._view
        if ids.shape[0] == 0 or k <= 0:
            return [[] for _ in range(batch.shape[0])]
        return [
            [IndexHit(id=int(ids[position]), score=score) for position, score in row]
            for row in exact_top_k(matrix, batch, k)
        ]
