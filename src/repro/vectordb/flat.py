"""Brute-force (exact) inner-product index — the LOVO(BF) variant of Table V.

The index stores its vectors as **rolling segments**: sealed immutable blocks
plus an active tail of recently appended chunks.  Appends never rewrite a
sealed block, so a live reader and a streaming writer can overlap without a
lock on the search path — the searchable state is one immutable tuple that the
writer replaces atomically (copy-on-write) and readers snapshot with a single
reference read.

Scoring each segment separately is bit-identical to scoring one monolithic
matrix because :func:`~repro.vectordb.base.exact_scores` pads every row/query
tile to a fixed shape: each (row, query) score is independent of where the row
lives.  Segment scores are concatenated in insertion order before ranking, so
streamed ingest produces exactly the results of an offline build.

Blocks keep the dtype they arrive in: float32 from a collection (which
rounds every vector on insert), float64 from a direct caller.  Scoring
upcasts float32 rows exactly, so either way a score is the float64 inner
product of the stored values.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import SnapshotCorruptionError, VectorDatabaseError
from repro.vectordb.base import IndexHit, VectorIndex, exact_scores, lossless_float32
from repro.utils.locking import create_lock

#: Tail chunks are folded into one sealed block once they reach this many rows.
SEGMENT_SEAL_ROWS = 4096

#: One immutable searchable view: the segment blocks (each a read-only
#: ``(rows, dim)`` matrix, in insertion order) plus the concatenated id vector.
_FlatView = Tuple[Tuple[np.ndarray, ...], np.ndarray]


class FlatIndex(VectorIndex):
    """Exact search over rolling segments of unit-norm vectors."""

    def __init__(self, dim: int, *, seal_rows: int = SEGMENT_SEAL_ROWS) -> None:
        super().__init__(dim)
        self._seal_rows = max(1, int(seal_rows))
        self._write_lock = create_lock("FlatIndex._write_lock")
        self._sealed: List[np.ndarray] = []
        self._tail: List[np.ndarray] = []
        self._view: _FlatView = ((), np.zeros(0, dtype=np.int64))

    @property
    def ntotal(self) -> int:
        return int(self._view[1].shape[0])

    def segment_sizes(self) -> List[int]:
        """Row counts of the current segments, sealed blocks first."""
        blocks, _ = self._view
        return [int(block.shape[0]) for block in blocks]

    def add(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        data = self._validate(vectors, keep_float32=True)
        if len(ids) != data.shape[0]:
            raise VectorDatabaseError(
                f"Got {len(ids)} ids for {data.shape[0]} vectors"
            )
        if data.shape[0] == 0:
            return
        new_ids = np.asarray(ids, dtype=np.int64)
        with self._write_lock:
            self._tail.append(data)
            if sum(chunk.shape[0] for chunk in self._tail) >= self._seal_rows:
                # lovo: ignore[LOVO005] sealed chunks ARE the stored corpus; deleting them loses data
                self._sealed.append(
                    self._tail[0] if len(self._tail) == 1 else np.vstack(self._tail)
                )
                self._tail = []
            _, old_ids = self._view
            self._view = (
                tuple(self._sealed) + tuple(self._tail),
                np.concatenate([old_ids, new_ids]),
            )

    def build(self) -> None:
        """No-op: rolling segments are always searchable."""

    def search_batch(self, queries: np.ndarray, k: int) -> List[List[IndexHit]]:
        """Exact multi-query search: one tiled matrix-matrix product per segment.

        Scoring all ``m`` queries through shared GEMM tiles instead of ``m``
        separate matrix-vector products is where the batch path earns its
        speedup — the per-call Python and BLAS dispatch overhead is paid once
        per tile for the whole batch.  The fixed tile shape (see
        :func:`~repro.vectordb.base.exact_scores`) keeps scores bit-identical
        regardless of how the stored rows are segmented or sharded.
        """
        batch = self._validate_query_batch(queries)
        blocks, ids = self._view
        if ids.shape[0] == 0 or k <= 0:
            return [[] for _ in range(batch.shape[0])]
        scores = self._score_segments(blocks, batch)
        return [
            self._rank_row(scores[:, column], ids, k)
            for column in range(batch.shape[0])
        ]

    @staticmethod
    def _score_segments(blocks: Tuple[np.ndarray, ...], batch: np.ndarray) -> np.ndarray:
        if len(blocks) == 1:
            return exact_scores(blocks[0], batch)
        return np.concatenate([exact_scores(block, batch) for block in blocks], axis=0)

    def matrix(self) -> np.ndarray:
        """All stored vectors as one matrix in insertion order (a copy when
        more than one segment exists)."""
        blocks, _ = self._view
        if not blocks:
            return np.zeros((0, self.dim), dtype=np.float64)
        if len(blocks) == 1:
            return blocks[0]
        return np.vstack(blocks)

    def to_state(self) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """Serialise the concatenated score matrix and id vector.

        ``raw_vectors`` tells the owning collection that ``matrix`` holds the
        raw vectors in insertion order, so it need not store its own copy.
        The matrix is written as float32 whenever that is lossless (always,
        for rows a collection inserted).
        The segment boundaries are deliberately *not* persisted: a loaded
        index starts from one sealed block, and searches stay bit-identical
        because per-row scores do not depend on segmentation.
        """
        blocks, ids = self._view
        if not blocks:
            matrix = np.zeros((0, self.dim), dtype=np.float64)
        elif len(blocks) == 1:
            matrix = blocks[0]
        else:
            matrix = np.vstack(blocks)
        return (
            {"kind": "flat", "raw_vectors": "matrix"},
            {"matrix": lossless_float32(matrix), "ids": ids},
        )

    @classmethod
    def from_state(
        cls,
        dim: int,
        config: object,
        meta: Mapping[str, object],
        arrays: Mapping[str, np.ndarray],
    ) -> "FlatIndex":
        index = cls(dim)
        matrix = np.asarray(arrays["matrix"])
        if matrix.dtype != np.float32:
            matrix = matrix.astype(np.float64, copy=False)
        ids = np.asarray(arrays["ids"], dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != dim or matrix.shape[0] != ids.shape[0]:
            raise SnapshotCorruptionError(
                f"Flat index state is inconsistent: matrix {matrix.shape}, "
                f"{ids.shape[0]} ids, dim {dim}"
            )
        if matrix.shape[0]:
            index._sealed = [matrix]
            index._view = ((matrix,), ids)
        return index

    @staticmethod
    def _rank_row(scores: np.ndarray, ids: np.ndarray, k: int) -> List[IndexHit]:
        """Top-``k`` hits of one precomputed score row, best first."""
        k = min(k, scores.shape[0])
        top = np.argpartition(-scores, k - 1)[:k]
        top = top[np.argsort(-scores[top])]
        return [IndexHit(id=int(ids[i]), score=float(scores[i])) for i in top]
