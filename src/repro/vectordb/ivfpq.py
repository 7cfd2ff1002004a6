"""Inverted multi-index with product quantization (paper §V-B, Algorithm 1).

The index combines two levels of quantization:

* a **coarse quantizer** (k-means over the full vectors) partitions the
  collection into inverted lists — the "clusters" of Algorithm 1;
* a **product quantizer** encodes the *residual* of each vector with respect
  to its coarse centroid as ``P`` sub-codes.

At query time the coarse centroids are ranked by similarity with the query,
the best ``A`` (``nprobe``) inverted lists are scanned, and each stored code
is scored with an ADC lookup table:

``s(q, c_a) ≈ s(q, centroid) + q · residual(c_a)``

which is exactly the approximation in lines 8–11 of Algorithm 1.  The top
candidates are then re-scored exactly with the reconstructed vectors (lines
13–15) and returned in descending order.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.config import IVFPQ_KMEANS_ITERATIONS, IndexConfig
from repro.errors import IndexNotBuiltError, SnapshotCorruptionError, VectorDatabaseError
from repro.obs.trace import record_span, tracing_active
from repro.vectordb.base import IndexHit, VectorIndex, exact_scores
from repro.vectordb.kmeans import lloyd_kmeans
from repro.vectordb.quantization import ProductQuantizer
from repro.utils.locking import create_lock


class _InvertedList:
    """One coarse cluster: its member ids and PQ codes, as one published tuple.

    Every write builds a new ``(ids, codes)`` pair and publishes it with a
    single reference assignment, and nothing rebuilds it on the read side,
    so a search racing an append reads both arrays from one point in time:
    entirely before or entirely after the append.
    """

    __slots__ = ("_arrays",)

    def __init__(self, ids: np.ndarray, codes: np.ndarray) -> None:
        self._arrays = (ids, codes)

    def extend(self, ids: np.ndarray, codes: np.ndarray) -> None:
        """Append members (the writer holds the index's insert lock)."""
        old_ids, old_codes = self._arrays
        self._arrays = (np.concatenate([old_ids, ids]), np.concatenate([old_codes, codes]))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The published ``(ids, codes)`` pair: ``(n,)`` int64 and ``(n, P)``."""
        return self._arrays


class IVFPQIndex(VectorIndex):
    """Quantization-based inverted multi-index (the paper's default index)."""

    def __init__(self, dim: int, config: IndexConfig | None = None) -> None:
        super().__init__(dim)
        self._config = config or IndexConfig()
        if dim % self._config.num_subspaces != 0:
            raise VectorDatabaseError(
                f"Dimension {dim} is not divisible by num_subspaces "
                f"{self._config.num_subspaces}"
            )
        self._insert_lock = create_lock("IVFPQIndex._insert_lock")
        self._pending_ids: List[int] = []
        self._pending_vectors: List[np.ndarray] = []
        self._coarse_centroids: np.ndarray | None = None
        self._lists: Dict[int, _InvertedList] = {}
        self._quantizer = ProductQuantizer(
            num_subspaces=self._config.num_subspaces,
            num_centroids=self._config.num_centroids,
            kmeans_iterations=IVFPQ_KMEANS_ITERATIONS,
        )
        self._built = False
        self._count = 0

    @property
    def config(self) -> IndexConfig:
        """Index configuration (nlist, nprobe, PQ parameters)."""
        return self._config

    @property
    def ntotal(self) -> int:
        return self._count + len(self._pending_ids)

    @property
    def nprobe(self) -> int:
        """Number of inverted lists visited per query."""
        return self._config.nprobe

    def add(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        # Float32 input (a collection's rounded rows) is kept as it is until
        # the build, which trains on the exact float64 upcast.
        data = self._validate(vectors, keep_float32=True)
        if len(ids) != data.shape[0]:
            raise VectorDatabaseError(f"Got {len(ids)} ids for {data.shape[0]} vectors")
        if self._built:
            # Incremental insertion after build: assign to existing structures.
            self._insert_built(list(ids), data.astype(np.float64, copy=False))
            return
        self._pending_ids.extend(int(identifier) for identifier in ids)
        self._pending_vectors.append(data)

    def build(self) -> None:
        """Train the coarse quantizer and PQ codebooks, then fill the lists."""
        if self._built:
            return
        if not self._pending_vectors:
            raise IndexNotBuiltError("Cannot build an IVF-PQ index with no vectors")
        vectors = np.concatenate(self._pending_vectors, axis=0, dtype=np.float64)
        ids = list(self._pending_ids)

        num_clusters = min(self._config.num_coarse_clusters, vectors.shape[0])
        coarse = lloyd_kmeans(
            vectors,
            num_clusters=num_clusters,
            max_iterations=IVFPQ_KMEANS_ITERATIONS,
            seed=1,
        )
        self._coarse_centroids = coarse.centroids

        residuals = vectors - coarse.centroids[coarse.assignments]
        self._quantizer.train(residuals)
        self._built = True
        self._lists = {}
        self._count = 0
        self._fill_lists(ids, vectors, coarse.assignments)
        self._pending_ids = []
        self._pending_vectors = []

    def search_batch(self, queries: np.ndarray, k: int) -> List[List[IndexHit]]:
        """Answer ``m`` queries with shared coarse-quantizer work.

        The coarse centroid scores for the whole batch come from a single
        ``(m, nlist)`` matrix product and the ADC lookup tables from one
        batched pass per subspace; only the per-query list scans and the
        exact re-score remain per row.
        """
        batch = self._validate_query_batch(queries)
        num_queries = batch.shape[0]
        if k <= 0 or self.ntotal == 0:
            return [[] for _ in range(num_queries)]
        if not self._built:
            self.build()
        assert self._coarse_centroids is not None
        if self._count == 0:
            return [[] for _ in range(num_queries)]

        # Stage spans (coarse ranking + table build, then the ADC list scans)
        # fan into any active request traces; when tracing is off the only
        # cost is one contextvar read.
        traced = tracing_active()
        started = time.perf_counter() if traced else 0.0

        # Shared across the batch: coarse centroid ranking and ADC tables.
        centroid_scores = batch @ self._coarse_centroids.T
        nprobe = min(self._config.nprobe, centroid_scores.shape[1])
        tables = self._quantizer.inner_product_tables_batch(batch)
        if traced:
            scanned = time.perf_counter()
            record_span(
                "coarse_scan",
                started,
                scanned,
                num_queries=num_queries,
                nlist=int(centroid_scores.shape[1]),
                nprobe=nprobe,
            )
        results = [
            self._scan_lists(batch[row], centroid_scores[row], tables[row], nprobe, k)
            for row in range(num_queries)
        ]
        if traced:
            record_span(
                "adc_scan",
                scanned,
                time.perf_counter(),
                num_queries=num_queries,
                nprobe=nprobe,
            )
        return results

    def _scan_lists(
        self,
        vector: np.ndarray,
        centroid_scores: np.ndarray,
        tables: np.ndarray,
        nprobe: int,
        k: int,
    ) -> List[IndexHit]:
        """Scan the best ``nprobe`` inverted lists for one query row."""
        assert self._coarse_centroids is not None
        probed = np.argsort(-centroid_scores)[:nprobe]
        subspaces = np.arange(self._quantizer.num_subspaces)
        candidate_ids: List[np.ndarray] = []
        candidate_scores: List[np.ndarray] = []
        candidate_codes: List[np.ndarray] = []
        candidate_clusters: List[np.ndarray] = []
        for cluster in probed:
            inverted = self._lists.get(int(cluster))
            if inverted is None:
                continue
            ids_array, codes = inverted.as_arrays()
            if not ids_array.shape[0]:
                continue
            residual_scores = tables[subspaces[None, :], codes].sum(axis=1)
            candidate_ids.append(ids_array)
            candidate_scores.append(centroid_scores[cluster] + residual_scores)
            candidate_codes.append(codes)
            candidate_clusters.append(np.full(ids_array.shape[0], cluster, dtype=np.int64))
        if not candidate_ids:
            return []
        all_ids = np.concatenate(candidate_ids)
        all_scores = np.concatenate(candidate_scores)
        all_codes = np.vstack(candidate_codes)
        all_clusters = np.concatenate(candidate_clusters)

        # Short-list with the approximate scores, then re-score exactly using
        # the reconstructed vectors (coarse centroid + decoded residual).
        # Ordering ties by id keeps results deterministic even when distinct
        # vectors share a PQ code and therefore an identical approximate score.
        shortlist_size = min(max(k * 8, k), all_scores.shape[0])
        shortlist = np.lexsort((all_ids, -all_scores))[:shortlist_size]
        reconstructed = (
            self._coarse_centroids[all_clusters[shortlist]]
            + self._quantizer.decode(all_codes[shortlist])
        )
        rescored = reconstructed @ vector

        order = np.lexsort((all_ids[shortlist], -rescored))[: min(k, shortlist.shape[0])]
        return [
            IndexHit(id=int(all_ids[shortlist[i]]), score=float(rescored[i]))
            for i in order
        ]

    def to_state(self) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """Serialise coarse centroids, PQ codebooks, and the inverted lists.

        Finalises (:meth:`build`) first so pending vectors are trained and
        assigned; the inverted lists are flattened to CSR-style arrays
        (cluster ids, offsets, concatenated member ids and codes).
        """
        self.build()
        assert self._coarse_centroids is not None
        clusters = np.asarray(sorted(self._lists), dtype=np.int64)
        offsets = np.zeros(clusters.shape[0] + 1, dtype=np.int64)
        id_blocks = [np.zeros(0, dtype=np.int64)]
        code_blocks = [np.zeros((0, self._config.num_subspaces), dtype=np.int32)]
        for slot, cluster in enumerate(clusters):
            ids, codes = self._lists[int(cluster)].as_arrays()
            id_blocks.append(ids)
            code_blocks.append(codes)
            offsets[slot + 1] = offsets[slot] + ids.shape[0]
        meta: Dict[str, object] = {"kind": "ivfpq", "count": self._count}
        arrays: Dict[str, np.ndarray] = {
            "coarse_centroids": self._coarse_centroids,
            "list_clusters": clusters,
            "list_offsets": offsets,
            "list_ids": np.concatenate(id_blocks),
            "list_codes": np.concatenate(code_blocks).astype(np.int32, copy=False),
        }
        arrays.update(self._quantizer.to_state())
        return meta, arrays

    @classmethod
    def from_state(
        cls,
        dim: int,
        config: object,
        meta: Mapping[str, object],
        arrays: Mapping[str, np.ndarray],
    ) -> "IVFPQIndex":
        index_config = config if isinstance(config, IndexConfig) else IndexConfig()
        index = cls(dim, index_config)
        index._coarse_centroids = np.asarray(arrays["coarse_centroids"], dtype=np.float64)
        if index._coarse_centroids.ndim != 2 or index._coarse_centroids.shape[1] != dim:
            raise SnapshotCorruptionError(
                f"IVF-PQ coarse centroids must have shape (nlist, {dim}), "
                f"got {index._coarse_centroids.shape}"
            )
        index._quantizer = ProductQuantizer.from_state(
            arrays,
            num_subspaces=index_config.num_subspaces,
            num_centroids=index_config.num_centroids,
            kmeans_iterations=IVFPQ_KMEANS_ITERATIONS,
        )
        clusters = np.asarray(arrays["list_clusters"], dtype=np.int64)
        offsets = np.asarray(arrays["list_offsets"], dtype=np.int64)
        all_ids = np.asarray(arrays["list_ids"], dtype=np.int64)
        codes = np.asarray(arrays["list_codes"], dtype=np.int32)
        if offsets.shape[0] != clusters.shape[0] + 1 or (
            offsets.shape[0] and int(offsets[-1]) != all_ids.shape[0]
        ):
            raise SnapshotCorruptionError("IVF-PQ inverted-list offsets are inconsistent")
        if codes.shape[0] != all_ids.shape[0]:
            raise SnapshotCorruptionError(
                f"IVF-PQ has {all_ids.shape[0]} member ids but {codes.shape[0]} codes"
            )
        index._lists = {
            cluster: _InvertedList(all_ids[start:stop], codes[start:stop])
            for cluster, start, stop in zip(
                clusters.tolist(), offsets[:-1].tolist(), offsets[1:].tolist()
            )
        }
        index._count = int(meta.get("count", all_ids.shape[0]))
        index._built = True
        return index

    def _fill_lists(self, ids: List[int], vectors: np.ndarray, assignments: np.ndarray) -> None:
        assert self._coarse_centroids is not None
        residuals = vectors - self._coarse_centroids[assignments]
        codes = self._quantizer.encode(residuals)
        member_ids = np.asarray(ids, dtype=np.int64)
        # Members grouped by list, each group in insertion order.
        order = np.argsort(assignments, kind="stable")
        clusters, starts = np.unique(assignments[order], return_index=True)
        for cluster, members in zip(clusters.tolist(), np.split(order, starts[1:])):
            entry = self._lists.get(cluster)
            if entry is None:
                self._lists[cluster] = _InvertedList(member_ids[members], codes[members])
            else:
                entry.extend(member_ids[members], codes[members])
        self._count += len(ids)

    def _insert_built(self, ids: List[int], vectors: np.ndarray) -> None:
        assert self._coarse_centroids is not None
        # Scoring through the fixed GEMM tiles of exact_scores keeps the
        # assignment of every appended vector independent of the append batch
        # shape, so streamed appends land in exactly the lists an offline
        # sequence of the same inserts would fill (and so do sharded appends
        # relative to the unsharded index).  The vectors are the tiled rows
        # and the few centroids the query columns: the other way round pads
        # the centroids to a whole row tile for every eight vectors.
        assignments = exact_scores(vectors, self._coarse_centroids).argmax(axis=1)
        with self._insert_lock:
            self._fill_lists(ids, vectors, assignments)
