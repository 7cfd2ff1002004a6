"""Hierarchical Navigable Small World graph index — the LOVO(HNSW) variant.

A straightforward HNSW implementation over inner-product similarity:

* every inserted element draws a maximum layer from a geometric distribution;
* on insertion the graph is greedily descended from the entry point to the
  element's top layer, then an ``ef_construction``-wide beam search selects
  neighbours on each layer, keeping at most ``M`` (``2M`` on layer 0`) links;
* search descends greedily to layer 0 and runs an ``ef_search``-wide beam
  search there.

This reproduces the latency/recall profile Table V attributes to graph-based
indexing: fast searches with accuracy close to (but occasionally below)
brute force.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.config import IndexConfig
from repro.errors import SnapshotCorruptionError, VectorDatabaseError
from repro.obs.trace import record_span, tracing_active
from repro.vectordb.base import IndexHit, VectorIndex, lossless_float32
from repro.utils.locking import create_lock


class HNSWIndex(VectorIndex):
    """Graph-based approximate maximum-inner-product index."""

    def __init__(self, dim: int, config: IndexConfig | None = None, seed: int = 0) -> None:
        super().__init__(dim)
        self._config = config or IndexConfig()
        self._m = self._config.hnsw_m
        self._ef_construction = self._config.hnsw_ef_construction
        self._ef_search = self._config.hnsw_ef_search
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._write_lock = create_lock("HNSWIndex._write_lock")
        self._level_multiplier = 1.0 / np.log(max(self._m, 2))
        self._vectors: List[np.ndarray] = []
        self._external_ids: List[int] = []
        # One adjacency dict per layer: node -> neighbour list.
        self._layers: List[Dict[int, List[int]]] = []
        self._node_levels: List[int] = []
        self._entry_point: int | None = None

    @property
    def ntotal(self) -> int:
        return len(self._vectors)

    @property
    def ef_search(self) -> int:
        """Beam width used at query time."""
        return self._ef_search

    def add(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        data = self._validate(vectors)
        if len(ids) != data.shape[0]:
            raise VectorDatabaseError(f"Got {len(ids)} ids for {data.shape[0]} vectors")
        # Serialise writers: graph wiring is multi-step, and two interleaved
        # inserts could cross-link half-constructed nodes.  Readers stay
        # lock-free — every mutation in _insert publishes whole lists/values,
        # so a concurrent search sees either the pre- or post-insert graph.
        with self._write_lock:
            for external_id, vector in zip(ids, data):
                self._insert(int(external_id), vector)

    def build(self) -> None:
        """HNSW builds incrementally on insert; nothing further to do."""

    def search_batch(self, queries: np.ndarray, k: int) -> List[List[IndexHit]]:
        """Answer ``m`` queries with one validation pass and shared graph state.

        The beam search itself is inherently per-query: every row descends
        from the same entry point, so a row's hits do not depend on the
        other rows of the batch.
        """
        batch = self._validate_query_batch(queries)
        if k <= 0 or not self._vectors or self._entry_point is None:
            return [[] for _ in range(batch.shape[0])]
        if not tracing_active():
            return [self._search_validated(row, k) for row in batch]
        started = time.perf_counter()
        results = [self._search_validated(row, k) for row in batch]
        record_span(
            "graph_search",
            started,
            time.perf_counter(),
            num_queries=batch.shape[0],
            ef_search=self._ef_search,
        )
        return results

    def _search_validated(self, vector: np.ndarray, k: int) -> List[IndexHit]:
        """Greedy descent plus layer-0 beam search for one validated query."""
        assert self._entry_point is not None
        current = self._entry_point
        for layer in range(len(self._layers) - 1, 0, -1):
            current = self._greedy_descend(vector, current, layer)
        candidates = self._search_layer(vector, [current], 0, max(self._ef_search, k))
        ranked = sorted(candidates, key=lambda node: -self._score(vector, node))[:k]
        return [
            IndexHit(id=self._external_ids[node], score=self._score(vector, node))
            for node in ranked
        ]

    def to_state(self) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """Serialise vectors, ids, node levels, and the full layer graphs.

        Each layer's adjacency dict is flattened to three arrays (present
        nodes, CSR-style offsets, concatenated neighbour lists) so the graph
        restores exactly — searches over a loaded index visit the same nodes
        in the same order as the original.  ``raw_vectors`` tells the owning
        collection that ``vectors`` holds the raw vectors in insertion order,
        so it need not store its own copy.  They are written as float32
        whenever that is lossless (always, for rows a collection inserted);
        in memory the graph keeps float64 rows, so its per-node scoring never
        casts.
        """
        meta: Dict[str, object] = {
            "kind": "hnsw",
            "raw_vectors": "vectors",
            "entry_point": -1 if self._entry_point is None else int(self._entry_point),
            "num_layers": len(self._layers),
            "seed": self._seed,
            # One geometric level was drawn per insert; recorded so a loaded
            # index can fast-forward its RNG and keep future inserts
            # identical to a never-persisted index.
            "level_draws": len(self._vectors),
        }
        arrays: Dict[str, np.ndarray] = {
            "vectors": lossless_float32(
                np.vstack(self._vectors)
                if self._vectors
                else np.zeros((0, self.dim), dtype=np.float64)
            ),
            "external_ids": np.asarray(self._external_ids, dtype=np.int64),
            "node_levels": np.asarray(self._node_levels, dtype=np.int64),
        }
        for position, layer in enumerate(self._layers):
            nodes = np.asarray(sorted(layer), dtype=np.int64)
            offsets = np.zeros(nodes.shape[0] + 1, dtype=np.int64)
            neighbours: List[int] = []
            for slot, node in enumerate(nodes):
                links = layer[int(node)]
                neighbours.extend(links)
                offsets[slot + 1] = offsets[slot] + len(links)
            arrays[f"layer{position}_nodes"] = nodes
            arrays[f"layer{position}_offsets"] = offsets
            arrays[f"layer{position}_neighbors"] = np.asarray(neighbours, dtype=np.int64)
        return meta, arrays

    @classmethod
    def from_state(
        cls,
        dim: int,
        config: object,
        meta: Mapping[str, object],
        arrays: Mapping[str, np.ndarray],
    ) -> "HNSWIndex":
        index_config = config if isinstance(config, IndexConfig) else None
        index = cls(dim, index_config, seed=int(meta.get("seed", 0)))
        vectors = np.asarray(arrays["vectors"], dtype=np.float64)
        external_ids = np.asarray(arrays["external_ids"], dtype=np.int64)
        node_levels = np.asarray(arrays["node_levels"], dtype=np.int64)
        if vectors.ndim != 2 or vectors.shape[1] != dim:
            raise SnapshotCorruptionError(
                f"HNSW vectors must have shape (n, {dim}), got {vectors.shape}"
            )
        if not (vectors.shape[0] == external_ids.shape[0] == node_levels.shape[0]):
            raise SnapshotCorruptionError("HNSW state arrays disagree on element count")
        index._vectors = [row for row in vectors]
        index._external_ids = [int(identifier) for identifier in external_ids]
        index._node_levels = [int(level) for level in node_levels]
        num_layers = int(meta.get("num_layers", 0))
        layers: List[Dict[int, List[int]]] = []
        for position in range(num_layers):
            try:
                nodes = arrays[f"layer{position}_nodes"]
                offsets = arrays[f"layer{position}_offsets"]
                neighbours = arrays[f"layer{position}_neighbors"]
            except KeyError as error:
                raise SnapshotCorruptionError(
                    f"HNSW layer {position} is missing from the snapshot"
                ) from error
            layer: Dict[int, List[int]] = {}
            for slot, node in enumerate(nodes):
                start, stop = int(offsets[slot]), int(offsets[slot + 1])
                layer[int(node)] = [int(link) for link in neighbours[start:stop]]
            layers.append(layer)
        index._layers = layers
        entry_point = int(meta.get("entry_point", -1))
        index._entry_point = None if entry_point < 0 else entry_point
        level_draws = int(meta.get("level_draws", len(index._vectors)))
        if level_draws:
            index._rng.random(level_draws)
        return index

    def _insert(self, external_id: int, vector: np.ndarray) -> None:  # lovo: ignore[LOVO005] graph nodes ARE the stored corpus
        node = len(self._vectors)
        self._vectors.append(vector)
        self._external_ids.append(external_id)
        level = self._draw_level()
        self._node_levels.append(level)
        while len(self._layers) <= level:
            self._layers.append({})
        for layer in range(level + 1):
            self._layers[layer].setdefault(node, [])

        if self._entry_point is None:
            self._entry_point = node
            return

        current = self._entry_point
        top_level = len(self._layers) - 1
        for layer in range(top_level, level, -1):
            if layer < len(self._layers) and current in self._layers[layer]:
                current = self._greedy_descend(vector, current, layer)

        for layer in range(min(level, top_level), -1, -1):
            candidates = self._search_layer(vector, [current], layer, self._ef_construction)
            max_links = self._m if layer > 0 else self._m * 2
            neighbours = sorted(candidates, key=lambda n: -self._score(vector, n))[:max_links]
            self._layers[layer][node] = list(neighbours)
            for neighbour in neighbours:
                links = self._layers[layer].setdefault(neighbour, [])
                links.append(node)
                if len(links) > max_links:
                    # Prune into a fresh list and publish it with one dict
                    # assignment: an in-place sort leaves the list empty while
                    # it runs, which a concurrent beam search would observe.
                    pruned = sorted(
                        links,
                        key=lambda n: -float(self._vectors[neighbour] @ self._vectors[n]),
                    )[:max_links]
                    self._layers[layer][neighbour] = pruned
            if neighbours:
                current = neighbours[0]

        if self._node_levels[node] >= self._node_levels[self._entry_point]:
            self._entry_point = node

    def _draw_level(self) -> int:
        uniform = float(self._rng.random())
        return int(-np.log(max(uniform, 1e-12)) * self._level_multiplier)

    def _score(self, query: np.ndarray, node: int) -> float:
        return float(self._vectors[node] @ query)

    def _greedy_descend(self, query: np.ndarray, start: int, layer: int) -> int:
        current = start
        current_score = self._score(query, current)
        improved = True
        while improved:
            improved = False
            for neighbour in self._layers[layer].get(current, []):
                score = self._score(query, neighbour)
                if score > current_score:
                    current = neighbour
                    current_score = score
                    improved = True
        return current

    def _search_layer(
        self, query: np.ndarray, entry_points: List[int], layer: int, ef: int
    ) -> List[int]:
        """Beam search on one layer; returns up to ``ef`` candidate nodes."""
        visited: Set[int] = set(entry_points)
        # Max-heap of candidates by score (negated for heapq) and a min-heap of
        # current best results.
        candidates = [(-self._score(query, node), node) for node in entry_points]
        heapq.heapify(candidates)
        results = [(self._score(query, node), node) for node in entry_points]
        heapq.heapify(results)

        while candidates:
            negative_score, node = heapq.heappop(candidates)
            if results and -negative_score < results[0][0] and len(results) >= ef:
                break
            for neighbour in self._layers[layer].get(node, []):
                if neighbour in visited:
                    continue
                visited.add(neighbour)
                score = self._score(query, neighbour)
                if len(results) < ef or score > results[0][0]:
                    heapq.heappush(candidates, (-score, neighbour))
                    heapq.heappush(results, (score, neighbour))
                    if len(results) > ef:
                        heapq.heappop(results)
        return [node for _score, node in results]
