"""Answer-quality observability: shadow-recall sampling and drift monitors.

The serving stack answers queries through approximate search (IVF-PQ lists,
HNSW beams, sharded scatter), so the one number the paper actually optimises
— recall against an exact scan — is invisible in production unless something
measures it continuously.  Two pieces do that here:

* :class:`ShadowSampler` — samples a configurable fraction of served queries
  and re-runs each through the **exact** flat scan
  (``storage.collection.search_exhaustive``) in a background worker thread.
  Comparing the served fast-search ranking against the exact one yields
  online estimates of recall@k, top-1 score margin, and rank displacement,
  exposed as ``lovo_recall_*`` metrics per index family and per shard.  The
  hand-off is a bounded queue that *drops* samples when full — the shadow
  path must never perturb served latency.
* :class:`DriftMonitor` — watches a stream of scalar observations (the
  shadow exact-scan scores) and counts drift alerts when a recent window's
  mean wanders more than :data:`~repro.config.DRIFT_THRESHOLD` reference
  standard deviations from the baseline established earlier, re-baselining
  after each alert so a genuine distribution shift is counted once, not on
  every subsequent observation.

Both are deliberately decoupled from the serving engine's hot path: the
sampler's serving-side cost is one lock-guarded float accumulation per
request plus (for sampled requests) a non-blocking queue put.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.config import DRIFT_THRESHOLD, SHADOW_RECALL_K, SHADOW_WINDOW, ObsConfig
from repro.obs.registry import MetricsRegistry, REGISTRY
from repro.utils.locking import create_lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import LOVO

_STOP = object()


class DriftMonitor:
    """Counts alerts when a scalar stream's windowed mean leaves its baseline.

    The first ``baseline`` observations establish a reference mean and
    standard deviation (Welford).  After that, each completed window of
    ``window`` observations is compared against the reference: a windowed
    mean further than ``threshold * reference_std`` (with a small epsilon
    floor so a zero-variance baseline is not a hair trigger) from the
    reference mean increments the labelled alert counter and **re-baselines**
    on the drifted window, so one genuine shift is one alert.
    """

    def __init__(
        self,
        signal: str,
        counter,
        threshold: float = DRIFT_THRESHOLD,
        baseline: int = 32,
        window: int = 16,
    ) -> None:
        self._signal = signal
        self._counter = counter
        self._threshold = threshold
        self._baseline_size = max(int(baseline), 2)
        self._window_size = max(int(window), 1)
        self._lock = create_lock("DriftMonitor._lock")
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._window: List[float] = []
        self._alerts = 0
        self._last_value = 0.0

    def _reference_std(self) -> float:
        if self._count < 2:
            return 0.0
        return math.sqrt(self._m2 / (self._count - 1))

    def _absorb(self, value: float) -> None:
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def observe(self, value: float) -> bool:
        """Feed one observation; returns ``True`` when it triggered an alert."""
        value = float(value)
        with self._lock:
            self._last_value = value
            if self._count < self._baseline_size:
                self._absorb(value)
                return False
            self._window.append(value)
            if len(self._window) < self._window_size:
                return False
            window_mean = sum(self._window) / len(self._window)
            window_values = self._window
            self._window = []
            scale = max(self._reference_std(), 1e-9, abs(self._mean) * 1e-6)
            if abs(window_mean - self._mean) > self._threshold * scale:
                self._alerts += 1
                self._counter.inc(signal=self._signal)
                # Re-baseline on the drifted window: the new distribution is
                # now "normal", and further windows alert only on a new shift.
                self._count = 0
                self._mean = 0.0
                self._m2 = 0.0
                for drifted in window_values:
                    self._absorb(drifted)
                return True
            for absorbed in window_values:
                self._absorb(absorbed)
            return False

    def observe_many(self, values: Sequence[float]) -> int:
        """Feed several observations; returns how many alerts they triggered."""
        return sum(1 for value in values if self.observe(value))

    def stats(self) -> Dict[str, object]:
        """Baseline summary plus the alert count."""
        with self._lock:
            return {
                "signal": self._signal,
                "observations": self._count + len(self._window),
                "reference_mean": self._mean,
                "reference_std": self._reference_std(),
                "last_value": self._last_value,
                "alerts": self._alerts,
            }


class _RecallWindow:
    """Windowed recall / margin / displacement aggregates for one label set."""

    __slots__ = ("recalls", "margins", "displacements", "samples")

    def __init__(self, window: int) -> None:
        self.recalls: Deque[float] = deque(maxlen=window)
        self.margins: Deque[float] = deque(maxlen=window)
        self.displacements: Deque[float] = deque(maxlen=window)
        self.samples = 0

    def add(self, recall: float, margin: float, displacement: float) -> None:
        self.recalls.append(recall)
        self.margins.append(margin)
        self.displacements.append(displacement)
        self.samples += 1

    def means(self) -> Tuple[float, float, float]:
        def _mean(values: Deque[float]) -> float:
            return sum(values) / len(values) if values else 0.0

        return _mean(self.recalls), _mean(self.margins), _mean(self.displacements)


class ShadowSampler:
    """Re-runs a sampled fraction of served queries through an exact scan.

    The serving engine calls :meth:`maybe_sample` with each answered query's
    text and served fast-search ranking (the capped provenance the query
    strategy stamps into ``response.metadata["fast_search"]``).  A
    deterministic fractional accumulator admits ``sample_rate`` of them onto
    a bounded queue; one daemon worker re-encodes the text, runs the exact
    flat scan over the same storage, and folds the comparison into windowed
    estimates:

    * **recall@k** — fraction of the exact top-``k`` ids the served top-``k``
      also returned (``k`` = :data:`~repro.config.SHADOW_RECALL_K`, clamped to what
      was served);
    * **score margin** — exact top-1 score minus served top-1 score (0 when
      the ANN search found the true best patch);
    * **rank displacement** — mean over the exact top-``k`` of
      ``|served_rank - exact_rank|``, with ids the served list missed
      entirely charged the served list's length.

    Estimates are exposed per index family (``flat`` / ``ivfpq`` / ``hnsw``,
    suffixed ``-sharded`` on backends with more than one shard) as
    ``lovo_recall_*`` gauges and counters; each exact-top-``k`` id is also
    attributed to its shard, yielding per-shard recall.  A
    :class:`DriftMonitor` over the exact top-1 scores counts score-
    distribution drift (e.g. under streaming ingest).
    """

    def __init__(
        self,
        system: "LOVO",
        config: ObsConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._system = system
        self._config = config or system.config.obs
        registry = registry or REGISTRY
        self._rate = self._config.shadow_sample_rate
        self._recall_k = SHADOW_RECALL_K
        self._queue: "queue.Queue[object]" = queue.Queue(self._config.shadow_queue_size)
        self._lock = create_lock("ShadowSampler._lock")
        self._accumulator = 0.0
        self._windows: Dict[Tuple[str, str], _RecallWindow] = {}
        self._offered = 0
        self._processed = 0
        self._started = False
        self._closed = False

        self._samples_counter = registry.counter(
            "lovo_recall_samples_total",
            "Served queries re-run through the exact shadow scan.",
            ("family", "sharded"),
        )
        self._dropped_counter = registry.counter(
            "lovo_recall_shadow_dropped_total",
            "Shadow samples dropped because the hand-off queue was full.",
        )
        self._recall_sum = registry.counter(
            "lovo_recall_sum",
            "Sum of per-sample shadow recall@k (divide by samples for the "
            "online estimate).",
            ("family", "sharded"),
        )
        self._recall_gauge = registry.gauge(
            "lovo_recall_at_k",
            "Windowed online recall@k estimate from shadow sampling.",
            ("family", "sharded", "k"),
        )
        self._margin_gauge = registry.gauge(
            "lovo_recall_score_margin",
            "Windowed mean (exact top-1 score - served top-1 score).",
            ("family", "sharded"),
        )
        self._displacement_gauge = registry.gauge(
            "lovo_recall_rank_displacement",
            "Windowed mean |served rank - exact rank| over the exact top-k.",
            ("family", "sharded"),
        )
        self._shard_hits = registry.counter(
            "lovo_recall_shard_hits_total",
            "Exact-top-k ids the served ranking also returned, by owning shard.",
            ("shard",),
        )
        self._shard_misses = registry.counter(
            "lovo_recall_shard_misses_total",
            "Exact-top-k ids the served ranking missed, by owning shard.",
            ("shard",),
        )
        self._shard_recall_gauge = registry.gauge(
            "lovo_recall_shard_at_k",
            "Cumulative per-shard recall of exact-top-k ids.",
            ("shard",),
        )
        drift_counter = registry.counter(
            "lovo_quality_drift_alerts_total",
            "Drift alerts from the quality monitors, by signal.",
            ("signal",),
        )
        self._score_drift = DriftMonitor("shadow_score", drift_counter)
        self._worker = threading.Thread(
            target=self._worker_loop, name="lovo-shadow-sampler", daemon=True
        )

    @property
    def sample_rate(self) -> float:
        """The configured fraction of served queries that is shadow-sampled."""
        return self._rate

    @property
    def recall_k(self) -> int:
        """The ``k`` of the recall@k estimates."""
        return self._recall_k

    def start(self) -> "ShadowSampler":
        """Start the background worker; idempotent."""
        with self._lock:
            if self._closed:
                raise RuntimeError("Cannot restart a stopped ShadowSampler")
            if not self._started:
                self._started = True
                self._worker.start()
        return self

    def stop(self, timeout: float | None = 5.0) -> None:
        """Stop the worker after draining queued samples; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        if started:
            self._queue.put(_STOP)
            self._worker.join(timeout)

    def maybe_sample(
        self,
        text: str,
        fast_search: Optional[Dict[str, object]],
        epoch: int = 0,
    ) -> bool:
        """Offer one served query; returns whether it was admitted.

        Called on the serving path, so the non-sampled case is one lock plus
        one float add, and the sampled case a non-blocking queue put — a full
        queue drops the sample (counted) rather than waiting.
        """
        if self._rate <= 0.0 or not fast_search or self._closed:
            return False
        hits = fast_search.get("hits")
        if not hits:
            return False
        with self._lock:
            self._accumulator += self._rate
            if self._accumulator < 1.0:
                return False
            self._accumulator -= 1.0
            self._offered += 1
        try:
            self._queue.put_nowait((text, list(hits), epoch))
        except queue.Full:
            self._dropped_counter.inc()
            return False
        return True

    def flush(self, timeout: float = 10.0) -> bool:
        """Block until every admitted sample has been processed (tests)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if self._processed >= self._offered or self._closed:
                    return True
            if self._queue.empty():
                with self._lock:
                    if self._processed >= self._offered:
                        return True
            time.sleep(0.005)
        return False

    def stats(self) -> Dict[str, object]:
        """Windowed estimates plus worker counters for ``/v1/stats``."""
        with self._lock:
            windows = {
                key: window.means() + (window.samples,)
                for key, window in self._windows.items()
            }
            offered, processed = self._offered, self._processed
        families = {}
        for (family, sharded), (recall, margin, displacement, samples) in windows.items():
            families[f"{family}{'-sharded' if sharded == 'true' else ''}"] = {
                "recall_at_k": recall,
                "score_margin": margin,
                "rank_displacement": displacement,
                "samples": samples,
            }
        return {
            "sample_rate": self._rate,
            "recall_k": self._recall_k,
            "offered": offered,
            "processed": processed,
            "queue_depth": self._queue.qsize(),
            "families": families,
            "score_drift": self._score_drift.stats(),
        }

    # ------------------------------------------------------------- worker

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            text, served_hits, epoch = item
            try:
                self._process(text, served_hits, epoch)
            except Exception:  # noqa: BLE001 - shadow failures must stay shadow
                pass
            finally:
                with self._lock:
                    self._processed += 1

    def _process(
        self,
        text: str,
        served_hits: List[Tuple[str, float]],
        epoch: int,
    ) -> None:
        storage = self._system.storage
        encoder = self._system.text_encoder
        query_vector = encoder.encode(encoder.parse(text))
        k = min(self._recall_k, len(served_hits))
        if k <= 0:
            return
        collection = storage.collection
        exact = collection.search_exhaustive(query_vector, k)
        if not exact:
            return
        exact_ids = [hit.id for hit in exact]
        served_ids = [patch_id for patch_id, _ in served_hits]
        served_rank = {patch_id: rank for rank, patch_id in enumerate(served_ids)}
        served_top_k = set(served_ids[:k])

        overlap = sum(1 for patch_id in exact_ids if patch_id in served_top_k)
        recall = overlap / len(exact_ids)
        margin = float(exact[0].score) - float(served_hits[0][1])
        miss_penalty = len(served_ids)
        displacement = sum(
            abs(served_rank.get(patch_id, miss_penalty) - rank)
            for rank, patch_id in enumerate(exact_ids)
        ) / len(exact_ids)

        family = storage.index_type
        sharded = collection.num_shards > 1
        labels = {"family": family, "sharded": "true" if sharded else "false"}
        self._samples_counter.inc(**labels)
        self._recall_sum.inc(recall, **labels)

        with self._lock:
            key = (family, labels["sharded"])
            window = self._windows.get(key)
            if window is None:
                # lovo: ignore[LOVO005] keyed by (family, sharded) — at most a handful of windows
                window = self._windows[key] = _RecallWindow(SHADOW_WINDOW)
            window.add(recall, margin, displacement)
            window_recall, window_margin, window_displacement = window.means()
        self._recall_gauge.set(window_recall, k=str(self._recall_k), **labels)
        self._margin_gauge.set(window_margin, **labels)
        self._displacement_gauge.set(window_displacement, **labels)

        self._attribute_shards(collection.shard_of, exact_ids, served_top_k)
        self._score_drift.observe(float(exact[0].score))

    def _attribute_shards(
        self, shard_of: Callable[[str], int], exact_ids: List[str], served_top_k: set
    ) -> None:
        touched = set()
        for patch_id in exact_ids:
            try:
                shard = str(shard_of(patch_id))
            except Exception:  # noqa: BLE001 - ids may vanish under ingest races
                continue
            touched.add(shard)
            if patch_id in served_top_k:
                self._shard_hits.inc(shard=shard)
            else:
                self._shard_misses.inc(shard=shard)
        for shard in touched:
            hits = self._shard_hits.value(shard=shard)
            misses = self._shard_misses.value(shard=shard)
            total = hits + misses
            if total > 0:
                self._shard_recall_gauge.set(hits / total, shard=shard)


__all__ = ["DriftMonitor", "ShadowSampler"]
