"""Unified metrics registry: labelled counters, gauges, histograms, summaries.

One registry replaces the scattered per-subsystem counters with a single
queryable surface: the serving engine counts its requests, latencies and
micro-batch sizes straight into instruments here (and adds cache and backend
health as point-in-time collectors), while the shard router records its
per-replica call latencies and failovers into module-level instruments.
Everything the registry holds is rendered by :mod:`repro.obs.exposition` as
Prometheus text.

The instrument model follows the Prometheus client conventions: an instrument
has a name, help text, and a fixed tuple of label names; each distinct
label-value combination is an independent time series.  All instruments are
thread-safe (one lock per instrument), because the serving worker pool and
the shard scatter pool write concurrently.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.config import METRICS_WINDOW
from repro.utils.locking import create_lock


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Ceil-based nearest-rank percentile of an already-sorted sequence.

    The nearest-rank definition: the ``q``-th percentile is the smallest
    value such that at least ``q`` of the distribution lies at or below it,
    i.e. the element at rank ``ceil(q * N)`` (1-based).  An explicit ``ceil``
    avoids the banker's-rounding bias of ``round()`` on ``.5`` ties, which
    alternated the chosen rank with the parity of the target index.
    """
    if not sorted_values:
        return 0.0
    if fraction <= 0.0:
        return float(sorted_values[0])
    rank = math.ceil(fraction * len(sorted_values))
    index = min(max(rank, 1), len(sorted_values)) - 1
    return float(sorted_values[index])


_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds), tuned for query-serving latencies.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


@dataclass
class Sample:
    """One exposition line: a metric name, its labels, and a value."""

    name: str
    labels: Dict[str, str] = field(default_factory=dict)
    value: float = 0.0


@dataclass
class MetricFamily:
    """All samples of one metric, with its type and help text."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram" | "summary" | "untyped"
    help: str
    samples: List[Sample] = field(default_factory=list)


class _Instrument:
    """Shared base: name/label validation and label-key resolution."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()) -> None:
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"Invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"Invalid label name {label!r} for metric {name!r}")
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._lock = create_lock("_Instrument._lock")

    def _key(self, labels: Mapping[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"Metric {self.name!r} expects labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _labels_of(self, key: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.label_names, key))

    def collect(self) -> MetricFamily:
        raise NotImplementedError


class _Scalar(_Instrument):
    """Shared body of :class:`Counter` and :class:`Gauge`: one float per label
    combination, exposed as a zero sample when unlabelled and never touched."""

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, label_names)
        self._values: Dict[Tuple[str, ...], float] = {}

    def _add(self, amount: float, labels: Mapping[str, object]) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current value of the labelled series (0 when never touched)."""
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def collect(self) -> MetricFamily:
        with self._lock:
            samples = [
                Sample(self.name, self._labels_of(key), value)
                for key, value in sorted(self._values.items())
            ]
        if not samples and not self.label_names:
            samples = [Sample(self.name, {}, 0.0)]
        return MetricFamily(self.name, self.kind, self.help, samples)


class Counter(_Scalar):
    """A monotonically increasing sum, per label combination."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be non-negative) to the labelled series."""
        if amount < 0:
            raise ValueError(f"Counter {self.name!r} cannot decrease")
        self._add(amount, labels)


class Gauge(_Scalar):
    """A value that can go up and down, per label combination."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        """Set the labelled series to ``value``."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (may be negative) to the labelled series."""
        self._add(amount, labels)


class Histogram(_Instrument):
    """Cumulative-bucket distribution with ``_sum``/``_count``, per labels."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError(f"Histogram {self.name!r} needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"Histogram {self.name!r} has duplicate bucket bounds")
        self.buckets = bounds
        # Per label key: [bucket counts..., +Inf count], sum, count.
        self._series: Dict[Tuple[str, ...], Tuple[List[int], List[float]]] = {}

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation into the labelled series."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = ([0] * (len(self.buckets) + 1), [0.0, 0.0])
                self._series[key] = series
            counts, sum_count = series
            for position, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[position] += 1
                    break
            else:
                counts[-1] += 1
            sum_count[0] += value
            sum_count[1] += 1.0

    def value(self, **labels: object) -> Dict[str, object]:
        """The labelled series' ``sum`` and ``count`` totals, plus ``counts``:
        the observations per bucket (not cumulative), ``+Inf`` last."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return {"sum": 0.0, "count": 0.0, "counts": [0] * (len(self.buckets) + 1)}
            return {"sum": series[1][0], "count": series[1][1], "counts": list(series[0])}

    def collect(self) -> MetricFamily:
        samples: List[Sample] = []
        with self._lock:
            series = sorted(self._series.items())
            if not series and not self.label_names:
                series = [((), ([0] * (len(self.buckets) + 1), [0.0, 0.0]))]
            for key, (counts, sum_count) in series:
                labels = self._labels_of(key)
                cumulative = 0
                for position, bound in enumerate(self.buckets):
                    cumulative += counts[position]
                    samples.append(
                        Sample(
                            f"{self.name}_bucket",
                            {**labels, "le": format_float(bound)},
                            float(cumulative),
                        )
                    )
                cumulative += counts[-1]
                samples.append(
                    Sample(f"{self.name}_bucket", {**labels, "le": "+Inf"}, float(cumulative))
                )
                samples.append(Sample(f"{self.name}_sum", dict(labels), sum_count[0]))
                samples.append(Sample(f"{self.name}_count", dict(labels), sum_count[1]))
        return MetricFamily(self.name, self.kind, self.help, samples)


class Summary(_Instrument):
    """Windowed quantiles with un-windowed ``_sum``/``_count``, per labels.

    The quantiles and the mean describe the last :data:`~repro.config.
    METRICS_WINDOW` observations; ``_sum`` and ``_count`` cover every one.
    """

    kind = "summary"
    QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, label_names)
        # Per label key: the recent-observation window, and [sum, count].
        self._series: Dict[Tuple[str, ...], Tuple[Deque[float], List[float]]] = {}

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation into the labelled series."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = (deque(maxlen=METRICS_WINDOW), [0.0, 0.0])
                self._series[key] = series
            series[0].append(value)
            series[1][0] += value
            series[1][1] += 1.0

    def _copy(self, key: Tuple[str, ...]) -> Tuple[List[float], List[float]]:
        series = self._series.get(key)
        if series is None:
            return [], [0.0, 0.0]
        return list(series[0]), list(series[1])

    def value(self, **labels: object) -> Dict[str, object]:
        """The labelled series' ``quantiles`` (by fraction), windowed ``mean``
        and ``window`` size, and un-windowed ``sum`` and ``count``."""
        key = self._key(labels)
        with self._lock:
            window, (total, count) = self._copy(key)
        ordered = sorted(window)
        return {
            "quantiles": {q: percentile(ordered, q) for q in self.QUANTILES},
            "mean": sum(ordered) / len(ordered) if ordered else 0.0,
            "window": len(ordered),
            "sum": total,
            "count": count,
        }

    def collect(self) -> MetricFamily:
        with self._lock:
            keys = sorted(self._series) or ([] if self.label_names else [()])
            copies = [(key, self._copy(key)) for key in keys]
        samples: List[Sample] = []
        for key, (window, (total, count)) in copies:
            labels = self._labels_of(key)
            ordered = sorted(window)
            for fraction in self.QUANTILES:
                samples.append(
                    Sample(
                        self.name,
                        {**labels, "quantile": format_float(fraction)},
                        percentile(ordered, fraction),
                    )
                )
            samples.append(Sample(f"{self.name}_sum", dict(labels), total))
            samples.append(Sample(f"{self.name}_count", dict(labels), count))
        return MetricFamily(self.name, self.kind, self.help, samples)


def format_float(value: float) -> str:
    """Compact decimal form used for bucket bounds and sample values."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """Get-or-create instrument registry plus pluggable collectors.

    ``register_collector`` accepts a zero-argument callable returning metric
    families; it is invoked at every :meth:`collect`.  Collectors are how
    point-in-time state (queue depth, cache hit rate, replica health) joins
    the cumulative instruments in one snapshot without double bookkeeping.
    """

    def __init__(self) -> None:
        self._lock = create_lock("MetricsRegistry._lock")
        self._instruments: Dict[str, _Instrument] = {}
        self._collectors: List[Callable[[], Iterable[MetricFamily]]] = []

    def _get_or_create(
        self,
        cls,
        name: str,
        help: str,
        label_names: Sequence[str],
        **kwargs: object,
    ):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"Metric {name!r} is already registered as a "
                        f"{existing.kind}, not a {cls.kind}"
                    )
                if existing.label_names != tuple(label_names):
                    raise ValueError(
                        f"Metric {name!r} is already registered with labels "
                        f"{list(existing.label_names)}"
                    )
                return existing
            instrument = cls(name, help, label_names, **kwargs)
            # lovo: ignore[LOVO005] cardinality is the set of metric names defined in code
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str, label_names: Sequence[str] = ()) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help, label_names)

    def gauge(self, name: str, help: str, label_names: Sequence[str] = ()) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help, label_names)

    def histogram(
        self,
        name: str,
        help: str,
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get_or_create(
            Histogram, name, help, label_names, buckets=buckets or DEFAULT_BUCKETS
        )

    def summary(self, name: str, help: str, label_names: Sequence[str] = ()) -> Summary:
        """Get or create a :class:`Summary`."""
        return self._get_or_create(Summary, name, help, label_names)

    def register_collector(
        self, collector: Callable[[], Iterable[MetricFamily]]
    ) -> None:
        """Add a callable whose families are appended at every collect."""
        with self._lock:
            self._collectors.append(collector)

    def unregister_collector(
        self, collector: Callable[[], Iterable[MetricFamily]]
    ) -> None:
        """Remove a previously registered collector (no-op if absent)."""
        with self._lock:
            if collector in self._collectors:
                self._collectors.remove(collector)

    def collect(self) -> List[MetricFamily]:
        """A point-in-time snapshot: instrument families plus collectors'."""
        with self._lock:
            instruments = sorted(self._instruments.values(), key=lambda i: i.name)
            collectors = list(self._collectors)
        families = [instrument.collect() for instrument in instruments]
        for collector in collectors:
            families.extend(collector())
        return families


def phase_seconds_counter(registry: MetricsRegistry) -> Counter:
    """A system's ``lovo_phase_seconds_total{phase}``: seconds per pipeline phase.

    Each system keeps its own (benchmarks build many systems in one
    process), in a registry of its own.
    """
    return registry.counter(
        "lovo_phase_seconds_total",
        "Accumulated wall-clock seconds per pipeline phase.",
        ("phase",),
    )


#: Module-level default registry.  Layers without an obvious owner (the shard
#: router lives below the engine) record into it, mirroring the prometheus
#: client's default-registry idiom; the serving engine merges it into its own
#: exposition snapshot.
REGISTRY = MetricsRegistry()
