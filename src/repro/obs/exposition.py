"""Prometheus text exposition (format 0.0.4) over metric families.

Two halves:

* :func:`render` — serialise any list of :class:`~repro.obs.registry.
  MetricFamily` into the Prometheus text format (``# HELP``/``# TYPE``
  headers, escaped label values, ``_bucket``/``_sum``/``_count`` histogram
  series, summary quantiles);
* :func:`service_families` — map the point-in-time part of the serving
  engine's ``stats()`` snapshot (uptime, queue, cache, backend health,
  traces) and the system's ingest :class:`~repro.utils.timing.PhaseTimer`
  totals into families.  The engine's request counters, latency summary and
  micro-batch histogram are registry instruments, so they need no copy; the
  whole stack surfaces through one ``GET /v1/metrics`` scrape.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.obs.registry import MetricFamily, Sample, format_float

#: The content type of the rendered exposition.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Health states mapped to ``lovo_backend_health{state=...}`` one-hot gauges.
HEALTH_STATES = ("ok", "degraded", "unavailable", "not_ready")


def escape_help(text: str) -> str:
    r"""Escape a help string (``\`` and newlines)."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def escape_label_value(value: str) -> str:
    r"""Escape a label value (``\``, ``"`` and newlines)."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_sample(sample: Sample) -> str:
    if sample.labels:
        body = ",".join(
            f'{name}="{escape_label_value(str(value))}"'
            for name, value in sample.labels.items()
        )
        return f"{sample.name}{{{body}}} {format_float(sample.value)}"
    return f"{sample.name} {format_float(sample.value)}"


def render(families: Iterable[MetricFamily]) -> str:
    """Serialise metric families into Prometheus text exposition format.

    Output is deterministic regardless of input order: families are emitted
    sorted by name, and families sharing a name and kind (e.g. the same
    counter collected from two registries) are merged into one ``# TYPE``
    block — Prometheus rejects duplicate headers.  Inputs are not mutated.
    """
    merged: Dict[str, Dict[str, object]] = {}
    for family in families:
        entry = merged.get(family.name)
        if entry is None or entry["kind"] != family.kind:
            merged[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "samples": list(family.samples),
            }
        else:
            entry["samples"].extend(family.samples)  # type: ignore[union-attr]
            if not entry["help"]:
                entry["help"] = family.help
    lines: List[str] = []
    for name in sorted(merged):
        entry = merged[name]
        if entry["help"]:
            lines.append(f"# HELP {name} {escape_help(str(entry['help']))}")
        lines.append(f"# TYPE {name} {entry['kind']}")
        for sample in entry["samples"]:  # type: ignore[union-attr]
            lines.append(_render_sample(sample))
    return "\n".join(lines) + "\n"


def build_info_family() -> MetricFamily:
    """The ``lovo_build_info`` gauge: version/runtime labels, value 1.

    Imports are deferred so this module stays importable without pulling the
    ``repro`` package top-level (avoiding an import cycle) or numpy at
    module-import time.
    """
    import platform

    try:
        from importlib import metadata as importlib_metadata

        version = importlib_metadata.version("repro")
    except Exception:  # noqa: BLE001 - not installed as a distribution
        try:
            from repro import __version__ as version
        except Exception:  # noqa: BLE001
            version = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # noqa: BLE001
        numpy_version = "unavailable"
    labels = {
        "version": str(version),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
    return MetricFamily(
        "lovo_build_info",
        "gauge",
        "Build and runtime versions (constant 1; metadata in labels).",
        [Sample("lovo_build_info", labels, 1.0)],
    )


def _counter(name: str, help: str, value: float) -> MetricFamily:
    return MetricFamily(name, "counter", help, [Sample(name, {}, float(value))])


def _gauge(name: str, help: str, value: float) -> MetricFamily:
    return MetricFamily(name, "gauge", help, [Sample(name, {}, float(value))])


def service_families(
    stats: Mapping[str, object],
    phase_totals: Optional[Mapping[str, float]] = None,
) -> List[MetricFamily]:
    """Point-in-time metric families derived from one engine ``stats()``.

    Re-derived per scrape from the snapshot, so no second copy of the state
    can drift from ``/v1/stats``.
    """
    families: List[MetricFamily] = [
        _gauge("lovo_uptime_seconds", "Engine uptime.", stats.get("uptime_seconds", 0.0)),
        _gauge("lovo_qps", "Completed queries per second since start.", stats.get("qps", 0.0)),
        _gauge(
            "lovo_queue_depth", "Admitted queries waiting for a micro-batch.",
            stats.get("queue_depth", 0),
        ),
        _gauge(
            "lovo_queue_capacity", "Admission queue capacity.",
            stats.get("queue_capacity", 0),
        ),
        _gauge("lovo_workers", "Worker threads serving batches.", stats.get("num_workers", 0)),
    ]

    cache = stats.get("cache")
    if isinstance(cache, Mapping):
        enabled = bool(cache.get("enabled", False))
        families.append(
            _gauge("lovo_cache_enabled", "Whether the result cache is enabled.", float(enabled))
        )
        if enabled:
            families.extend(
                [
                    _counter("lovo_cache_hits_total", "Result-cache hits.", cache.get("hits", 0)),
                    _counter(
                        "lovo_cache_misses_total", "Result-cache misses.", cache.get("misses", 0)
                    ),
                    _counter(
                        "lovo_cache_expirations_total",
                        "Result-cache hits lost to TTL expiry.",
                        cache.get("expirations", 0),
                    ),
                    _gauge("lovo_cache_size", "Live result-cache entries.", cache.get("size", 0)),
                    _gauge(
                        "lovo_cache_hit_rate", "Result-cache hit rate.", cache.get("hit_rate", 0.0)
                    ),
                ]
            )

    backend = stats.get("backend")
    if isinstance(backend, Mapping):
        health = str(stats.get("health", backend.get("health", "ok")))
        families.append(
            MetricFamily(
                "lovo_backend_health",
                "gauge",
                "Backend health state (one-hot over states).",
                [
                    Sample(
                        "lovo_backend_health",
                        {"state": state},
                        1.0 if state == health else 0.0,
                    )
                    for state in HEALTH_STATES
                ],
            )
        )
        shards = backend.get("shards")
        if isinstance(shards, list):
            entries = [entry for entry in shards if isinstance(entry, Mapping)]
            for name, key, help in (
                ("lovo_shard_replicas", "replicas", "Registered replicas per shard."),
                ("lovo_shard_healthy_replicas", "healthy_replicas", "Healthy replicas per shard."),
                ("lovo_shard_entities", "entities", "Stored entities per shard."),
            ):
                samples = [
                    Sample(name, {"shard": str(entry.get("shard", ""))}, float(entry.get(key, 0)))
                    for entry in entries
                ]
                families.append(MetricFamily(name, "gauge", help, samples))

    traces = stats.get("traces")
    if isinstance(traces, Mapping):
        families.append(
            _gauge(
                "lovo_traces_stored", "Traces retained in the in-memory store.",
                traces.get("stored", 0),
            )
        )
        families.append(
            _gauge(
                "lovo_traces_slow", "Traces retained in the slow-query log.",
                traces.get("slow", 0),
            )
        )

    if phase_totals:
        families.append(
            MetricFamily(
                "lovo_phase_seconds_total",
                "counter",
                "Accumulated wall-clock seconds per pipeline phase.",
                [
                    Sample("lovo_phase_seconds_total", {"phase": phase}, float(seconds))
                    for phase, seconds in sorted(phase_totals.items())
                ],
            )
        )
    return families


def parse_exposition(text: str) -> Dict[str, Dict[str, object]]:
    """Parse rendered exposition back into ``{name: {"type", "samples"}}``.

    A deliberately small parser used by the round-trip tests and example —
    it understands exactly what :func:`render` emits (one metric per line,
    quoted label values with ``\\``/``\\"``/``\\n`` escapes).
    """
    metrics: Dict[str, Dict[str, object]] = {}

    def _entry(name: str) -> Dict[str, object]:
        return metrics.setdefault(name, {"type": None, "help": None, "samples": []})

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            _entry(name)["type"] = kind.strip()
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            _entry(name)["help"] = help_text
            continue
        if line.startswith("#"):
            continue
        name, labels, value = _parse_sample_line(line)
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in metrics:
                family = name[: -len(suffix)]
                break
        _entry(family)["samples"].append(  # type: ignore[union-attr]
            {"name": name, "labels": labels, "value": value}
        )
    return metrics


def _parse_sample_line(line: str):
    if "{" in line:
        name, _, rest = line.partition("{")
        body, _, value_part = rest.rpartition("} ")
        labels: Dict[str, str] = {}
        position = 0
        while position < len(body):
            equals = body.index("=", position)
            label_name = body[position:equals]
            if body[equals + 1] != '"':
                raise ValueError(f"Malformed label in {line!r}")
            cursor = equals + 2
            chunks: List[str] = []
            while body[cursor] != '"':
                if body[cursor] == "\\":
                    escape = body[cursor + 1]
                    chunks.append({"n": "\n", '"': '"', "\\": "\\"}[escape])
                    cursor += 2
                else:
                    chunks.append(body[cursor])
                    cursor += 1
            labels[label_name] = "".join(chunks)
            position = cursor + 1
            if position < len(body) and body[position] == ",":
                position += 1
    else:
        name, _, value_part = line.partition(" ")
        labels = {}
    value_text = value_part.strip()
    if value_text == "+Inf":
        value = float("inf")
    elif value_text == "-Inf":
        value = float("-inf")
    else:
        value = float(value_text)
    return name, labels, value
