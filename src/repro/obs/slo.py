"""Declarative SLOs with multi-window burn-rate evaluation.

Three service-level objectives are derived from :class:`~repro.config.
ObsConfig` and tracked from the serving engine's per-request events:

* **latency** — a fraction ``slo_latency_target`` of successful requests
  must complete within :data:`~repro.config.SLO_LATENCY_MS`;
* **availability** — a fraction ``slo_availability_target`` of submissions
  must succeed (errors and admission rejections are "bad");
* **recall** — a fraction :data:`RECALL_OBJECTIVE` of shadow-sampled queries
  must reach recall@k :data:`~repro.config.SLO_RECALL_TARGET` (events come from the
  :class:`~repro.obs.quality.ShadowSampler`).

Evaluation follows the multi-window burn-rate pattern: for each SLO the bad
fraction over a *fast* and a *slow* window is divided by the error budget
``1 - objective``.  A burn rate of 1.0 consumes the budget exactly at the
sustainable rate; the tracker reports ``"breaching"`` when **both** windows
burn above 1 (sustained, not a blip), ``"warning"`` when only the fast
window does, and ``"ok"`` otherwise.  Results surface in ``/v1/healthz``
(compact summary), ``GET /v1/slo`` (full evaluation), burn-rate gauges in
the metrics registry, and structured JSON log lines on ``repro.slo``
correlated by trace/request id.
"""

from __future__ import annotations

import json
import logging
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.config import (
    SLO_FAST_WINDOW_SECONDS,
    SLO_LATENCY_MS,
    SLO_MAX_EVENTS,
    SLO_RECALL_TARGET,
    SLO_SLOW_WINDOW_SECONDS,
    ObsConfig,
)
from repro.obs.registry import MetricsRegistry, REGISTRY
from repro.utils.locking import create_lock

#: Good-event fraction the recall SLO targets (the per-sample threshold is
#: :data:`~repro.config.SLO_RECALL_TARGET`; this is how often it must be met).
RECALL_OBJECTIVE = 0.95

#: Rank of the status states, worst last.
_STATUS_ORDER = ("ok", "warning", "breaching")

logger = logging.getLogger("repro.slo")
# Library idiom: a NullHandler so un-configured applications are not spammed
# via logging.lastResort; tests and deployments attach their own handlers.
logger.addHandler(logging.NullHandler())


def _log(level: int, event: str, **fields: object) -> None:
    """One structured JSON log line (trace/request ids ride in ``fields``)."""
    payload = {"event": event}
    payload.update({key: value for key, value in fields.items() if value is not None})
    logger.log(level, json.dumps(payload, sort_keys=True))


@dataclass(frozen=True)
class SLODefinition:
    """One declarative objective: what fraction of events must be good."""

    name: str
    objective: float
    description: str

    @property
    def error_budget(self) -> float:
        """The tolerated bad fraction, ``1 - objective``."""
        return 1.0 - self.objective


class SLOTracker:
    """Windowed good/bad event rings per SLO, plus burn-rate evaluation."""

    def __init__(
        self,
        config: ObsConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._config = config or ObsConfig()
        registry = registry or REGISTRY
        self._slos: Dict[str, SLODefinition] = {
            "latency": SLODefinition(
                "latency",
                self._config.slo_latency_target,
                f"requests under {SLO_LATENCY_MS:g} ms",
            ),
            "availability": SLODefinition(
                "availability",
                self._config.slo_availability_target,
                "requests answered without error or rejection",
            ),
            "recall": SLODefinition(
                "recall",
                RECALL_OBJECTIVE,
                f"shadow samples at recall@k >= {SLO_RECALL_TARGET:g}",
            ),
        }
        # Per SLO: (wall time, good) events, oldest first, bounded.
        self._events: Dict[str, Deque[Tuple[float, bool]]] = {
            name: deque(maxlen=SLO_MAX_EVENTS) for name in self._slos
        }
        self._lock = create_lock("SLOTracker._lock")
        self._last_status: Dict[str, str] = {name: "ok" for name in self._slos}
        self._burn_gauge = registry.gauge(
            "lovo_slo_burn_rate",
            "Error-budget burn rate per SLO and evaluation window.",
            ("slo", "window"),
        )
        self._bad_counter = registry.counter(
            "lovo_slo_bad_events_total", "Bad (objective-violating) events per SLO.",
            ("slo",),
        )
        self._good_counter = registry.counter(
            "lovo_slo_good_events_total", "Good (objective-meeting) events per SLO.",
            ("slo",),
        )

    @property
    def slos(self) -> List[SLODefinition]:
        """The tracked objectives."""
        return list(self._slos.values())

    def _record(self, name: str, good: bool, now: Optional[float] = None) -> None:
        # lovo: ignore[LOVO004] burn-rate windows are anchored to wall-clock epochs
        t = now if now is not None else time.time()
        with self._lock:
            self._events[name].append((t, good))
        if good:
            self._good_counter.inc(slo=name)
        else:
            self._bad_counter.inc(slo=name)

    def record_request(
        self,
        latency_seconds: float,
        ok: bool,
        trace_id: Optional[str] = None,
        request_id: Optional[str] = None,
        outcome: str = "completed",
        now: Optional[float] = None,
    ) -> None:
        """Fold one served request into the availability and latency SLOs."""
        latency_ms = latency_seconds * 1000.0
        self._record("availability", ok, now)
        if ok:
            fast_enough = latency_ms <= SLO_LATENCY_MS
            self._record("latency", fast_enough, now)
            if not fast_enough:
                _log(
                    logging.INFO,
                    "slow_request",
                    trace_id=trace_id,
                    request_id=request_id,
                    latency_ms=round(latency_ms, 3),
                    threshold_ms=SLO_LATENCY_MS,
                )
        else:
            _log(
                logging.WARNING,
                "request_failure",
                trace_id=trace_id,
                request_id=request_id,
                outcome=outcome,
                latency_ms=round(latency_ms, 3),
            )

    def record_recall(
        self,
        recall: float,
        family: str,
        trace_id: Optional[str] = None,
        now: Optional[float] = None,
    ) -> None:
        """Fold one shadow-recall sample into the recall SLO."""
        good = recall >= SLO_RECALL_TARGET
        self._record("recall", good, now)
        if not good:
            _log(
                logging.WARNING,
                "low_recall",
                trace_id=trace_id,
                family=family,
                recall=round(recall, 4),
                target=SLO_RECALL_TARGET,
            )

    def _window_burn(
        self, events: Deque[Tuple[float, bool]], slo: SLODefinition,
        now: float, window_seconds: float,
    ) -> Dict[str, object]:
        cutoff = now - window_seconds
        total = bad = 0
        for t, good in reversed(events):
            if t < cutoff:
                break
            total += 1
            if not good:
                bad += 1
        bad_fraction = (bad / total) if total else 0.0
        budget = max(slo.error_budget, 1e-9)
        return {
            "window_seconds": window_seconds,
            "events": total,
            "bad_events": bad,
            "bad_fraction": bad_fraction,
            "burn_rate": bad_fraction / budget,
        }

    def evaluate(self, now: Optional[float] = None) -> Dict[str, object]:
        """Full multi-window evaluation (the ``GET /v1/slo`` body)."""
        # lovo: ignore[LOVO004] evaluated against the same wall-clock event timeline
        t = now if now is not None else time.time()
        results: List[Dict[str, object]] = []
        worst = "ok"
        for name, slo in self._slos.items():
            with self._lock:
                events = deque(self._events[name])
            fast = self._window_burn(events, slo, t, SLO_FAST_WINDOW_SECONDS)
            slow = self._window_burn(events, slo, t, SLO_SLOW_WINDOW_SECONDS)
            fast_burning = fast["burn_rate"] >= 1.0 and fast["events"] > 0
            slow_burning = slow["burn_rate"] >= 1.0 and slow["events"] > 0
            if fast_burning and slow_burning:
                status = "breaching"
            elif fast_burning:
                status = "warning"
            else:
                status = "ok"
            self._burn_gauge.set(float(fast["burn_rate"]), slo=name, window="fast")
            self._burn_gauge.set(float(slow["burn_rate"]), slo=name, window="slow")
            previous = self._last_status.get(name)
            self._last_status[name] = status
            if status != previous and status != "ok":
                _log(
                    logging.WARNING,
                    "slo_burn",
                    slo=name,
                    status=status,
                    fast_burn_rate=round(float(fast["burn_rate"]), 3),
                    slow_burn_rate=round(float(slow["burn_rate"]), 3),
                )
            if _STATUS_ORDER.index(status) > _STATUS_ORDER.index(worst):
                worst = status
            results.append(
                {
                    "name": name,
                    "objective": slo.objective,
                    "description": slo.description,
                    "status": status,
                    "fast": fast,
                    "slow": slow,
                }
            )
        return {"status": worst, "evaluated_at": t, "slos": results}

    def summary(self, now: Optional[float] = None) -> Dict[str, object]:
        """Compact per-SLO status for ``/v1/healthz`` and ``/v1/stats``."""
        evaluation = self.evaluate(now)
        return {
            "status": evaluation["status"],
            "slos": {
                entry["name"]: {  # type: ignore[index]
                    "status": entry["status"],  # type: ignore[index]
                    "fast_burn_rate": entry["fast"]["burn_rate"],  # type: ignore[index]
                }
                for entry in evaluation["slos"]  # type: ignore[union-attr]
            },
        }

    def on_tick(self, point: Dict[str, object]) -> None:
        """Metrics-history tick listener: refresh the burn-rate gauges."""
        self.evaluate()


__all__ = ["RECALL_OBJECTIVE", "SLODefinition", "SLOTracker"]
