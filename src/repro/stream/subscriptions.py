"""Standing queries: subscribers that are pushed matches as video arrives.

A subscriber registers a text query plus a score threshold and receives an
event for every newly indexed patch whose class embedding scores at or above
that threshold against the query vector.  Scoring happens inside the ingest
pipeline — one inner product of the segment's freshly encoded class
embeddings against each registered query vector — so a standing query costs
``O(new_vectors)`` per segment, independent of collection size, and fires
without any polling of the index.

Delivery is decoupled from ingest through per-subscriber **bounded** buffers:
the pipeline never blocks on a slow consumer; when a buffer overflows, the
oldest undelivered events are dropped and counted.  Consumers drain their
buffer with :meth:`SubscriptionManager.poll`, a long-poll that parks on a
condition variable until events arrive or the timeout lapses (the HTTP
frontend maps this to ``GET /v1/subscriptions/<id>/events``).
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Sequence

import numpy as np

from repro.config import (
    DEFAULT_POLL_SECONDS,
    MAX_POLL_SECONDS,
    MAX_SUBSCRIPTIONS,
    StreamConfig,
)
from repro.encoders.vision import PatchEncoding
from repro.errors import (
    StreamError,
    SubscriptionLimitError,
    SubscriptionNotFoundError,
)
from repro.obs.registry import REGISTRY, MetricsRegistry
from repro.utils.locking import create_condition


@dataclass(frozen=True)
class MatchEvent:
    """One standing-query match pushed by the ingest pipeline."""

    subscription_id: str
    sequence: int
    patch_id: str
    frame_id: str
    video_id: str
    score: float
    data_version: int
    dataset: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form served by the events endpoint."""
        return {
            "subscription_id": self.subscription_id,
            "sequence": self.sequence,
            "patch_id": self.patch_id,
            "frame_id": self.frame_id,
            "video_id": self.video_id,
            "score": self.score,
            "data_version": self.data_version,
            "dataset": self.dataset,
        }


class Subscription:
    """One registered standing query and its bounded event buffer."""

    def __init__(
        self,
        subscription_id: str,
        query: str,
        threshold: float,
        vector: np.ndarray,
        buffer_size: int,
    ) -> None:
        self.id = subscription_id
        self.query = query
        self.threshold = float(threshold)
        self.vector = vector
        self._buffer: Deque[MatchEvent] = deque(maxlen=buffer_size)
        self._buffer_size = buffer_size
        self._sequence = itertools.count(1)
        self.matches_total = 0
        self.dropped_total = 0
        self.delivered_total = 0

    def next_sequence(self) -> int:
        """Monotonic per-subscription event sequence number."""
        return next(self._sequence)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable description plus delivery counters."""
        return {
            "id": self.id,
            "query": self.query,
            "threshold": self.threshold,
            "buffer_size": self._buffer_size,
            "pending": len(self._buffer),
            "matches_total": self.matches_total,
            "delivered_total": self.delivered_total,
            "dropped_total": self.dropped_total,
        }


class SubscriptionManager:
    """Registry of standing queries plus the push/drain machinery.

    ``encode`` turns a query string into a vector in the class-embedding
    space (the system's :class:`~repro.encoders.text.TextEncoder` bound at
    construction); it runs once per registration, so scoring a segment is
    pure ``numpy``.  All state is guarded by one condition variable — the
    same one long-polling consumers park on.
    """

    def __init__(
        self,
        encode: Callable[[str], np.ndarray],
        config: StreamConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._encode = encode
        self._config = config or StreamConfig()
        self._subscriptions: Dict[str, Subscription] = {}
        self._condition = create_condition("SubscriptionManager._condition")
        self._id_counter = itertools.count(1)
        registry = registry or REGISTRY
        self._matches_counter = registry.counter(
            "lovo_stream_match_events_total",
            "Standing-query match events pushed by the ingest pipeline",
        )
        self._dropped_counter = registry.counter(
            "lovo_stream_match_events_dropped_total",
            "Standing-query match events dropped from full subscriber buffers",
        )
        self._subscriptions_gauge = registry.gauge(
            "lovo_stream_subscriptions",
            "Currently registered standing queries",
        )

    def register(self, query: str, threshold: float) -> Subscription:
        """Register a standing query; returns the live subscription."""
        text = str(query).strip()
        if not text:
            raise StreamError("A standing query needs non-empty query text")
        threshold = float(threshold)
        vector = np.asarray(self._encode(text), dtype=np.float64).reshape(-1)
        with self._condition:
            if len(self._subscriptions) >= MAX_SUBSCRIPTIONS:
                raise SubscriptionLimitError(
                    f"At most {MAX_SUBSCRIPTIONS} standing queries "
                    "may be registered at once"
                )
            subscription = Subscription(
                subscription_id=f"sub-{next(self._id_counter):06d}",
                query=text,
                threshold=threshold,
                vector=vector,
                buffer_size=self._config.subscription_buffer_size,
            )
            self._subscriptions[subscription.id] = subscription
            self._subscriptions_gauge.set(len(self._subscriptions))
        return subscription

    def unregister(self, subscription_id: str) -> None:
        """Remove a subscription; unknown ids raise."""
        with self._condition:
            if self._subscriptions.pop(subscription_id, None) is None:
                raise SubscriptionNotFoundError(
                    f"Unknown subscription {subscription_id!r}"
                )
            self._subscriptions_gauge.set(len(self._subscriptions))
            # Wake any poller parked on the removed subscription so it can
            # observe the deletion instead of sleeping out its full timeout.
            self._condition.notify_all()

    def get(self, subscription_id: str) -> Subscription:
        """The live subscription; unknown ids raise."""
        with self._condition:
            subscription = self._subscriptions.get(subscription_id)
            if subscription is None:
                raise SubscriptionNotFoundError(
                    f"Unknown subscription {subscription_id!r}"
                )
            return subscription

    def list(self) -> List[Dict[str, object]]:
        """Descriptions of every registered subscription."""
        with self._condition:
            return [entry.to_dict() for entry in self._subscriptions.values()]

    def __len__(self) -> int:
        with self._condition:
            return len(self._subscriptions)

    def score_batch(
        self,
        encodings: Sequence[PatchEncoding],
        data_version: int,
        dataset: str = "",
    ) -> int:
        """Score one freshly indexed segment against every standing query.

        Returns the number of match events pushed (after per-segment capping
        and buffer-overflow drops are applied).  Called by the ingest
        pipeline's index stage with the segment's encodings — the only data
        a standing query ever sees is data that is already queryable.
        """
        if not encodings:
            return 0
        with self._condition:
            subscriptions = list(self._subscriptions.values())
        if not subscriptions:
            return 0
        matrix = np.stack([encoding.class_embedding for encoding in encodings])
        cap = self._config.max_matches_per_segment
        pushed = 0
        for subscription in subscriptions:
            scores = matrix @ subscription.vector
            hits = np.flatnonzero(scores >= subscription.threshold)
            if hits.shape[0] == 0:
                continue
            if hits.shape[0] > cap:
                # Keep the best-scoring matches (ties broken by position so
                # the selection is deterministic), delivered in score order.
                hits = hits[np.lexsort((hits, -scores[hits]))[:cap]]
            else:
                hits = hits[np.lexsort((hits, -scores[hits]))]
            with self._condition:
                if subscription.id not in self._subscriptions:
                    continue  # unregistered while we were scoring
                for position in hits:
                    encoding = encodings[int(position)]
                    event = MatchEvent(
                        subscription_id=subscription.id,
                        sequence=subscription.next_sequence(),
                        patch_id=encoding.patch_id,
                        frame_id=encoding.frame_id,
                        video_id=encoding.video_id,
                        score=float(scores[position]),
                        data_version=int(data_version),
                        dataset=dataset,
                    )
                    if len(subscription._buffer) == subscription._buffer.maxlen:
                        subscription.dropped_total += 1
                        self._dropped_counter.inc()
                    subscription._buffer.append(event)
                    subscription.matches_total += 1
                    pushed += 1
                self._condition.notify_all()
        if pushed:
            self._matches_counter.inc(pushed)
        return pushed

    def poll(
        self,
        subscription_id: str,
        timeout: float | None = None,
        max_events: int = 64,
    ) -> List[MatchEvent]:
        """Drain up to ``max_events`` buffered matches, long-polling if empty.

        Blocks until at least one event is buffered or ``timeout`` seconds
        (clamped to the configured ceiling) have passed; an empty list means
        the poll timed out.  Unknown ids raise — including when the
        subscription is deleted *while* the caller is parked.
        """
        if timeout is None:
            timeout = DEFAULT_POLL_SECONDS
        timeout = min(max(float(timeout), 0.0), MAX_POLL_SECONDS)
        max_events = max(1, int(max_events))
        deadline = time.monotonic() + timeout
        with self._condition:
            while True:
                subscription = self._subscriptions.get(subscription_id)
                if subscription is None:
                    raise SubscriptionNotFoundError(
                        f"Unknown subscription {subscription_id!r}"
                    )
                if subscription._buffer:
                    events = [
                        subscription._buffer.popleft()
                        for _ in range(min(max_events, len(subscription._buffer)))
                    ]
                    subscription.delivered_total += len(events)
                    return events
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._condition.wait(remaining)

    def stats(self) -> Dict[str, object]:
        """Aggregate counters for ``stats()``/metrics surfaces."""
        with self._condition:
            subscriptions = list(self._subscriptions.values())
        return {
            "subscriptions": len(subscriptions),
            "matches_total": sum(entry.matches_total for entry in subscriptions),
            "delivered_total": sum(entry.delivered_total for entry in subscriptions),
            "dropped_total": sum(entry.dropped_total for entry in subscriptions),
            "pending": sum(len(entry._buffer) for entry in subscriptions),
        }


__all__ = ["MatchEvent", "Subscription", "SubscriptionManager"]
