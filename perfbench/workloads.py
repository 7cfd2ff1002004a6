"""The benchmark workloads.

Each workload runs a fixed number of rounds spread across the measured time.
Every round builds a fresh system from the same inputs and uses its own
distinct query texts and segments.  Each timing is scaled by the host's speed
around it (:class:`HostSpeed`), and a metric is the median of its scaled
samples over the whole run.  Correctness and parity checks run inside the
rounds and raise :class:`CheckFailed` on any miss.
"""

from __future__ import annotations

import ctypes
import functools
import gc
import hashlib
import random
import shutil
import statistics
import threading
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence

import numpy as np
from repro import LOVO
from repro.config import QueryConfig, ServeConfig
from repro.errors import ServiceOverloadedError
from repro.eval import build_ground_truth, evaluate_results, queries_for_dataset
from repro.persist.delta import DeltaSnapshotStore
from repro.serve import ServingEngine
from repro.stream import StreamingIngestor

from perfbench import inputs
from perfbench.layers import QUERY_LAYERS, RERANK_LAYERS, SNAPSHOT_GROUPS, Recorder

# Longest any single future, ticket or join may take before the run fails.
WAIT_SECONDS = 60.0
# The first answer after set-up and after a warm start is the same fixed
# Table II text in every round and run, so those timings carry no input noise.
FIRST_TEXT = "A person walking on the street."
# Warm starts per round, each one sample.
WARM_REPEATS = 2
# Rates, which a slow host lowers; every other timing it raises.
RATES = ("query_qps", "ingest_items_s")
# Snapshot <-> live answers agree on ids, boxes and order; rerank scores may
# differ in the last bits (a known float-reduction difference after load).
SCORE_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """A correctness or parity check failed; the run must not report."""


class HostSpeed:
    """The host's speed, read from a fixed NumPy kernel that runs no repo code.

    A shared host runs the same work up to 1.6x slower, in stretches that
    last from a tenth of a second to minutes.  The kernel (BLAS matrix
    products and ``tanh`` on a 512 KiB matrix) slows down with it, so a
    timing multiplied by ``NOMINAL_S / kernel time`` reads as on a host where
    the kernel takes ``NOMINAL_S``.  The kernel is read only while no
    benchmark or system thread is busy, so it never competes with the work it
    scales.
    """

    NOMINAL_S = 0.0135  # the kernel's time on a 2-vCPU VM at its faster speed
    REPEATS = 5

    def __init__(self) -> None:
        self._matrix = np.random.default_rng(0).normal(size=(256, 256))
        self.kernel_s: List[float] = []  # every reading, for the report
        self._kernel()  # first-call costs stay out of the readings
        self._factor = self._read()

    def _kernel(self) -> float:
        started = time.perf_counter()
        matrix = self._matrix
        for _ in range(20):
            matrix = np.tanh(matrix @ matrix * 0.01)
        return time.perf_counter() - started

    def _read(self) -> float:
        # The host flips between speeds within a tenth of a second; the median
        # reading follows the mix that the work around it runs at.
        seconds = statistics.median(self._kernel() for _ in range(self.REPEATS))
        self.kernel_s.append(seconds)
        return self.NOMINAL_S / seconds

    def lap(self) -> float:
        """Read the host now; returns the scale of the work since the last lap.

        The scale is the mean of the two readings around the work: below 1
        while the host runs slow.
        """
        factor = self._read()
        scale, self._factor = (self._factor + factor) / 2.0, factor
        return scale


@dataclass
class Context:
    seed: int
    seconds: float
    rounds: int
    workdir: Path
    recorder: Recorder
    host: HostSpeed

    def paced(self) -> Iterator[int]:
        """Round indices, each started at its slot across the measured time."""
        start = time.perf_counter()
        for index in range(self.rounds):
            delay = start + index * self.seconds / self.rounds - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            yield index


@dataclass
class RunResult:
    rounds: List[Dict[str, float]] = field(default_factory=list)  # raw, for the report
    samples: Dict[str, List[float]] = field(default_factory=dict)  # host-scaled
    once: Dict[str, float] = field(default_factory=dict)  # measured once per run
    attempted: int = 0
    failed: int = 0
    checks: List[str] = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def fold(self, responses: Sequence) -> None:
        """Fold answers into the result checksum (ids, boxes, rounded scores)."""
        for response in responses:
            self.digest.update(response.query.encode())
            for hit in response.results:
                self.digest.update(
                    f"{hit.frame_id}|{hit.patch_id}|{hit.box.x:.9f},{hit.box.y:.9f},"
                    f"{hit.box.w:.9f},{hit.box.h:.9f}|{hit.score:.9f}".encode()
                )

    def passed(self, name: str) -> None:
        if name not in self.checks:
            self.checks.append(name)

    def sample(self, metric: str, value: float, scale: float) -> None:
        """Add one timing of ``metric``, scaled by the host's speed around it."""
        value = value / scale if metric in RATES else value * scale
        self.samples.setdefault(metric, []).append(value)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def same_answer(a, b, what: str, exact: bool = True) -> None:
    """Two query responses must return the same hits (scores within tolerance)."""
    expect(len(a.results) == len(b.results), f"{what}: {len(a.results)} vs {len(b.results)} hits")
    for left, right in zip(a.results, b.results):
        expect(
            (left.frame_id, left.patch_id, left.box) == (right.frame_id, right.patch_id, right.box),
            f"{what}: hit {left.patch_id} vs {right.patch_id}",
        )
        gap = abs(left.score - right.score)
        expect(gap == 0.0 if exact else gap <= SCORE_TOLERANCE, f"{what}: score gap {gap:.3g}")


def snapshot_bytes(root: Path) -> Dict[str, int]:
    sizes: Dict[str, int] = {}
    for path in root.rglob("*"):
        if path.is_file():
            group = SNAPSHOT_GROUPS.get(path.name, "other")
            sizes[group] = sizes.get(group, 0) + path.stat().st_size
    return sizes


def record_snapshot(recorder: Recorder, root: Path, vectors: int) -> float:
    """Record per-artifact sizes; returns bytes on disk per stored vector."""
    sizes = snapshot_bytes(root)
    for group, size in sizes.items():
        recorder.add(f"snapshot.{group}", size)
    recorder.add("snapshot.vectors", vectors)
    return sum(sizes.values()) / vectors


def table_ii_quality(answer: Callable[[List[str]], Sequence], corpus) -> float:
    """Mean AveP over the Table II queries of the corpus's datasets.

    Queries without ground truth in the corpus (Q1.4 has none in two
    Cityscapes videos) cannot be scored and are left out.
    """
    scores = []
    for dataset in corpus:
        scored = [
            (spec, truth) for spec in queries_for_dataset(dataset.name)
            if (truth := build_ground_truth(dataset, spec))
        ]
        responses = answer([spec.text for spec, _ in scored])
        for (_, truth), response in zip(scored, responses):
            scores.append(evaluate_results(response.results, truth))
    return statistics.fmean(scores)


def percentile(values: Sequence[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def timed(repeats: int, action: Callable[[], object]) -> tuple:
    """``repeats`` runs of ``action``: (seconds of each, last result)."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        result = action()
        samples.append(time.perf_counter() - started)
    return samples, result


# The C library the interpreter is linked against (its own symbols).
_LIBC = ctypes.CDLL(None)


def release_memory() -> None:
    """Free the last round's objects and hand freed heap back to the OS.

    For ``served_live`` only.  Without the trim (glibc ``malloc_trim``; a
    no-op elsewhere), each round's peak stacks on heap that earlier rounds'
    worker threads left fragmented, and the process peak varies from run to
    run by up to 5%.  With it, ``peak_rss_mb`` is the peak of one system.
    ``adhoc_serial`` is single-threaded and its peak is steady without it;
    there the trim made each round's ingest fault its memory in afresh, and
    across ten seeds on a 2-vCPU VM the spread of its ``ingest_items_s`` read
    0.23 and 0.30 with the trim against 0.12 to 0.17 without it.
    """
    gc.collect()
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is not None:
        trim(0)


def ingest_corpus(corpus) -> tuple:
    """Fresh system + base corpus; returns (system, seconds spent in ingest)."""
    system = LOVO()
    started = time.perf_counter()
    for dataset in corpus:
        system.ingest(dataset)
    return system, time.perf_counter() - started


# --------------------------------------------------------------- adhoc_serial

SERIAL_QUERIES = 8
BATCH_SIZE = 32
FRESH_SEGMENTS = 5


def adhoc_serial(ctx: Context) -> RunResult:
    """Offline ingest, serial queries, one batch of 32, save -> load, appends."""
    corpus = inputs.base_corpus()
    base_frames = sum(dataset.num_frames for dataset in corpus)
    pool = inputs.TextPool(ctx.seed)
    segments = inputs.segments(ctx.seed, FRESH_SEGMENTS * ctx.rounds)
    rec, out = ctx.recorder, RunResult()
    first_round = None  # round 0's first answer; every later round must match it

    for index in ctx.paced():
        texts = pool.take(SERIAL_QUERIES + BATCH_SIZE)
        serial_texts, batch_texts = texts[:SERIAL_QUERIES], texts[SERIAL_QUERIES:]
        round_started = time.perf_counter()
        ctx.host.lap()

        started = time.perf_counter()
        system, ingest_seconds = ingest_corpus(corpus)
        first = system.query(FIRST_TEXT)
        setup = time.perf_counter() - started
        scale = ctx.host.lap()
        out.sample("setup_s", setup, scale)
        out.sample("ingest_items_s", base_frames / ingest_seconds, scale)
        expect(bool(first.results), "first answer is empty")
        if first_round is None:
            first_round = first
        same_answer(first, first_round, "every round = first round")
        out.passed("every round = first round")

        layers_before, rerank_before = rec.layer_ms(QUERY_LAYERS), rec.layer_ms(RERANK_LAYERS)
        cpu_started, wall_started = time.process_time(), time.perf_counter()
        serial, latencies = [], []
        for text in serial_texts:
            started = time.perf_counter()
            serial.append(system.query(text))
            latencies.append((time.perf_counter() - started) * 1000.0)
        wall_ms = (time.perf_counter() - wall_started) * 1000.0
        scale = ctx.host.lap()
        for latency in latencies:
            out.sample("query_p50_ms", latency, scale)
        rec.add("process.cpu_ms", (time.process_time() - cpu_started) * 1000.0)
        rec.add("process.wall_ms", wall_ms)
        rec.add("process.queries", SERIAL_QUERIES)
        rec.add("serial.wall_ms", wall_ms)
        rec.add("serial.layers_ms", rec.layer_ms(QUERY_LAYERS) - layers_before)
        rec.add("serial.rerank_ms", rec.layer_ms(RERANK_LAYERS) - rerank_before)
        expect(all(response.results for response in serial), "serial answer is empty")

        started = time.perf_counter()
        batch = system.query_batch(batch_texts)
        batch_seconds = time.perf_counter() - started
        out.sample("query_qps", BATCH_SIZE / batch_seconds, ctx.host.lap())
        expect(batch.metadata["num_unique_queries"] == BATCH_SIZE, "batch texts are not distinct")
        out.attempted += 1 + SERIAL_QUERIES + BATCH_SIZE

        if index == 0:
            for position in (0, 1):
                same_answer(system.query(batch_texts[position]), batch.responses[position],
                            "query_batch = serial")
            out.passed("query_batch = serial")
            out.once["quality"] = table_ii_quality(
                lambda batch_of: system.query_batch(batch_of).responses, corpus)

        snapshot = ctx.workdir / f"snapshot-{index}"
        system.save(snapshot)
        if index == 0:
            out.once["snapshot_bytes_per_vector"] = record_snapshot(
                rec, snapshot, system.num_entities)
        ctx.host.lap()
        warm_seconds, warm = timed(WARM_REPEATS, lambda: LOVO.load(snapshot).query(FIRST_TEXT))
        scale = ctx.host.lap()
        for seconds in warm_seconds:
            out.sample("warm_start_s", seconds, scale)
        same_answer(warm, first, "snapshot = live", exact=False)
        out.passed("snapshot = live")
        shutil.rmtree(snapshot)
        out.attempted += WARM_REPEATS

        fresh = []
        ctx.host.lap()
        for segment in segments[index * FRESH_SEGMENTS:(index + 1) * FRESH_SEGMENTS]:
            started = time.perf_counter()
            summary = system.ingest(segment)
            fresh.append((time.perf_counter() - started) * 1000.0)
            # Patches have near-duplicates across frames, so the probe's own id
            # need not rank; new data is visible once its patches come back.
            probe = summary.encodings[len(summary.encodings) // 2]
            found = system.storage.search(probe.class_embedding, QueryConfig().fast_search_k)
            videos = {video.video_id for video in segment.videos}
            expect(any(hit.metadata.get("video_id") in videos for hit in found),
                   "appended segment not searchable")
        scale = ctx.host.lap()
        for latency in fresh:
            out.sample("fresh_p50_ms", latency, scale)
        out.passed("appended segment searchable")
        out.attempted += FRESH_SEGMENTS

        out.fold([first, *serial, *batch.responses, warm])
        out.rounds.append({
            "setup_s": setup,
            "query_p50_ms": statistics.median(latencies),
            "query_qps": BATCH_SIZE / batch_seconds,
            "ingest_items_s": base_frames / ingest_seconds,
            "fresh_p50_ms": statistics.median(fresh),
            "warm_start_s": min(warm_seconds),
            "round_s": time.perf_counter() - round_started,
        })
        del system
        gc.collect()
    return out


# ---------------------------------------------------------------- served_live

REQUESTS = 32
GROUP = 4  # requests in flight, submitted together; the last one is a repeat (25%)
# The segments go in back to back at one request position, so the encode and
# index stages overlap and the streamed frame rate is the pipeline's; the
# groups around it run beside ingest work and the rest stay clear of it.  The
# position is late in the round, so the host readings just before the
# segments and at the drain that ends the round bracket them closely.
SEGMENT_AT = 24
SEGMENTS = 3
STREAMED_FRAMES = 60  # about 6 key frames


class _ServedRound:
    """One client thread with ``GROUP`` requests in flight.

    Each group goes out back to back once the previous group is answered, so
    an idle worker coalesces it into one micro-batch: batch sizes, and with
    them the work shared per batch, do not hinge on thread scheduling.
    """

    def __init__(self, engine: ServingEngine, system: LOVO, texts: List[str], seed: int) -> None:
        self.engine, self.system = engine, system
        self.texts = iter(texts)
        self.rng = random.Random(seed)
        self.ttl = ServeConfig().cache_ttl_seconds
        self.futures: Dict[int, Future] = {}
        self.text_of: Dict[int, str] = {}
        self.epoch_of: Dict[int, int] = {}
        self.submitted: Dict[int, float] = {}
        self.done_at: Dict[int, float] = {}
        self.originals: List[int] = []
        self.rejected = 0

    def _stamp(self, position: int, _future: Future) -> None:
        self.done_at[position] = time.perf_counter()

    def _repeat_text(self) -> str:
        """A text whose answer came back at the current data epoch, within TTL.

        Prefer a finished answer; otherwise wait for the oldest outstanding
        request of this epoch.  Right after new data lands there may be none;
        the latest request is repeated then, and misses because the data moved.
        New data can also land between this pick and the cache lookup, so the
        hit share is at most, not exactly, one in ``GROUP``.  A repeated
        request that failed is repeated all the same, and counted if it fails
        again.
        """
        epoch, now = self.system.data_version, time.perf_counter()
        current = [j for j in self.originals if self.epoch_of[j] == epoch]
        ready = [j for j in current if j in self.done_at and now - self.done_at[j] < self.ttl]
        if ready:
            return self.text_of[self.rng.choice(ready)]
        target = current[0] if current else self.originals[-1]
        _, late = wait([self.futures[target]], WAIT_SECONDS)
        expect(not late, "served request did not resolve")
        return self.text_of[target]

    def run(self, submit_segments: Callable[[], None]) -> None:
        pending: List[Future] = []
        for position in range(REQUESTS):
            if position % GROUP == 0 and pending:
                _, late = wait(pending, WAIT_SECONDS)
                expect(not late, "served request did not resolve")
                pending = []
            if position == SEGMENT_AT:
                submit_segments()
            repeat = position % GROUP == GROUP - 1
            text = self._repeat_text() if repeat else next(self.texts)
            self.epoch_of[position] = self.system.data_version
            self.submitted[position] = time.perf_counter()
            try:
                future = self.engine.submit(text)
            except ServiceOverloadedError:
                self.rejected += 1
                continue
            self.text_of[position] = text
            future.add_done_callback(functools.partial(self._stamp, position))
            self.futures[position] = future
            pending.append(future)
            if not repeat:
                self.originals.append(position)
        _, late = wait(list(self.futures.values()), WAIT_SECONDS)
        expect(not late, f"{len(late)} served requests did not resolve")
        # Done-callbacks run just after a future resolves; let the last stamp.
        deadline = time.perf_counter() + 1.0
        while len(self.done_at) < len(self.futures) and time.perf_counter() < deadline:
            time.sleep(0.001)
        expect(len(self.done_at) == len(self.futures), "completion times missing")


def _serve(ctx: Context, out: RunResult, corpus, store: DeltaSnapshotStore,
           texts: List[str], segments: List, index: int) -> tuple:
    """The live part of a served round: (round values, quiet live answer, entities).

    The live system, its engine and its pipeline are local here, so they are
    gone once this returns and the checks that follow do not add to its
    memory peak.
    """
    rec = ctx.recorder
    ctx.host.lap()
    started = time.perf_counter()
    system, _ = ingest_corpus(corpus)
    store.initialize(system)
    engine = ServingEngine(system).start()
    try:
        ingestor = engine.attach_streaming(StreamingIngestor(system, delta_store=store))
        first = engine.query(FIRST_TEXT)
        setup = time.perf_counter() - started
        out.sample("setup_s", setup, ctx.host.lap())
        expect(bool(first.results), "first served answer is empty")
        out.attempted += 1
        if index == 0:
            out.once["quality"] = table_ii_quality(engine.query_many, corpus)
            ctx.host.lap()
        tickets: List[list] = []  # [segment, submitted, ticket, done]
        waiters: List[threading.Thread] = []
        before = paused = 0.0  # host scale of the requests before the segments; the
        # reading that takes it stalls the client for ``paused`` seconds

        def submit_segments() -> None:
            nonlocal before, paused
            # Every request so far is answered and the pipeline is idle: quiet.
            started = time.perf_counter()
            before = ctx.host.lap()
            paused = time.perf_counter() - started
            for segment in segments:
                entry = [segment, time.perf_counter(), None, None]
                entry[2] = ingestor.submit(segment)
                tickets.append(entry)

                def await_ticket(entry: list = entry) -> None:
                    if entry[2].wait(WAIT_SECONDS):
                        entry[3] = time.perf_counter()

                waiter = threading.Thread(target=await_ticket, name="bench-ticket")
                waiter.start()
                waiters.append(waiter)

        cache_before = engine.stats()["cache"]
        client = _ServedRound(engine, system, texts, ctx.seed * 31 + index)
        cpu_started, wall_started = time.process_time(), time.perf_counter()
        client.run(submit_segments)
        wall_ms = (time.perf_counter() - wall_started) * 1000.0
        cpu_ms = (time.process_time() - cpu_started) * 1000.0
        for waiter in waiters:
            waiter.join(WAIT_SECONDS)
        expect(ingestor.drain(WAIT_SECONDS), "streamed segments did not drain")
        after = ctx.host.lap()

        answered = [
            position for position, future in client.futures.items()
            if future.exception() is None
        ]
        out.attempted += REQUESTS + len(tickets)
        out.failed += client.rejected + len(client.futures) - len(answered)
        fresh_ms, streamed_frames, streamed_done = [], 0, []
        for segment, submitted, ticket, done in tickets:
            expect(ticket.done and done is not None, "segment ticket did not resolve")
            try:
                ticket.result(0)
            except Exception:  # noqa: BLE001 - any pipeline error fails the segment
                out.failed += 1
                continue
            fresh_ms.append((done - submitted) * 1000.0)
            out.sample("fresh_p50_ms", fresh_ms[-1], after)
            streamed_frames += segment.num_frames
            streamed_done.append(done)
        out.passed("every future and ticket resolved")
        expect(bool(answered) and bool(fresh_ms), "nothing was served or streamed")

        cache = engine.stats()["cache"]
        rec.add("serve_cache.hits", cache["hits"] - cache_before["hits"])
        rec.add("serve_cache.lookups", cache["hits"] + cache["misses"]
                - cache_before["hits"] - cache_before["misses"])
        rec.add("process.cpu_ms", cpu_ms)
        rec.add("process.wall_ms", wall_ms)
        rec.add("process.queries", len(answered))
        latencies = [
            (client.done_at[j] - client.submitted[j]) * 1000.0 for j in answered
        ]
        for j, latency in zip(answered, latencies):
            out.sample("query_p50_ms", latency, before if j < SEGMENT_AT else after)
        span = max(client.done_at[j] for j in answered) - min(
            client.submitted[j] for j in answered) - paused
        # First segment handed over -> last one answerable, pipeline loaded.
        streamed_seconds = max(streamed_done) - tickets[0][1]
        share = SEGMENT_AT / REQUESTS  # of the requests before the segments
        out.sample("query_qps", len(answered) / span, share * before + (1 - share) * after)
        out.sample("ingest_items_s", streamed_frames / streamed_seconds, after)

        live = system.query(FIRST_TEXT)
        same_answer(engine.query(FIRST_TEXT), live, "served = serial")
        out.passed("served = serial")
        out.attempted += 2
        out.fold([first, live])
        entities = system.num_entities
    finally:
        engine.stop(timeout=WAIT_SECONDS)
    return {
        "setup_s": setup,
        "query_p50_ms": statistics.median(latencies),
        "query_qps": len(answered) / span,
        "ingest_items_s": streamed_frames / streamed_seconds,
        "fresh_p50_ms": statistics.median(fresh_ms),
    }, live, entities


def served_live(ctx: Context) -> RunResult:
    """Served queries with a fixed repeat share while segments stream in.

    Set-up per round: ingest the base corpus, save it as the delta store's
    base, start the engine with streaming attached, answer one query.  Warm
    start and the streamed = offline check run after the live system is gone.
    """
    corpus = inputs.base_corpus()
    pool = inputs.TextPool(ctx.seed)
    segments = inputs.segments(ctx.seed, SEGMENTS * ctx.rounds, STREAMED_FRAMES)
    out = RunResult()

    for index in ctx.paced():
        round_started = time.perf_counter()
        round_segments = segments[index * SEGMENTS:(index + 1) * SEGMENTS]
        store = DeltaSnapshotStore(ctx.workdir / f"store-{index}")
        values, live, entities = _serve(
            ctx, out, corpus, store, pool.take(REQUESTS), round_segments, index)
        release_memory()

        ctx.host.lap()
        warm_seconds, warm = timed(WARM_REPEATS, lambda: store.load_system().query(FIRST_TEXT))
        scale = ctx.host.lap()
        for seconds in warm_seconds:
            out.sample("warm_start_s", seconds, scale)
        same_answer(warm, live, "delta replay = live", exact=False)
        out.passed("delta replay = live")
        out.attempted += WARM_REPEATS
        out.fold([warm])
        if index == 0:
            offline, _ = ingest_corpus(corpus)
            for segment in round_segments:
                offline.ingest(segment)
            expect(offline.num_entities == entities, "streamed and offline entity counts differ")
            same_answer(offline.query(FIRST_TEXT), live, "streamed = offline")
            out.passed("streamed = offline")
            out.once["snapshot_bytes_per_vector"] = record_snapshot(
                ctx.recorder, store.root, entities)
            del offline
        shutil.rmtree(store.root)

        values["warm_start_s"] = min(warm_seconds)
        values["round_s"] = time.perf_counter() - round_started
        out.rounds.append(values)
        release_memory()
    return out


WORKLOADS: Dict[str, tuple] = {
    # name: (function, rounds)
    "adhoc_serial": (adhoc_serial, 4),
    "served_live": (served_live, 4),
}
