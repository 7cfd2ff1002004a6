"""Tests for the LOVO concurrency lint pass and the runtime lockdep sanitizer.

Covers, per ISSUE 10:

* each LOVO rule with a firing fixture AND a clean counterexample,
* suppression-comment handling (same line, comment-above, def-level),
* the text/JSON reporters and the ``python -m repro.analysis`` entry point
  running clean on this repository,
* the lockdep runtime: a deterministic ABBA deadlock raising
  :class:`LockOrderViolation` *before* the deadlock, re-entrancy, Condition
  integration, hold budgets, and the zero-overhead disabled path,
* regression tests for the genuine findings the pass surfaced (engine
  KeyboardInterrupt forwarding, ingestor SystemExit unwinding, the
  double-build flush race, the attach_streaming race).
"""

from __future__ import annotations

import json
import textwrap
import threading
import time
from types import SimpleNamespace
from typing import List, Optional, Sequence

import numpy as np
import pytest

from repro import LOVOConfig, ServeConfig
from repro.analysis import (
    RULES,
    analyze_source,
    parse_suppressions,
    render_json,
    render_text,
)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.engine import Analyzer, analyze_paths
from repro.config import IndexConfig
from repro.core.query import QueryOptions
from repro.core.results import BatchQueryResponse, QueryResponse
from repro.core.summary import SummaryOutput
from repro.serve import PendingQuery, ServingEngine
from repro.stream.ingestor import StreamingIngestor
from repro.utils.locking import (
    LockHeldTooLong,
    LockOrderViolation,
    OrderedLock,
    OrderedRLock,
    create_condition,
    create_lock,
    create_rlock,
    instrument_locks,
    lockdep,
    lockdep_enabled,
)
from repro.vectordb.collection import VectorCollection


def codes(source: str, *, include_suppressed: bool = False) -> List[str]:
    """Unsuppressed rule codes for an inline module, in report order."""
    findings = analyze_source(textwrap.dedent(source))
    return [
        finding.code
        for finding in findings
        if include_suppressed or not finding.suppressed
    ]


# --------------------------------------------------------------------------
# LOVO001 — unguarded mutation from a thread-entry callable
# --------------------------------------------------------------------------


class TestLOVO001:
    def test_fires_on_unguarded_worker_mutation(self):
        assert "LOVO001" in codes(
            """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def start(self):
                    threading.Thread(target=self._run, daemon=True).start()

                def add(self):
                    with self._lock:
                        self._count += 1

                def _run(self):
                    self._count += 1
            """
        )

    def test_clean_when_worker_takes_the_lock(self):
        assert "LOVO001" not in codes(
            """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def start(self):
                    threading.Thread(target=self._run, daemon=True).start()

                def add(self):
                    with self._lock:
                        self._count += 1

                def _run(self):
                    with self._lock:
                        self._count += 1
            """
        )

    def test_clean_for_non_thread_methods_and_init(self):
        # Unlocked mutation from a plain (caller-context) method is not the
        # worker-thread hazard this rule encodes.
        assert "LOVO001" not in codes(
            """
            import threading

            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._value = 0

                def locked_set(self, v):
                    with self._lock:
                        self._value = v

                def unlocked_set(self, v):
                    self._value = v
            """
        )


# --------------------------------------------------------------------------
# LOVO002 — static lock-order inversion
# --------------------------------------------------------------------------


class TestLOVO002:
    def test_fires_on_inverted_nesting(self):
        found = codes(
            """
            import threading

            class TwoLocks:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def backward(self):
                    with self._b:
                        with self._a:
                            pass
            """
        )
        assert "LOVO002" in found

    def test_clean_on_consistent_order(self):
        assert "LOVO002" not in codes(
            """
            import threading

            class TwoLocks:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._a:
                        with self._b:
                            pass
            """
        )

    def test_cycle_detected_across_files(self):
        analyzer = Analyzer()
        analyzer.add_source(
            textwrap.dedent(
                """
                import threading

                class Pair:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def forward(self):
                        with self._a:
                            with self._b:
                                pass
                """
            ),
            "first.py",
        )
        analyzer.add_source(
            textwrap.dedent(
                """
                import threading

                class Pair:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def backward(self):
                        with self._b:
                            with self._a:
                                pass
                """
            ),
            "second.py",
        )
        findings = analyzer.finalize()
        paths = {f.path for f in findings if f.code == "LOVO002"}
        assert paths == {"first.py", "second.py"}


# --------------------------------------------------------------------------
# LOVO003 — blocking call under a held lock
# --------------------------------------------------------------------------


class TestLOVO003:
    def test_fires_on_sleep_under_lock(self):
        assert "LOVO003" in codes(
            """
            import threading
            import time

            class Sleepy:
                def __init__(self):
                    self._lock = threading.Lock()

                def work(self):
                    with self._lock:
                        time.sleep(1.0)
            """
        )

    def test_fires_on_queue_get_under_lock(self):
        assert "LOVO003" in codes(
            """
            import queue
            import threading

            class Consumer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._queue = queue.Queue()

                def take(self):
                    with self._lock:
                        return self._queue.get()
            """
        )

    def test_clean_when_blocking_happens_outside_lock(self):
        assert "LOVO003" not in codes(
            """
            import threading
            import time

            class Sleepy:
                def __init__(self):
                    self._lock = threading.Lock()

                def work(self):
                    with self._lock:
                        pass
                    time.sleep(1.0)
            """
        )

    def test_condition_wait_on_held_lock_is_exempt(self):
        # Condition.wait releases the lock it waits on; that is the one
        # blocking call that is *correct* inside its own with block.
        assert "LOVO003" not in codes(
            """
            import threading

            class Waiter:
                def __init__(self):
                    self._state = threading.Condition()

                def wait_done(self):
                    with self._state:
                        self._state.wait(1.0)
            """
        )

    def test_dict_get_is_not_a_queue_get(self):
        assert "LOVO003" not in codes(
            """
            import threading

            class Lookup:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._table = {}

                def fetch(self, key):
                    with self._lock:
                        return self._table.get(key)
            """
        )


# --------------------------------------------------------------------------
# LOVO004 — time.time() for durations
# --------------------------------------------------------------------------


class TestLOVO004:
    def test_fires_on_time_time(self):
        assert "LOVO004" in codes(
            """
            import time

            def measure():
                start = time.time()
                return time.time() - start
            """
        )

    def test_fires_on_bare_from_import(self):
        assert "LOVO004" in codes(
            """
            from time import time

            def stamp():
                return time()
            """
        )

    def test_clean_on_perf_counter(self):
        assert "LOVO004" not in codes(
            """
            import time

            def measure():
                start = time.perf_counter()
                return time.perf_counter() - start
            """
        )


# --------------------------------------------------------------------------
# LOVO005 — unbounded growth in concurrent classes
# --------------------------------------------------------------------------


class TestLOVO005:
    def test_fires_on_unbounded_append(self):
        assert "LOVO005" in codes(
            """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._log = []

                def handle(self, item):
                    with self._lock:
                        self._log.append(item)
            """
        )

    def test_clean_with_eviction(self):
        assert "LOVO005" not in codes(
            """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._log = []

                def handle(self, item):
                    with self._lock:
                        self._log.append(item)
                        if len(self._log) > 100:
                            self._log.pop(0)
            """
        )

    def test_clean_with_bounded_deque(self):
        assert "LOVO005" not in codes(
            """
            import threading
            from collections import deque

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._log = deque(maxlen=100)

                def handle(self, item):
                    with self._lock:
                        self._log.append(item)
            """
        )

    def test_plain_data_classes_are_out_of_scope(self):
        # No lock, no threads: not a long-running concurrent structure.
        assert "LOVO005" not in codes(
            """
            class Bag:
                def __init__(self):
                    self._items = []

                def add(self, item):
                    self._items.append(item)
            """
        )


# --------------------------------------------------------------------------
# LOVO006 — overbroad except
# --------------------------------------------------------------------------


class TestLOVO006:
    def test_fires_on_bare_except(self):
        assert "LOVO006" in codes(
            """
            def run(task):
                try:
                    task()
                except:
                    pass
            """
        )

    def test_fires_on_swallowed_base_exception(self):
        assert "LOVO006" in codes(
            """
            def run(task):
                try:
                    task()
                except BaseException:
                    return None
            """
        )

    def test_clean_when_reraised(self):
        assert "LOVO006" not in codes(
            """
            def run(task):
                try:
                    task()
                except BaseException as error:
                    log(error)
                    raise
            """
        )

    def test_clean_on_plain_exception(self):
        # ``except Exception`` already lets KeyboardInterrupt/SystemExit fly.
        assert "LOVO006" not in codes(
            """
            def run(task):
                try:
                    task()
                except Exception:
                    pass
            """
        )


# --------------------------------------------------------------------------
# Suppressions
# --------------------------------------------------------------------------


class TestSuppressions:
    SOURCE = """
    import time

    def stamp():
        return time.time()  # lovo: ignore[LOVO004] wall-clock export timestamp
    """

    def test_trailing_comment_suppresses_with_justification(self):
        findings = analyze_source(textwrap.dedent(self.SOURCE))
        assert [f.code for f in findings] == ["LOVO004"]
        assert findings[0].suppressed
        assert findings[0].justification == "wall-clock export timestamp"

    def test_comment_above_suppresses_next_line(self):
        findings = analyze_source(
            textwrap.dedent(
                """
                import time

                def stamp():
                    # lovo: ignore[LOVO004] epoch timestamps for the API payload
                    return time.time()
                """
            )
        )
        assert findings[0].suppressed

    def test_def_level_suppression_covers_whole_function(self):
        findings = analyze_source(
            textwrap.dedent(
                """
                import time

                def stamps():  # lovo: ignore[LOVO004] wall-clock by design
                    first = time.time()
                    second = time.time()
                    return first, second
                """
            )
        )
        assert len(findings) == 2
        assert all(f.suppressed for f in findings)

    def test_mismatched_code_does_not_suppress(self):
        findings = analyze_source(
            textwrap.dedent(
                """
                import time

                def stamp():
                    return time.time()  # lovo: ignore[LOVO003] wrong code
                """
            )
        )
        assert not findings[0].suppressed

    def test_bare_ignore_suppresses_all_codes(self):
        findings = analyze_source(
            textwrap.dedent(
                """
                import time

                def stamp():
                    return time.time()  # lovo: ignore
                """
            )
        )
        assert findings[0].suppressed

    def test_parse_suppressions_reads_codes_and_justification(self):
        parsed = parse_suppressions(
            "x = 1  # lovo: ignore[LOVO001, LOVO004] two reasons here\n"
        )
        assert parsed[0].line == 1
        assert parsed[0].codes == {"LOVO001", "LOVO004"}
        assert parsed[0].justification == "two reasons here"


# --------------------------------------------------------------------------
# Reporters, CLI, and the repo itself
# --------------------------------------------------------------------------


class TestReporting:
    def _analyzer(self) -> Analyzer:
        analyzer = Analyzer()
        analyzer.add_source(
            textwrap.dedent(
                """
                import time

                def a():
                    return time.time()

                def b():
                    return time.time()  # lovo: ignore[LOVO004] by design
                """
            ),
            "sample.py",
        )
        analyzer.finalize()
        return analyzer

    def test_text_report_has_location_and_summary(self):
        text = render_text(self._analyzer())
        assert "sample.py:5" in text
        assert "LOVO004" in text
        assert "1 finding(s), 1 suppressed" in text

    def test_json_report_round_trips(self):
        payload = json.loads(render_json(self._analyzer(), show_suppressed=True))
        assert payload["counts"] == {"unsuppressed": 1, "suppressed": 1}
        assert payload["checked_files"] == 1
        assert {f["code"] for f in payload["findings"]} == {"LOVO004"}
        assert set(payload["rules"]) == set(RULES)

    def test_syntax_error_is_reported_not_crashed(self):
        analyzer = Analyzer()
        analyzer.add_source("def broken(:\n", "bad.py")
        analyzer.finalize()
        assert analyzer.errors and "bad.py" in analyzer.errors[0]

    def test_repo_is_clean(self, capsys):
        # The merge gate: zero unsuppressed findings on the shipped package.
        assert analysis_main(["--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["unsuppressed"] == 0

    def test_cli_exits_nonzero_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad_module.py"
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert analysis_main([str(bad)]) == 1
        assert "LOVO004" in capsys.readouterr().out

    def test_analyze_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n"
        )
        analyzer = analyze_paths([tmp_path])
        assert [f.code for f in analyzer.unsuppressed] == ["LOVO004"]


# --------------------------------------------------------------------------
# Lockdep runtime
# --------------------------------------------------------------------------


@pytest.fixture
def lockdep_on():
    instrument_locks(True)
    lockdep.reset()
    yield lockdep
    lockdep.reset()
    instrument_locks(None)


class TestLockdep:
    def test_abba_raises_deterministically_across_threads(self, lockdep_on):
        lock_a = OrderedLock("abba.A")
        lock_b = OrderedLock("abba.B")

        def establish_ab() -> None:
            with lock_a:
                with lock_b:
                    pass

        first = threading.Thread(target=establish_ab)
        first.start()
        first.join(timeout=5.0)
        assert not first.is_alive()

        caught: List[BaseException] = []

        def invert_ba() -> None:
            try:
                with lock_b:
                    with lock_a:  # pragma: no cover - never reached
                        pass
            except LockOrderViolation as error:
                caught.append(error)

        second = threading.Thread(target=invert_ba)
        second.start()
        # The violation is raised *before* blocking on lock_a, so this join
        # always returns: the test never deadlocks even on regression it
        # would fail by timeout, not hang the suite forever.
        second.join(timeout=5.0)
        assert not second.is_alive()
        assert len(caught) == 1
        message = str(caught[0])
        assert "abba.A" in message and "abba.B" in message

    def test_edge_graph_records_order_with_sites(self, lockdep_on):
        lock_a = OrderedLock("graph.A")
        lock_b = OrderedLock("graph.B")
        with lock_a:
            with lock_b:
                pass
        edges = lockdep.edges()
        assert "graph.B" in edges["graph.A"]
        assert "test_analysis.py" in edges["graph.A"]["graph.B"]

    def test_rlock_reentrancy_is_not_a_violation(self, lockdep_on):
        rlock = OrderedRLock("reent.R")
        with rlock:
            with rlock:
                assert lockdep.held_names() == ["reent.R"]
        assert lockdep.held_names() == []

    def test_plain_lock_self_deadlock_raises(self, lockdep_on):
        lock = OrderedLock("self.L")
        lock.acquire()
        try:
            with pytest.raises(LockOrderViolation, match="Self-deadlock"):
                lock.acquire()
        finally:
            lock.release()

    def test_same_name_instances_do_not_edge(self, lockdep_on):
        # Per-instance locks of the same lock class (e.g. two Trace._lock
        # instances) follow the kernel-lockdep nesting convention: no edge,
        # in either order.
        first = OrderedLock("shared.name")
        second = OrderedLock("shared.name")
        with first:
            with second:
                pass
        with second:
            with first:
                pass
        assert "shared.name" not in lockdep.edges()

    def test_condition_wait_suspends_held_record(self, lockdep_on):
        condition = create_condition("cond.state")
        done: List[bool] = []

        def waiter() -> None:
            with condition:
                condition.wait(timeout=5.0)
                done.append(True)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        with condition:
            condition.notify_all()
        thread.join(timeout=5.0)
        assert done == [True]
        assert lockdep.held_names() == []

    def test_hold_budget_violation_recorded(self, lockdep_on):
        previous = lockdep.budget_seconds
        lockdep.budget_seconds = 0.01
        try:
            lock = OrderedLock("budget.L")
            with pytest.warns(LockHeldTooLong):
                with lock:
                    time.sleep(0.05)
            assert any(
                violation["name"] == "budget.L"
                for violation in lockdep.hold_violations
            )
        finally:
            lockdep.budget_seconds = previous

    def test_factories_return_plain_primitives_when_disabled(self):
        instrument_locks(False)
        try:
            assert not lockdep_enabled()
            assert not isinstance(create_lock("x"), OrderedLock)
            assert not isinstance(create_rlock("x"), OrderedLock)
            assert not isinstance(
                create_condition("x")._lock, OrderedLock  # noqa: SLF001
            )
        finally:
            instrument_locks(None)

    def test_factories_return_tracked_locks_when_enabled(self, lockdep_on):
        assert lockdep_enabled()
        assert isinstance(create_lock("x"), OrderedLock)
        assert isinstance(create_rlock("x"), OrderedRLock)


# --------------------------------------------------------------------------
# Regression tests for the findings the pass surfaced
# --------------------------------------------------------------------------


class _EngineStub:
    """Duck-typed system for ServingEngine whose query path raises on demand."""

    def __init__(self, error: Optional[BaseException] = None) -> None:
        self.config = LOVOConfig()
        self.error = error

    def query_batch(self, texts: Sequence[str], *, options=None):
        if self.error is not None:
            raise self.error
        responses = [
            QueryResponse(query=text, results=[], timings={}) for text in texts
        ]
        return BatchQueryResponse(queries=list(texts), responses=responses)


def _pending(text: str = "a red car") -> PendingQuery:
    return PendingQuery(
        text=text,
        enqueued_at=time.perf_counter(),
        options=QueryOptions(top_n=3),
        trace=None,
    )


class TestEngineControlFlowRegression:
    def _engine(self, error: Optional[BaseException]) -> ServingEngine:
        config = ServeConfig(num_workers=1, queue_size=4, cache_size=0)
        return ServingEngine(_EngineStub(error), config)

    def test_keyboard_interrupt_reaches_future_and_unwinds(self):
        engine = self._engine(KeyboardInterrupt())
        pending = _pending()
        # The fix: the future is failed AND the interrupt still propagates
        # (pre-fix it was swallowed, leaving a worker that ignored Ctrl-C).
        with pytest.raises(KeyboardInterrupt):
            engine._process_group(pending.options, [pending])
        assert isinstance(pending.future.exception(), KeyboardInterrupt)

    def test_plain_exception_is_contained(self):
        engine = self._engine(ValueError("boom"))
        pending = _pending()
        engine._process_group(pending.options, [pending])
        assert isinstance(pending.future.exception(), ValueError)

    def test_attach_streaming_race_returns_single_ingestor(self):
        engine = self._engine(None)

        class FakeIngestor:
            def __init__(self) -> None:
                self.starts = 0

            def start(self):
                self.starts += 1
                return self

            def stop(self, drain=True, timeout=None):
                pass

        fakes = [FakeIngestor() for _ in range(2)]
        barrier = threading.Barrier(2)
        attached: List[object] = []

        def attach(fake: FakeIngestor) -> None:
            barrier.wait()
            attached.append(engine.attach_streaming(fake))

        threads = [threading.Thread(target=attach, args=(fake,)) for fake in fakes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(attached) == 2
        assert attached[0] is attached[1]
        assert sum(fake.starts for fake in fakes) == 1

    def test_stop_joins_workers_outside_lifecycle_lock(self):
        # stop() must not hold the lifecycle lock across worker joins: a
        # stats() caller (which never touches the lock) plus a concurrent
        # stop() must both complete promptly while a slow batch drains.
        engine = self._engine(None)
        engine.start()
        future = engine.submit("a red car")
        future.result(timeout=10.0)
        engine.stop(timeout=5.0)
        assert not engine.running


class _StreamStub:
    """Duck-typed system for StreamingIngestor with a scriptable summarizer."""

    def __init__(self) -> None:
        self.config = LOVOConfig()
        self.errors: List[BaseException] = []
        self.ingested: List[str] = []
        self.data_version = 0
        self.text_encoder = SimpleNamespace(
            encode=lambda text: np.zeros(8, dtype=np.float64)
        )
        self.tracer = SimpleNamespace(
            start=lambda **kwargs: None, finish=lambda trace, **kwargs: None
        )
        self.summarizer = SimpleNamespace(summarize=self._summarize)

    def _summarize(self, dataset) -> SummaryOutput:
        if self.errors:
            raise self.errors.pop(0)
        return SummaryOutput()

    def ingest_summary(self, dataset_name: str, summary: SummaryOutput) -> None:
        self.ingested.append(dataset_name)
        self.data_version += 1


class TestIngestorControlFlowRegression:
    def test_value_error_resolves_ticket_and_keeps_pipeline_alive(self):
        system = _StreamStub()
        system.errors.append(ValueError("encode failed"))
        ingestor = StreamingIngestor(system).start()
        try:
            bad = ingestor.submit(SimpleNamespace(name="seg-bad"))
            with pytest.raises(ValueError):
                bad.result(timeout=10.0)
            # The stage survived the plain exception: a follow-up succeeds.
            good = ingestor.submit(SimpleNamespace(name="seg-good"))
            good.result(timeout=10.0)
            assert system.ingested == ["seg-good"]
        finally:
            ingestor.stop(timeout=10.0)

    # The stage unwinding with SystemExit is exactly the asserted behavior;
    # pytest's thread-excepthook warning about it is expected noise here.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_system_exit_resolves_ticket_then_kills_stage(self):
        system = _StreamStub()
        system.errors.append(SystemExit(3))
        ingestor = StreamingIngestor(system).start()
        ticket = ingestor.submit(SimpleNamespace(name="seg-exit"))
        with pytest.raises(SystemExit):
            ticket.result(timeout=10.0)
        # The fix: SystemExit unwinds the encode stage (pre-fix the thread
        # swallowed it and kept consuming), and the index stage is told to
        # stop so shutdown cannot hang.
        ingestor._encode_thread.join(timeout=10.0)
        assert not ingestor._encode_thread.is_alive()
        ingestor._index_thread.join(timeout=10.0)
        assert not ingestor._index_thread.is_alive()


class TestCollectionFlushRegression:
    def test_concurrent_first_searches_build_once(self):
        # HNSW, not flat: a flat collection has no index whose build to count.
        collection = VectorCollection("c", 4, IndexConfig(index_type="hnsw"))
        rng = np.random.default_rng(7)
        vectors = rng.normal(size=(8, 4))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        collection.insert([f"id-{i}" for i in range(8)], vectors)

        build_calls: List[int] = []
        original_build = collection._index.build

        def slow_build() -> None:
            build_calls.append(1)
            time.sleep(0.05)
            original_build()

        collection._index.build = slow_build
        barrier = threading.Barrier(2)
        errors: List[BaseException] = []

        def first_search() -> None:
            try:
                barrier.wait(timeout=5.0)
                collection.search(vectors[0], 1)
            except BaseException as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        threads = [threading.Thread(target=first_search) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors
        # Pre-fix both racing first-searches ran build(); now the flush is
        # serialised and the second caller sees _built already set.
        assert len(build_calls) == 1
