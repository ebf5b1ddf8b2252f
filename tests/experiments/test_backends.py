"""Execution backends: selection, the broker state machine, queue faults.

Three layers of guarantees (ISSUE 5 / DESIGN.md §9):

* backend selection — ``REPRO_BACKEND`` / ``backend=`` pick serial,
  local-pool or queue execution without changing results or keys;
* the lease/retry state machine of :class:`FileBroker` — exercised
  in-process, deterministically, without worker subprocesses;
* fault injection end to end — a killed worker, an expired lease and a
  corrupted result payload must never corrupt, duplicate or silently
  drop a grid point, and progress events must stay consistent across
  batch retries (the double-tick fix).
"""

import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.backends import (
    QueueBackend,
    SerialBackend,
    _tail_worker_logs,
    default_backend_name,
    resolve_backend,
    run_batch,
)
from repro.experiments.broker import (
    FileBroker,
    MessageError,
    QueueError,
    RemotePointError,
    decode_message,
    encode_message,
)
from repro.experiments.cache import ResultCache
from repro.experiments.plan import ExperimentPoint, build_plan, point_key
from repro.experiments.scheduler import run_plan, run_points
from repro.experiments.tracing import SharedTraces
from repro.faults.policy import PointTimeout
from repro.pipeline.trace import record_trace
from repro.workloads.registry import get_program

PLAN_KW = dict(configurations=("baseline", "current"), depths=(20, 40),
               benchmarks=("li",), scale=0.01, warmup=50)


def small_plan():
    return build_plan(**PLAN_KW)


def queue_backend(**overrides):
    """A QueueBackend sized for tests: fast polls, hard timeout."""
    kw = dict(workers=2, lease_timeout=10.0, poll=0.01, timeout=180.0)
    kw.update(overrides)
    return QueueBackend(**kw)


class TestBackendSelection:
    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend_name() is None
        for name in ("serial", "local", "queue"):
            monkeypatch.setenv("REPRO_BACKEND", name)
            assert default_backend_name() == name
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        assert default_backend_name() is None
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            default_backend_name()

    def test_auto_matches_historical_behaviour(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None, jobs=1, pending=9).name == "serial"
        assert resolve_backend(None, jobs=4, pending=1).name == "serial"
        assert resolve_backend(None, jobs=4, pending=9).name == "local"

    def test_instance_passthrough_and_bad_names(self):
        backend = SerialBackend()
        assert resolve_backend(backend, jobs=4, pending=9) is backend
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("hadoop", jobs=4, pending=9)
        with pytest.raises(TypeError):
            resolve_backend(42, jobs=4, pending=9)

    def test_explicit_serial_overrides_jobs(self):
        """backend="serial" must not shard even with many workers."""
        events = []
        run_plan(small_plan(), jobs=4, use_cache=False, backend="serial",
                 progress=events.append)
        assert events and all(e.source == "serial" for e in events)

    def test_env_backend_drives_run_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        events = []
        run_plan(small_plan(), jobs=4, use_cache=False,
                 progress=events.append)
        assert events and all(e.source == "serial" for e in events)


class TestProgressRetryConsistency:
    def test_replayed_ticks_from_a_retried_batch_are_deduped(self):
        """The double-tick fix, isolated from queue timing: a backend
        whose batch is retried re-reports ticks for points that already
        streamed; the callback must still see one event per point, a
        monotone completed counter and stable batch metadata."""
        from repro.experiments.backends import ExecutionBackend, _compute_batch

        class RetriedBatchBackend(ExecutionBackend):
            name = "retried"
            source = "queue"

            def execute(self, batches, report, *, jobs):
                for batch_id, group in batches.items():
                    entries = _compute_batch(group)
                    # Attempt 1 completed two points, then "crashed".
                    for index in range(min(2, len(group))):
                        report.tick(batch_id, index)
                    # Attempt 2 re-runs the whole batch from the start.
                    for index, (status, payload, _meta) in enumerate(entries):
                        report.tick(batch_id, index)
                        report.deliver(batch_id, index, payload)

        events = []
        plan = small_plan()
        results = run_plan(plan, jobs=2, use_cache=False,
                           backend=RetriedBatchBackend(),
                           progress=events.append)
        assert len(results) == len(plan)
        assert len(events) == len(plan)           # no double ticks
        assert {e.point for e in events} == set(plan)
        assert [e.completed for e in events] == list(
            range(1, len(plan) + 1))
        for event in events:
            assert event.batch_size == sum(
                1 for e in events if e.batch_id == event.batch_id)


def batch_point(configuration="baseline", depth=20, benchmark="li",
                speculation="redirect"):
    return ExperimentPoint(benchmark, configuration, depth, scale=0.01,
                           warmup=50, speculation=speculation).resolve()


class BatchLog:
    """Callbacks for :func:`run_batch` that record what they were told,
    in order, as ``(event, index, ...)`` tuples."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def ok(self, index, payload, meta, duration) -> None:
        assert duration >= 0.0
        self.events.append(("ok", index, payload, meta))

    def error(self, index, exc) -> None:
        self.events.append(("error", index, exc))

    def lower(self) -> None:
        self.events.append(("lower",))

    def run(self, points, **kw) -> bool:
        return run_batch(points, on_ok=self.ok, on_error=self.error,
                         on_lower=self.lower, **kw)

    def kinds(self) -> list:
        return [event[0] for event in self.events]

    def oks(self) -> list[tuple]:
        return [event for event in self.events if event[0] == "ok"]


class TestRunBatch:
    """The one batch loop every backend and the worker share: per point
    trace fetch, one-time lowering tick, deadline, execute, meta."""

    GROUP = ("baseline", "current", "perfect")

    def group(self):
        return [batch_point(configuration) for configuration in self.GROUP]

    def test_reports_every_point_in_order(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        log = BatchLog()
        assert log.run(self.group()) is True
        assert [event[1] for event in log.oks()] == [0, 1, 2]
        for _, _, payload, meta in log.oks():
            assert payload["instructions"] > 0
            assert meta["trace_source"] == "local"
            assert meta["kernel_source"] == "kernel"

    def test_kernel_and_live_batches_deliver_equal_payloads(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        kernel = BatchLog()
        kernel.run(self.group())
        monkeypatch.setenv("REPRO_TRACE", "0")
        live = BatchLog()
        live.run(self.group())
        assert ([event[2] for event in kernel.oks()]
                == [event[2] for event in live.oks()])
        assert {event[3]["kernel_source"] for event in live.oks()} \
            == {"live"}

    def test_lowering_ticks_once_before_the_first_point(self,
                                                        monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        log = BatchLog()
        log.run(self.group())
        assert log.kinds() == ["lower", "ok", "ok", "ok"]

    def test_no_lowering_tick_without_traces(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        log = BatchLog()
        log.run(self.group())
        assert log.kinds() == ["ok", "ok", "ok"]
        assert {event[3]["trace_source"] for event in log.oks()} \
            == {"live"}

    def test_failure_is_isolated_per_point(self):
        points = self.group()
        points.insert(1, batch_point(benchmark="no-such-benchmark"))
        log = BatchLog()
        assert log.run(points) is True
        assert [(event[0], event[1]) for event in log.events
                if event[0] != "lower"] == [
            ("ok", 0), ("error", 1), ("ok", 2), ("ok", 3)]

    def test_before_point_can_stop_the_batch(self):
        log = BatchLog()
        asked = []

        def before_point(index):
            asked.append(index)
            return index < 1

        assert log.run(self.group(), before_point=before_point) is False
        assert asked == [0, 1]
        assert [event[1] for event in log.oks()] == [0]

    def test_shipped_trace_reaches_only_redirect_points(self):
        program = get_program("li", scale=0.01, seed=1)
        shipped = record_trace(program)
        points = [batch_point("baseline"),
                  batch_point("baseline", speculation="wrongpath"),
                  batch_point("current")]
        log = BatchLog()
        log.run(points, shipped=shipped)
        metas = [event[3] for event in log.oks()]
        assert [meta["kernel_source"] for meta in metas] == [
            "kernel", "live", "kernel"]
        assert {meta["trace_source"] for meta in metas} == {"shipped"}
        assert log.kinds()[0] == "lower"

    def test_caller_pool_spans_batches(self, monkeypatch):
        """The serial backend hands one pool to every batch: two
        single-point batches of one workload still share a recording."""
        import repro.experiments.tracing as tracing

        monkeypatch.setenv("REPRO_TRACE", "1")
        recorded = []
        real = tracing.record_workload

        def counting(*identity):
            recorded.append(identity)
            return real(*identity)

        monkeypatch.setattr(tracing, "record_workload", counting)
        first, second = batch_point("baseline"), batch_point("current")
        traces = SharedTraces([first, second])
        for group in ([first], [second]):
            log = BatchLog()
            log.run(group, traces=traces)
            assert log.oks()[0][3]["kernel_source"] == "kernel"
        assert recorded == [("li", 0.01, 1)]

    def test_deadline_overrun_is_reported_as_an_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "0.001")
        log = BatchLog()
        assert log.run([batch_point()]) is True
        assert log.kinds() == ["error"]
        assert isinstance(log.events[0][2], PointTimeout)


class TestSerialFailureIsolation:
    def test_bad_point_does_not_discard_serial_siblings(self, tmp_path):
        """The serial backend isolates per-point failures exactly like a
        worker batch: completed siblings reach the cache, the failure is
        raised once the sweep drains."""
        store = ResultCache(tmp_path)
        good = [ExperimentPoint("li", "baseline", 20, scale=0.01,
                                warmup=50),
                ExperimentPoint("li", "current", 20, scale=0.01,
                                warmup=50)]
        bad = ExperimentPoint("no-such-benchmark", "baseline", 20,
                              scale=0.01, warmup=50)
        with pytest.raises(Exception):
            run_points([good[0], bad, good[1]], jobs=1, cache=store,
                       backend="serial")
        assert all(point_key(p) in store for p in good)


class TestMessageCodec:
    def test_round_trip(self):
        blob = bytes(range(256))
        payload = {"job_id": "j1", "points": [{"benchmark": "li"}],
                   "scale": 0.01}
        message = decode_message(encode_message("job", payload, blob))
        assert message.kind == "job"
        assert message.payload == payload
        assert message.blob == blob

    def test_empty_blob_round_trip(self):
        message = decode_message(encode_message("result", {"entries": []}))
        assert message.blob == b""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_truncation_and_bitflips_always_raise(self, data):
        """The wire-format fuzz property: no corrupted message may ever
        decode — a truncation or bit flip anywhere (magic, length field,
        JSON body, digest, blob) raises MessageError."""
        blob = encode_message(
            "job", {"job_id": "j", "n": 7, "xs": [1, 2, 3]}, b"\x00case")
        if data.draw(st.booleans(), label="truncate"):
            cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
            corrupted = blob[:cut]
        else:
            pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
            bit = data.draw(st.integers(0, 7), label="bit")
            mutated = bytearray(blob)
            mutated[pos] ^= 1 << bit
            corrupted = bytes(mutated)
        with pytest.raises(MessageError):
            decode_message(corrupted)

    def test_format_version_mismatch(self, monkeypatch):
        import repro.experiments.broker as broker_module

        blob = encode_message("job", {})
        monkeypatch.setattr(broker_module, "MESSAGE_FORMAT_VERSION", 999)
        with pytest.raises(MessageError, match="format"):
            decode_message(blob)


class TestFileBrokerStateMachine:
    """The lease/retry lifecycle, driven in-process (no subprocesses)."""

    def test_submit_lease_complete_collect(self, tmp_path):
        broker = FileBroker(tmp_path)
        broker.submit("j1", {"points": [1, 2]}, b"trace-bytes")
        assert broker.queued_count() == 1
        leased = broker.lease()
        assert leased.job_id == "j1"
        assert leased.message.payload == {"points": [1, 2]}
        assert leased.message.blob == b"trace-bytes"
        assert broker.queued_count() == 0 and broker.leased_count() == 1
        broker.complete("j1", {"entries": [["ok", {}]]})
        assert broker.leased_count() == 0
        [(job_id, message)] = broker.collect_results()
        assert job_id == "j1"
        assert message.payload["entries"] == [["ok", {}]]
        assert broker.collect_results() == []  # consumed

    def test_lease_is_exclusive_and_fifo(self, tmp_path):
        broker = FileBroker(tmp_path)
        broker.submit("a", {"n": 1})
        broker.submit("b", {"n": 2})
        first, second = broker.lease(), broker.lease()
        assert {first.job_id, second.job_id} == {"a", "b"}
        assert broker.lease() is None

    def test_expiry_renew_and_tick_heartbeat(self, tmp_path):
        broker = FileBroker(tmp_path, lease_timeout=0.2)
        broker.submit("j1", {})
        broker.lease()
        assert broker.expired() == []
        time.sleep(0.25)
        assert broker.expired() == ["j1"]
        broker.renew("j1")
        assert broker.expired() == []
        time.sleep(0.25)
        broker.tick("j1", 0)       # ticks also heartbeat the lease
        assert broker.expired() == []

    def test_requeue_cycle_after_expiry(self, tmp_path):
        """The scheduler-side retry: remove the stale lease, resubmit,
        and the job becomes leasable again with its new attempt."""
        broker = FileBroker(tmp_path, lease_timeout=0.1)
        broker.submit("j1", {"attempt": 1})
        broker.lease()
        assert broker.expired() == []  # first observation: joins counter
        time.sleep(0.15)               # tracking (coarse-mtime floor),
        assert broker.expired() == ["j1"]  # then the stalled counter fires
        broker.remove("j1")
        broker.submit("j1", {"attempt": 2})
        assert broker.expired() == []
        leased = broker.lease()
        assert leased.message.payload == {"attempt": 2}

    def test_ticks_drain_incrementally(self, tmp_path):
        broker = FileBroker(tmp_path)
        broker.submit("j1", {})
        broker.lease()
        broker.tick("j1", 0)
        broker.tick("j1", 1)
        assert broker.drain_ticks() == [("j1", 0, None), ("j1", 1, None)]
        assert broker.drain_ticks() == []
        broker.tick("j1", 2)
        assert broker.drain_ticks() == [("j1", 2, None)]

    def test_ticks_carry_optional_durations(self, tmp_path):
        broker = FileBroker(tmp_path)
        broker.submit("j1", {})
        broker.lease()
        broker.tick("j1", 0, 0.25)
        broker.tick("j1", 1)             # legacy bare-index line
        assert broker.drain_ticks() == [("j1", 0, 0.25), ("j1", 1, None)]

    def test_torn_tick_line_is_left_for_next_drain(self, tmp_path):
        broker = FileBroker(tmp_path)
        path = broker.ticks_dir / "j1.ticks"
        path.write_bytes(b"0\n1")        # "1" has no newline yet
        assert broker.drain_ticks() == [("j1", 0, None)]
        with open(path, "ab") as handle:
            handle.write(b"\n")
        assert broker.drain_ticks() == [("j1", 1, None)]

    def test_corrupt_result_surfaces_as_message_error(self, tmp_path):
        broker = FileBroker(tmp_path)
        broker.submit("j1", {})
        broker.lease()
        good = encode_message("result", {"entries": []})
        mutated = bytearray(good)
        mutated[len(mutated) // 2] ^= 0xFF
        broker.complete("j1", {}, raw=bytes(mutated))
        [(job_id, outcome)] = broker.collect_results()
        assert job_id == "j1"
        assert isinstance(outcome, MessageError)

    def test_corrupt_queued_job_is_leased_with_error(self, tmp_path):
        """A job file that fails its checksum is still leased (so it
        stops bouncing) and reported, never executed."""
        broker = FileBroker(tmp_path)
        broker.submit("j1", {"points": []})
        path = broker.queue_dir / "j1.msg"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        leased = broker.lease()
        assert leased.job_id == "j1"
        assert leased.message is None
        assert "checksum" in leased.error or "malformed" in leased.error

    def test_remove_clears_queue_and_lease(self, tmp_path):
        broker = FileBroker(tmp_path)
        broker.submit("j1", {})
        broker.remove("j1")
        assert broker.lease() is None
        broker.submit("j2", {})
        broker.lease()
        broker.remove("j2")
        assert broker.leased_count() == 0

    def test_malformed_job_ids_rejected(self, tmp_path):
        broker = FileBroker(tmp_path)
        for bad in ("", "../escape", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                broker.submit(bad, {})


class TestQueueBackendEndToEnd:
    """Real ``python -m repro.worker`` subprocesses behind run_plan."""

    @pytest.fixture(scope="class")
    def serial_results(self):
        return run_plan(small_plan(), jobs=1, use_cache=False,
                        backend="serial")

    def test_grid_matches_serial_and_ships_traces(self, serial_results):
        backend = queue_backend()
        queued = run_plan(small_plan(), jobs=2, use_cache=False,
                          backend=backend)
        assert queued == serial_results
        # Every redirect batch replayed the parent's shipped trace — the
        # acceptance marker for cluster-shared functional runs.
        assert backend.trace_sources
        assert set(backend.trace_sources.values()) == {"shipped"}
        # ...and workers lowered the shipped trace locally: every batch
        # replayed through the compiled kernel — never "live".
        assert set(backend.trace_sources) == set(backend.kernel_sources)
        assert set(backend.kernel_sources.values()) == {"kernel"}

    def test_worker_crash_mid_batch_recovers(self, serial_results):
        """Kill a worker mid-batch (fault injection): the lease expires,
        the batch requeues, a sibling/respawned worker finishes it, and
        the results still match the serial backend bit for bit."""
        backend = queue_backend(lease_timeout=0.5,
                                worker_args=("--crash-after-points", "1"))
        events = []
        queued = run_plan(small_plan(), jobs=2, use_cache=False,
                          backend=backend, progress=events.append)
        assert queued == serial_results
        assert backend.requeues >= 1          # the crashed lease expired
        assert backend.respawns >= 1          # and the worker was replaced
        # The satellite progress property: one event per point even
        # though the retried batch re-ran already-ticked points, with
        # consistent batch metadata and a monotone completed counter
        # (lower-phase pseudo-ticks are likewise deduped per batch and
        # never advance the counter).
        plan = small_plan()
        point_events = [e for e in events if e.phase == "point"]
        lower_events = [e for e in events if e.phase == "lower"]
        assert len(point_events) + len(lower_events) == len(events)
        assert len(point_events) == len(plan)
        assert {e.point for e in point_events} == set(plan)
        assert [e.completed for e in point_events] == list(
            range(1, len(plan) + 1))
        sizes = {}
        for event in events:
            assert event.batch_id is not None
            assert event.total == len(plan)
            assert sizes.setdefault(event.batch_id, event.batch_size) \
                == event.batch_size
        for batch_id, size in sizes.items():
            assert sum(1 for e in point_events
                       if e.batch_id == batch_id) == size
            assert sum(1 for e in lower_events
                       if e.batch_id == batch_id) <= 1

    def test_corrupt_result_payload_is_retried(self, serial_results):
        """A result that fails its checksum is never delivered: the job
        requeues and the healthy retry produces correct results."""
        backend = queue_backend(workers=1,
                                worker_args=("--corrupt-results", "1"))
        queued = run_plan(small_plan(), jobs=2, use_cache=False,
                          backend=backend)
        assert queued == serial_results
        assert backend.corrupt_results >= 1
        assert backend.requeues >= 1

    def test_retries_are_bounded_and_typed(self):
        """A batch that can never produce a valid result fails with a
        QueueError naming its attempt history — not a hang, not a
        silent drop."""
        backend = queue_backend(workers=1, max_attempts=2, timeout=60.0,
                                worker_args=("--corrupt-results", "99"))
        with pytest.raises(QueueError, match="after 2 attempt"):
            run_plan(small_plan(), jobs=2, use_cache=False,
                     backend=backend)

    def test_no_workers_without_external_broker_fails_fast(self):
        """workers=0 with a private temp broker could never complete —
        it must raise immediately, not hang."""
        backend = queue_backend(workers=0)
        with pytest.raises(QueueError, match="external broker"):
            run_plan(small_plan(), jobs=2, use_cache=False,
                     backend=backend)

    def test_crash_looping_workers_fail_loudly(self, monkeypatch):
        """Workers that die before ever producing a result (here: an
        unknown CLI flag) must raise a diagnostic QueueError instead of
        respawning forever.  Degradation is disabled so the typed error
        surfaces instead of the grid falling back to the local pool (the
        fallback path has its own test in test_faults.py)."""
        monkeypatch.setenv("REPRO_DEGRADE", "0")
        backend = queue_backend(workers=1, timeout=120.0,
                                worker_args=("--definitely-not-a-flag",))
        with pytest.raises(QueueError, match="crash-looping"):
            run_plan(small_plan(), jobs=2, use_cache=False,
                     backend=backend)

    def test_per_point_failure_is_final_and_isolated(self, tmp_path):
        """A deterministic worker-side point failure (unknown benchmark)
        comes back typed on the first attempt; siblings still land in
        the cache."""
        store = ResultCache(tmp_path)
        good = [ExperimentPoint("li", "baseline", 20, scale=0.01,
                                warmup=50),
                ExperimentPoint("li", "current", 20, scale=0.01,
                                warmup=50)]
        bad = ExperimentPoint("no-such-benchmark", "baseline", 20,
                              scale=0.01, warmup=50)
        backend = queue_backend()
        with pytest.raises(RemotePointError, match="no-such-benchmark"):
            run_points([good[0], bad, good[1]], jobs=2, cache=store,
                       backend=backend)
        assert backend.requeues == 0          # deterministic => no retry
        assert all(point_key(p) in store for p in good)

    def test_wrongpath_grid_runs_live_on_workers(self):
        plan = build_plan(("baseline",), (20, 40), ("li",), scale=0.01,
                          warmup=50, speculation="wrongpath")
        serial = run_plan(plan, jobs=1, use_cache=False, backend="serial")
        backend = queue_backend()
        queued = run_plan(plan, jobs=2, use_cache=False, backend=backend)
        assert queued == serial
        assert set(backend.trace_sources.values()) == {"live"}


class TestWorkerEntrypoint:
    def test_module_is_runnable_and_documents_flags(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.worker", "--help"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src" + os.pathsep
                 + os.environ.get("PYTHONPATH", "")},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)))))
        assert proc.returncode == 0
        assert "--broker" in proc.stdout
        assert "--crash-after-points" in proc.stdout

    def test_idle_worker_exits_cleanly(self, tmp_path):
        FileBroker(tmp_path)  # create the directory layout
        proc = subprocess.run(
            [sys.executable, "-m", "repro.worker", "--broker",
             str(tmp_path), "--poll", "0.01", "--idle-exit", "0.05"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": "src" + os.pathsep
                 + os.environ.get("PYTHONPATH", "")},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)))))
        assert proc.returncode == 0, proc.stderr

    def test_sigkilled_worker_leaves_lease_to_expire(self, tmp_path):
        """The generic crash path (no injection flag): SIGKILL a live
        worker and verify its lease expires rather than completing."""
        broker = FileBroker(tmp_path, lease_timeout=0.2)
        point = ExperimentPoint("li", "baseline", 20, scale=0.01,
                                warmup=50)
        broker.submit("j1", {"job_id": "j1", "batch_id": "b0",
                             "attempt": 1, "points": [point.to_dict()]})
        env = {**os.environ, "PYTHONPATH": "src" + os.pathsep
               + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.worker", "--broker",
             str(tmp_path), "--poll", "0.01"],
            env=env, cwd=os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)))),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 30
            while broker.leased_count() == 0:
                assert time.monotonic() < deadline, "worker never leased"
                time.sleep(0.01)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            broker.expired()       # first observation joins counter
            time.sleep(0.25)       # tracking; the dead worker's counter
            assert broker.expired() == ["j1"] or \
                broker.collect_results()  # tiny point may have finished
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


# -- crash-report log tailing -------------------------------------------------


class TestWorkerLogTailing:
    """`_tail_worker_logs` assembles *diagnostics for a failure already
    being raised* — a log vanishing mid-collection (rotation, cleanup,
    a dying worker unlinking its own file) must be skipped, never allowed
    to replace the original QueueError with a stat traceback."""

    def test_log_vanishing_between_glob_and_stat_is_skipped(
            self, tmp_path, monkeypatch):
        import pathlib

        survivor = tmp_path / "worker-1.log"
        survivor.write_text("survivor tail")
        doomed = tmp_path / "worker-2.log"
        doomed.write_text("gone")
        real_stat = pathlib.Path.stat

        def racy_stat(self, **kwargs):
            if self.name == doomed.name:
                raise FileNotFoundError(f"vanished: {self}")
            return real_stat(self, **kwargs)

        monkeypatch.setattr(pathlib.Path, "stat", racy_stat)
        tail = _tail_worker_logs(tmp_path)
        assert "survivor tail" in tail
        assert survivor.name in tail

    def test_all_logs_vanished(self, tmp_path, monkeypatch):
        import pathlib

        (tmp_path / "worker-1.log").write_text("x")
        real_stat = pathlib.Path.stat

        def all_logs_vanished(self, **kwargs):
            if self.name.endswith(".log"):
                raise FileNotFoundError(f"vanished: {self}")
            return real_stat(self, **kwargs)

        monkeypatch.setattr(pathlib.Path, "stat", all_logs_vanished)
        assert _tail_worker_logs(tmp_path) == "(no worker logs found)"

    def test_unreadable_newest_log_is_reported_not_raised(
            self, tmp_path, monkeypatch):
        import pathlib

        (tmp_path / "worker-1.log").write_text("x")
        monkeypatch.setattr(
            pathlib.Path, "read_bytes",
            lambda self: (_ for _ in ()).throw(OSError("evicted")))
        assert "unreadable" in _tail_worker_logs(tmp_path)
