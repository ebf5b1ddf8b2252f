"""Execution backends: selection, the one batch loop, failure isolation.

Guarantees (DESIGN.md §9):

* backend selection — ``REPRO_BACKEND`` / ``backend=`` pick serial or
  local-pool execution without changing results or keys, and any other
  name is rejected;
* :func:`~repro.experiments.backends.run_batch` — the batch loop both
  backends share: per-point trace fetch, one lowering tick, deadline,
  per-point failure isolation;
* a failing point never discards its siblings' completed results;
* a point a backend reports twice still yields one progress event.
"""

import pytest

from repro.experiments.backends import (
    SerialBackend,
    default_backend_name,
    resolve_backend,
    run_batch,
)
from repro.experiments.cache import ResultCache
from repro.experiments.plan import ExperimentPoint, build_plan, point_key
from repro.experiments.scheduler import run_plan, run_points
from repro.experiments.tracing import SharedTraces
from repro.faults.policy import PointTimeout

PLAN_KW = dict(configurations=("baseline", "current"), depths=(20, 40),
               benchmarks=("li",), scale=0.01, warmup=50)


def small_plan():
    return build_plan(**PLAN_KW)


class TestBackendSelection:
    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend_name() is None
        for name in ("serial", "local"):
            monkeypatch.setenv("REPRO_BACKEND", name)
            assert default_backend_name() == name
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        assert default_backend_name() is None
        for bad in ("bogus", "queue"):
            monkeypatch.setenv("REPRO_BACKEND", bad)
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
        for bad in ("hadoop", "queue"):
            with pytest.raises(ValueError, match="unknown backend"):
                resolve_backend(bad, jobs=4, pending=9)
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
        """A backend whose batch is retried re-reports ticks for points
        that already streamed; the callback must still see one event per
        point, a monotone completed counter and stable batch metadata."""
        from repro.experiments.backends import ExecutionBackend, _compute_batch

        class RetriedBatchBackend(ExecutionBackend):
            name = "retried"
            source = "retried"

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

    def run(self, points, **kw) -> None:
        run_batch(points, on_ok=self.ok, on_error=self.error,
                  on_lower=self.lower, **kw)

    def kinds(self) -> list:
        return [event[0] for event in self.events]

    def oks(self) -> list[tuple]:
        return [event for event in self.events if event[0] == "ok"]


class TestRunBatch:
    """The one batch loop both backends share: per point trace fetch,
    one-time lowering tick, deadline, execute, meta."""

    GROUP = ("baseline", "current", "perfect")

    def group(self):
        return [batch_point(configuration) for configuration in self.GROUP]

    def test_reports_every_point_in_order(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        log = BatchLog()
        log.run(self.group())
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
        log.run(points)
        assert [(event[0], event[1]) for event in log.events
                if event[0] != "lower"] == [
            ("ok", 0), ("error", 1), ("ok", 2), ("ok", 3)]

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
        log.run([batch_point()])
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
