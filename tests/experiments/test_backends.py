"""Execution backends: selection, the one batch loop, failure isolation.

Guarantees (DESIGN.md §9):

* backend selection — ``backend=`` picks serial or local-pool execution
  without changing results or keys; any other value, and a stray
  ``REPRO_BACKEND`` in the environment, is rejected;
* :func:`~repro.experiments.backends.run_batch` — the batch loop both
  backends share: per-point trace fetch, per-point failure isolation;
* a failing point never discards its siblings' completed results.
"""

import pytest

from repro.experiments.backends import resolve_backend, run_batch
from repro.experiments.cache import ResultCache
from repro.experiments.plan import ExperimentPoint, build_plan, point_key
from repro.experiments.runner import execute_point
from repro.experiments.scheduler import run_plan, run_points
from repro.experiments.tracing import SharedTraces
from repro.settings import SettingsError

PLAN_KW = dict(configurations=("baseline", "current"), depths=(20, 40),
               benchmarks=("li",), scale=0.01, warmup=50)


def small_plan():
    return build_plan(**PLAN_KW)


class TestBackendSelection:
    def test_auto_matches_historical_behaviour(self):
        assert resolve_backend(None, jobs=1, pending=9) == "serial"
        assert resolve_backend(None, jobs=4, pending=1) == "serial"
        assert resolve_backend(None, jobs=4, pending=9) == "local"

    @pytest.mark.parametrize("bad", ["hadoop", "queue", "Serial", 42,
                                     pytest.param(object(), id="object")])
    def test_other_backends_raise(self, bad):
        with pytest.raises(ValueError, match="unknown backend"):
            run_plan(small_plan(), jobs=2, use_cache=False, backend=bad)

    def test_explicit_serial_overrides_jobs(self):
        """backend="serial" must not shard even with many workers."""
        events = []
        run_plan(small_plan(), jobs=4, use_cache=False, backend="serial",
                 progress=events.append)
        assert events and all(e.source == "serial" for e in events)

    def test_env_backend_is_rejected(self, monkeypatch):
        """``REPRO_BACKEND`` is gone; a shell that still exports it must
        not quietly run the pool."""
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        with pytest.raises(SettingsError, match="REPRO_BACKEND"):
            run_plan(small_plan(), jobs=4, use_cache=False)


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

    def run(self, points, **kw) -> None:
        run_batch(points, on_ok=self.ok, on_error=self.error, **kw)

    def kinds(self) -> list:
        return [event[0] for event in self.events]

    def oks(self) -> list[tuple]:
        return [event for event in self.events if event[0] == "ok"]


class TestRunBatch:
    """The one batch loop both backends share: per point trace fetch,
    execute, meta."""

    GROUP = ("baseline", "current", "perfect")

    def group(self):
        return [batch_point(configuration) for configuration in self.GROUP]

    def test_reports_every_point_in_order(self):
        log = BatchLog()
        log.run(self.group())
        assert [event[1] for event in log.oks()] == [0, 1, 2]
        for _, _, payload, meta in log.oks():
            assert payload["instructions"] > 0
            assert meta == {"kernel_source": "kernel"}

    def test_kernel_and_live_batches_deliver_equal_payloads(self):
        kernel = BatchLog()
        kernel.run(self.group())
        assert ([event[2] for event in kernel.oks()]
                == [execute_point(point, trace=False).to_dict()
                    for point in self.group()])

    def test_points_run_live_without_traces(self):
        """A wrongpath point gets no trace, so it runs (and is reported)
        live."""
        log = BatchLog()
        log.run([batch_point(configuration, speculation="wrongpath")
                 for configuration in self.GROUP])
        assert log.kinds() == ["ok", "ok", "ok"]
        assert {event[3]["kernel_source"] for event in log.oks()} \
            == {"live"}

    def test_failure_is_isolated_per_point(self):
        points = self.group()
        points.insert(1, batch_point(benchmark="no-such-benchmark"))
        log = BatchLog()
        log.run(points)
        assert [(event[0], event[1]) for event in log.events] == [
            ("ok", 0), ("error", 1), ("ok", 2), ("ok", 3)]

    def test_caller_pool_spans_batches(self, monkeypatch):
        """The serial backend hands one pool to every batch: two
        single-point batches of one workload still share a recording."""
        import repro.experiments.tracing as tracing

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
