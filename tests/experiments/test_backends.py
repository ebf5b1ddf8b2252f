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
from tests.conftest import count_tiers

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

    def ok(self, index, payload, duration) -> None:
        assert duration >= 0.0
        self.events.append(("ok", index, payload))

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
    execute, report; the ledger's phase spans name each point's tier."""

    GROUP = ("baseline", "current", "perfect")

    def group(self):
        return [batch_point(configuration) for configuration in self.GROUP]

    def test_reports_every_point_in_order(self, tmp_path):
        log = BatchLog()
        _, tiers = count_tiers(tmp_path, lambda: log.run(self.group()))
        assert [event[1] for event in log.oks()] == [0, 1, 2]
        for _, _, payload in log.oks():
            assert payload["instructions"] > 0
        assert tiers == {"replay": 3}

    def test_kernel_and_live_batches_deliver_equal_payloads(self):
        kernel = BatchLog()
        kernel.run(self.group())
        assert ([event[2] for event in kernel.oks()]
                == [execute_point(point, trace=False).to_dict()
                    for point in self.group()])

    def test_points_run_live_without_traces(self, tmp_path):
        """A wrongpath point gets no trace, so it runs live."""
        log = BatchLog()
        _, tiers = count_tiers(tmp_path, lambda: log.run(
            [batch_point(configuration, speculation="wrongpath")
             for configuration in self.GROUP]))
        assert log.kinds() == ["ok", "ok", "ok"]
        assert tiers == {"live": 3}

    def test_failure_is_isolated_per_point(self):
        points = self.group()
        points.insert(1, batch_point(benchmark="no-such-benchmark"))
        log = BatchLog()
        log.run(points)
        assert [(event[0], event[1]) for event in log.events] == [
            ("ok", 0), ("error", 1), ("ok", 2), ("ok", 3)]

    def test_caller_pool_spans_batches(self, monkeypatch, tmp_path):
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
        for index, group in enumerate(([first], [second])):
            log = BatchLog()
            _, tiers = count_tiers(tmp_path / str(index),
                                   lambda: log.run(group, traces=traces))
            assert log.kinds() == ["ok"]
            assert tiers == {"replay": 1}
        assert recorded == [("li", 0.01, 1)]


class TestSharedEpisodes:
    """Wrongpath points share their workload's episode store: one for the
    serial sweep, one per pool batch.  Either way every point equals the
    point run on its own store."""

    PLAN = dict(configurations=("baseline", "current"), depths=(20, 60),
                benchmarks=("m88ksim",), scale=0.01, warmup=50,
                speculation="wrongpath")

    def test_pool_batches_equal_the_serial_sweep(self):
        from repro.experiments.backends import _make_batches

        plan = build_plan(**self.PLAN)
        # Two batches of one workload: two stores on the pool, one in
        # the serial sweep.
        assert len(_make_batches(list(plan), 2)) == 2
        serial = run_plan(plan, jobs=1, use_cache=False, backend="serial")
        pooled = run_plan(plan, jobs=2, use_cache=False, backend="local")
        assert pooled == serial == {point: execute_point(point)
                                    for point in plan}
        assert all(result.wrong_path_instructions > 0
                   for result in serial.values())

    def test_batch_shares_one_store_and_the_pool_drops_it(self,
                                                         monkeypatch):
        from repro.experiments import runner

        handed = []
        real = runner.execute_point

        def recording(point, **kwargs):
            handed.append(kwargs["episodes"])
            return real(point, **kwargs)

        monkeypatch.setattr(runner, "execute_point", recording)
        points = list(build_plan(**self.PLAN))
        traces = SharedTraces(points)
        log = BatchLog()
        log.run(points, traces=traces)
        assert log.kinds() == ["ok"] * len(points)
        assert handed[0] is not None and len(handed[0]) > 0
        assert all(store is handed[0] for store in handed)
        assert not traces._episodes and not traces._traces


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
