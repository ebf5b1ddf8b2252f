"""Experiment-service trace layer: sharing policy and equality.

The satellite property for PR 4: trace-replayed grids equal live-core
grids ``==`` across workloads x configurations x depths x both
speculation modes.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.plan import ExperimentPoint, plan_from_points
from repro.experiments.runner import execute_point
from repro.experiments.scheduler import run_plan
from repro.experiments.tracing import SharedTraces, amortized_workloads
from repro.pipeline.trace import record_trace
from repro.settings import SettingsError, current
from repro.workloads.registry import get_program

SCALE = 0.02
WARMUP = 200


def point(benchmark="m88ksim", configuration="baseline", depth=20,
          seed=1, speculation="redirect"):
    return ExperimentPoint(benchmark, configuration, depth, scale=SCALE,
                           warmup=WARMUP, seed=seed,
                           speculation=speculation).resolve()


class TestKnobs:
    def test_trace_mode_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert current().trace is True
        for off in ("0", "false", "no", "off", "OFF"):
            monkeypatch.setenv("REPRO_TRACE", off)
            assert current().trace is False
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert current().trace is True
        # The on-disk trace store is gone: its mode is a typo now.
        monkeypatch.setenv("REPRO_TRACE", "disk")
        with pytest.raises(SettingsError, match="REPRO_TRACE"):
            current()


class TestSharedTraces:
    def test_wrongpath_points_stay_live(self):
        points = [point(speculation="wrongpath") for _ in range(3)]
        traces = SharedTraces(points)
        assert all(traces.get(p) is None for p in points)

    def test_single_redirect_point_stays_live_in_memory_mode(self,
                                                             monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        single = point()
        traces = SharedTraces([single])
        assert traces.get(single) is None  # nothing to amortize against

    def test_shared_workload_records_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        points = [point(configuration=c) for c in ("baseline", "current")]
        traces = SharedTraces(points)
        first = traces.get(points[0])
        second = traces.get(points[1])
        assert first is not None and first is second  # one recording

    def test_off_mode_disables_sharing(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        points = [point(configuration=c) for c in ("baseline", "current")]
        traces = SharedTraces(points)
        assert traces.get(points[0]) is None

    def test_pool_drops_trace_after_last_consumer(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        points = [point(configuration=c) for c in ("baseline", "current")]
        traces = SharedTraces(points)
        traces.get(points[0])
        assert traces._traces  # held for the remaining consumer
        traces.get(points[1])
        assert not traces._traces  # released: bounded memory


class TestAmortizationRule:
    """``amortized_workloads`` is the one owner of the record-or-not
    rule; :class:`SharedTraces` defers to it."""

    M88 = ("m88ksim", SCALE, 1)

    @pytest.mark.parametrize("mode,points,expected", [
        ("1", [point()], []),
        ("1", [point(), point(configuration="current")], [M88]),
        ("0", [point(), point(configuration="current")], []),
        ("1", [point(speculation="wrongpath"),
               point(speculation="wrongpath")], []),
        ("1", [point(), point(speculation="wrongpath")], []),
        ("1", [point(seed=1), point(seed=2)], []),
        ("1", [point(benchmark="li"), point(), point(benchmark="li"),
               point()], [("li", SCALE, 1), M88]),
    ], ids=["single-memory", "shared-memory", "off",
            "wrongpath-only", "wrongpath-does-not-count",
            "seeds-are-distinct", "first-appearance-order"])
    def test_rule(self, monkeypatch, mode, points, expected):
        monkeypatch.setenv("REPRO_TRACE", mode)
        assert amortized_workloads(points) == expected


class TestExecutePointTraceArgument:
    def test_invalid_trace_values_rejected_clearly(self):
        with pytest.raises(TypeError, match="CommittedTrace"):
            execute_point(point(), trace=True)
        with pytest.raises(TypeError, match="CommittedTrace"):
            execute_point(point(), trace="yes")

    def test_explicit_trace_and_force_live_agree(self):
        program = get_program("m88ksim", scale=SCALE, seed=1)
        trace = record_trace(program)
        assert (execute_point(point(), trace=trace)
                == execute_point(point(), trace=False))


class TestGridEquality:
    """The PR 4 satellite property: trace-replayed == live-core grids."""

    @settings(max_examples=5, deadline=None)
    @given(
        benchmarks=st.lists(st.sampled_from(["m88ksim", "li", "compress"]),
                            min_size=1, max_size=2, unique=True),
        configurations=st.lists(
            st.sampled_from(["baseline", "current", "load back", "perfect"]),
            min_size=1, max_size=2, unique=True),
        depths=st.lists(st.sampled_from([20, 40, 60]), min_size=1,
                        max_size=2, unique=True),
        speculation=st.sampled_from(["redirect", "wrongpath"]),
        seed=st.integers(1, 2),
    )
    def test_trace_replayed_grids_equal_live_grids(
            self, benchmarks, configurations, depths, speculation, seed):
        plan = plan_from_points([
            ExperimentPoint(benchmark, configuration, depth, scale=0.01,
                            warmup=50, seed=seed, speculation=speculation)
            for benchmark in benchmarks
            for configuration in configurations
            for depth in depths
        ])
        previous = os.environ.get("REPRO_TRACE")
        try:
            os.environ["REPRO_TRACE"] = "0"
            live = run_plan(plan, jobs=1, use_cache=False)
            os.environ["REPRO_TRACE"] = "1"
            traced_serial = run_plan(plan, jobs=1, use_cache=False)
            traced_batched = run_plan(plan, jobs=2, use_cache=False,
                                      batch=True)
        finally:
            if previous is None:
                os.environ.pop("REPRO_TRACE", None)
            else:
                os.environ["REPRO_TRACE"] = previous
        assert traced_serial == live
        assert traced_batched == live

    def test_mixed_speculation_grid_shares_only_redirect(self, monkeypatch):
        """wrongpath points in a traced grid still run live and still
        agree with an untraced run."""
        pts = [point(configuration="baseline"),
               point(configuration="current"),
               point(speculation="wrongpath"),
               point(configuration="current", speculation="wrongpath")]
        plan = plan_from_points(pts)
        monkeypatch.setenv("REPRO_TRACE", "1")
        traced = run_plan(plan, jobs=1, use_cache=False)
        monkeypatch.setenv("REPRO_TRACE", "0")
        live = run_plan(plan, jobs=1, use_cache=False)
        assert traced == live
