"""Experiment-service trace layer: the one tier rule and equality.

Every point that ``ExperimentPoint.replays`` (every ``redirect`` point)
replays a recording through the compiled kernel unless its caller
passes ``trace=False``; ``wrongpath`` points run live.  The ledger's
``replay``/``live`` phase spans record which tier ran.  Trace-replayed grids equal live-engine grids ``==`` across
workloads x configurations x depths x both speculation modes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import runner
from repro.experiments.plan import ExperimentPoint, plan_from_points
from repro.experiments.runner import execute_point
from repro.experiments.scheduler import run_plan
from repro.experiments.tracing import SharedTraces
from repro.pipeline.trace import record_trace
from repro.workloads.registry import get_program
from tests.conftest import count_tiers

SCALE = 0.02
WARMUP = 200


def point(benchmark="m88ksim", configuration="baseline", depth=20,
          seed=1, speculation="redirect"):
    return ExperimentPoint(benchmark, configuration, depth, scale=SCALE,
                           warmup=WARMUP, seed=seed,
                           speculation=speculation).resolve()


def live_reference(plan) -> dict:
    """The oracle: every point of ``plan`` on the live engine."""
    return {p: execute_point(p, trace=False) for p in plan}


class TestSharedTraces:
    def test_wrongpath_points_stay_live(self):
        points = [point(speculation="wrongpath") for _ in range(3)]
        traces = SharedTraces(points)
        assert not any(p.replays for p in points)
        assert all(traces.get(p) is None for p in points)

    def test_wrongpath_points_share_one_episode_store(self):
        points = [point(configuration=c, speculation="wrongpath")
                  for c in ("baseline", "current")]
        redirect = point()
        traces = SharedTraces(points + [redirect])
        first = traces.episodes(points[0])
        assert traces._episodes  # held for the remaining consumer
        assert traces.episodes(points[1]) is first
        assert not traces._episodes  # released after the last one
        assert traces.episodes(redirect) is None
        assert traces.get(redirect) is not None  # counted apart

    def test_single_redirect_point_replays_on_the_kernel(
            self, monkeypatch, tmp_path):
        """One redirect point of its workload records its own trace and
        replays it, both inside a plan and through a bare call."""
        single = point()
        assert single.replays
        assert SharedTraces([single]).get(single) is not None

        results, tiers = count_tiers(tmp_path, lambda: run_plan(
            plan_from_points([single]), jobs=1, use_cache=False))
        assert tiers == {"replay": 1}
        live = execute_point(single, trace=False)
        assert results == {single: live}

        replays = []
        real = runner.kernel_run

        def counting(*args, **kwargs):
            replays.append(kwargs["warmup_instructions"])
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "kernel_run", counting)
        assert execute_point(single) == live
        assert replays == [WARMUP]

    def test_shared_workload_records_once(self):
        points = [point(configuration=c) for c in ("baseline", "current")]
        traces = SharedTraces(points)
        first = traces.get(points[0])
        second = traces.get(points[1])
        assert first is not None and first is second  # one recording

    def test_pool_drops_trace_after_last_consumer(self):
        points = [point(configuration=c) for c in ("baseline", "current")]
        traces = SharedTraces(points)
        traces.get(points[0])
        assert traces._traces  # held for the remaining consumer
        traces.get(points[1])
        assert not traces._traces  # released: bounded memory


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
    """Trace-replayed grids == live-engine grids, serial and pooled."""

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
        live = live_reference(plan)
        traced_serial = run_plan(plan, jobs=1, use_cache=False)
        traced_batched = run_plan(plan, jobs=2, use_cache=False,
                                  batch=True)
        assert traced_serial == live
        assert traced_batched == live

    def test_mixed_speculation_grid_shares_only_redirect(self, tmp_path):
        """wrongpath points in a traced grid still run live and still
        agree with the live engine."""
        pts = [point(configuration="baseline"),
               point(configuration="current"),
               point(speculation="wrongpath"),
               point(configuration="current", speculation="wrongpath")]
        plan = plan_from_points(pts)
        live = live_reference(plan)
        for jobs in (1, 2):
            results, tiers = count_tiers(
                tmp_path / str(jobs),
                lambda: run_plan(plan, jobs=jobs, use_cache=False))
            assert results == live
            assert tiers == {"replay": 2, "live": 2}
