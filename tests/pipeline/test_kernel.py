"""Compiled replay kernel (DESIGN.md §10).

The hard invariant: a kernel replay of a lowered committed trace is
bit-for-bit equal (``==``) to the live engine — the independent oracle —
across workloads, predictor kinds, pipeline depths, warmups and replay
budgets.  Anything the kernel cannot express is a loud
``KernelUnsupported`` (or ``TraceError`` for truncated recordings),
never silent divergence; :func:`~repro.experiments.runner.execute_point`
reports which path ran via ``kernel_source``.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arvi import ValueMode
from repro.experiments.plan import ExperimentPoint
from repro.experiments.runner import execute_point
from repro.pipeline.config import machine_for_depth
from repro.pipeline.engine import PipelineEngine, build_predictor
from repro.pipeline.kernel import (
    KernelUnsupported,
    ensure_lowered,
    is_lowered,
    kernel_run,
)
from repro.pipeline.trace import TraceError, record_trace
from repro.predictors.twolevel import LevelTwoKind
from repro.workloads.registry import BENCHMARKS, get_program

SCALE = 0.05


@pytest.fixture(scope="module")
def program():
    return get_program("m88ksim", scale=SCALE, seed=1)


@pytest.fixture(scope="module")
def trace(program):
    return record_trace(program)


def engine_result(program, *, kind=LevelTwoKind.HYBRID, depth=20,
                  warmup=500, budget=None):
    """The live engine: the oracle every kernel replay must equal."""
    config = machine_for_depth(depth)
    predictor = build_predictor(kind, config)
    engine = PipelineEngine(program, config, predictor,
                            value_mode=ValueMode.CURRENT,
                            warmup_instructions=warmup)
    return engine.run() if budget is None else engine.run(budget)


class TestEquality:
    @pytest.mark.parametrize("kind", [LevelTwoKind.HYBRID,
                                      LevelTwoKind.NONE])
    @pytest.mark.parametrize("depth", [20, 60])
    @pytest.mark.parametrize("warmup", [0, 500])
    def test_kernel_equals_live(self, program, trace, kind, depth, warmup):
        live = engine_result(program, kind=kind, depth=depth, warmup=warmup)
        kernel = kernel_run(program, trace, machine_for_depth(depth), kind,
                            warmup_instructions=warmup)
        assert kernel == live

    @pytest.mark.parametrize("workload", BENCHMARKS)
    def test_other_workloads(self, workload):
        program = get_program(workload, scale=0.02, seed=1)
        trace = record_trace(program)
        kernel = kernel_run(program, trace, machine_for_depth(20),
                            warmup_instructions=100)
        assert kernel == engine_result(program, warmup=100)

    def test_lowered_form_is_shared_across_configs(self, program, trace):
        lowered = ensure_lowered(program, trace)
        assert is_lowered(trace, program)
        assert ensure_lowered(program, trace) is lowered
        for depth in (20, 40, 60):
            kernel_run(program, trace, machine_for_depth(depth))
        assert ensure_lowered(program, trace) is lowered


@functools.lru_cache(maxsize=1)
def _small():
    """A small (program, trace) pair the budget property replays
    (built once; hypothesis forbids function-scoped fixtures)."""
    program = get_program("li", scale=0.01, seed=1)
    return program, record_trace(program)


class TestBudgetProperty:
    """Kernel == live at *every* replay budget and warmup — the
    truncation arithmetic (prefix sums, bisected branch windows, RAS
    pops) must agree with the engine cutting off mid-stream."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_live_at_any_budget(self, data):
        program, trace = _small()
        budget = data.draw(st.integers(0, trace.length), label="budget")
        warmup = data.draw(st.integers(0, 60), label="warmup")
        depth = data.draw(st.sampled_from([20, 40, 60]), label="depth")
        live = engine_result(program, depth=depth, warmup=warmup,
                             budget=budget)
        kernel = kernel_run(program, trace, machine_for_depth(depth),
                            warmup_instructions=warmup,
                            max_instructions=budget)
        assert kernel == live


class TestFallback:
    def test_wrongpath_is_unsupported(self, program, trace):
        with pytest.raises(KernelUnsupported, match="redirect"):
            kernel_run(program, trace,
                       machine_for_depth(20, speculation="wrongpath"))

    def test_unsupported_messages_name_the_workload(self, program, trace):
        # Fallbacks in a grid are attributed from the run ledger; the
        # message itself must say *whose* replay declined.
        with pytest.raises(KernelUnsupported, match="m88ksim"):
            kernel_run(program, trace,
                       machine_for_depth(20, speculation="wrongpath"))

    def test_truncated_trace_raises_instead_of_diverging(self, program):
        short = record_trace(program, max_instructions=50)
        with pytest.raises(TraceError, match="exhausted"):
            kernel_run(program, short, machine_for_depth(20))

    def test_budget_truncated_recording_replays_within_budget(self,
                                                              program):
        short = record_trace(program, max_instructions=50)
        kernel = kernel_run(program, short, machine_for_depth(20),
                            warmup_instructions=0, max_instructions=50)
        assert kernel == engine_result(program, warmup=0, budget=50)

    def test_wrong_program_rejected(self, trace):
        other = get_program("compress", scale=SCALE, seed=1)
        with pytest.raises(TraceError, match="does not match"):
            kernel_run(other, trace, machine_for_depth(20))


class TestExecutePoint:
    """The two paths of execute_point and the kernel_source marker."""

    def _point(self, **overrides):
        fields = dict(benchmark="m88ksim", configuration="baseline",
                      pipeline_depth=40, scale=SCALE, warmup=500)
        fields.update(overrides)
        return ExperimentPoint(**fields).resolve()

    def test_kernel_and_live_points_agree(self, trace):
        point = self._point()
        info_kernel, info_live = {}, {}
        kernel = execute_point(point, trace=trace, info=info_kernel)
        live = execute_point(point, trace=False, info=info_live)
        assert kernel == live
        assert info_kernel["kernel_source"] == "kernel"
        assert info_live["kernel_source"] == "live"

    def test_live_points_report_live(self, trace):
        info = {}
        execute_point(self._point(), trace=False, info=info)
        assert info["kernel_source"] == "live"

    def test_arvi_configuration_replays_through_kernel(self, trace):
        info = {}
        arvi = execute_point(self._point(configuration="current"),
                             trace=trace, info=info)
        assert info["kernel_source"] == "kernel"
        assert arvi == execute_point(self._point(configuration="current"),
                                     trace=False)

    def test_wrongpath_points_stay_live(self):
        info = {}
        execute_point(self._point(benchmark="li", scale=0.01, warmup=50,
                                  speculation="wrongpath"), info=info)
        assert info["kernel_source"] == "live"
