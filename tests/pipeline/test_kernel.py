"""Compiled replay kernel (DESIGN.md §10).

The hard invariant: a kernel replay of a lowered committed trace is
bit-for-bit equal (``==``) to the live engine — the independent oracle —
across workloads, predictor kinds, pipeline depths, warmups and replay
budgets.  Anything the kernel cannot express is a loud
``KernelUnsupported`` (or ``TraceError`` for truncated recordings),
never silent divergence; the ledger shows which path
:func:`~repro.experiments.runner.execute_point` took as the point's
``replay`` or ``live`` phase span.
"""

import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.arvi import ValueMode
from repro.isa import AsmBuilder
from repro.isa.regs import s0, s1, t0, t1, t2, t3
from repro.experiments.plan import ExperimentPoint
from repro.experiments.runner import execute_point
from repro.obs.ledger import build_span_tree, read_events
from repro.pipeline.config import CacheConfig, TLBConfig, machine_for_depth
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
                  warmup=500, budget=None, value_mode=ValueMode.CURRENT):
    """The live engine: the oracle every kernel replay must equal."""
    config = machine_for_depth(depth)
    predictor = build_predictor(kind, config)
    engine = PipelineEngine(program, config, predictor,
                            value_mode=value_mode,
                            warmup_instructions=warmup)
    return engine.run() if budget is None else engine.run(budget)


class TestEquality:
    @pytest.mark.parametrize("kind", [LevelTwoKind.HYBRID,
                                      LevelTwoKind.NONE])
    @pytest.mark.parametrize("depth", [20, 60])
    @pytest.mark.parametrize("warmup", [0, 500])
    @pytest.mark.parametrize("value_mode", list(ValueMode),
                             ids=lambda mode: mode.name.lower())
    def test_kernel_equals_live(self, program, trace, kind, depth, warmup,
                                value_mode):
        """The one pass receives ``value_mode`` for every kind; like the
        engine, it must mean nothing outside ARVI."""
        live = engine_result(program, kind=kind, depth=depth, warmup=warmup,
                             value_mode=value_mode)
        kernel = kernel_run(program, trace, machine_for_depth(depth), kind,
                            warmup_instructions=warmup,
                            value_mode=value_mode)
        assert kernel == live

    def test_muldiv_contention_equals_live(self):
        """Back-to-back independent multiplies and divides queue for the
        mult/div units (the workloads barely use them: go's 57
        multiplies never wait); the kernel's heap of units must serve
        them as the engine's does, for one unit and for two."""
        b = AsmBuilder("muldiv")
        b.label("main")
        b.li(s0, 7)
        b.li(s1, 3)
        with b.for_range(t0, 0, 40):
            b.mult(t1, s0, s1)
            b.div(t2, s0, s1)
            b.mult(t3, s1, s0)
            b.rem(t1, s1, s0)
        b.halt()
        program = b.build()
        trace = record_trace(program)
        cycles = []
        for units in (1, 2):
            config = machine_for_depth(20, int_muldiv=units)
            live = live_result(program, config, LevelTwoKind.HYBRID,
                               warmup=0)
            assert kernel_run(program, trace, config,
                              warmup_instructions=0) == live
            cycles.append(live.cycles)
        assert cycles[0] > cycles[1]  # not vacuous: the units contend

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

    def test_branch_streams_are_built_during_lowering(self, program):
        """Lowering computes the gskew streams once: level 1's verdicts
        are the live engine's level-1 hits, and level 2's are the
        hybrid's final hits (it overrides exactly on disagreement)."""
        lowered = ensure_lowered(program, record_trace(program))
        streams = lowered.branch_streams
        taken = lowered.branch_taken
        assert len(streams.l1_pred) == len(streams.l2_pred) == len(taken)
        live = engine_result(program, warmup=0)
        assert live.cond_branches == len(taken)
        assert live.l1_correct == sum(
            map(operator.eq, streams.l1_pred, taken))
        assert live.final_correct == sum(
            map(operator.eq, streams.l2_pred, taken))


#: I-side geometries small enough that the stand-ins' code (136-476
#: bytes) keeps missing in the L1I and the ITLB after the cold misses;
#: the paper's 64 KB L1I misses only cold.
SMALL_ISIDE = (
    {"icache": CacheConfig("L1I", 128, 1, 32, 2),
     "itlb": TLBConfig("ITLB", 2, 1, page_bytes=64)},
    {"icache": CacheConfig("L1I", 256, 2, 16, 2),
     "itlb": TLBConfig("ITLB", 4, 2, page_bytes=128)},
)


def live_result(program, config, kind, warmup=500):
    """The live engine on an explicit machine configuration."""
    engine = PipelineEngine(program, config,
                            build_predictor(kind, config),
                            value_mode=ValueMode.CURRENT,
                            warmup_instructions=warmup)
    return engine.run()


class TestFetchStream:
    """The lowered I-fetch stream: each geometry's L1I/ITLB hit/miss
    sequence is precomputed once per trace, and only the L1I misses
    access the shared L2 live."""

    @pytest.mark.parametrize("kind", [LevelTwoKind.HYBRID,
                                      LevelTwoKind.NONE,
                                      LevelTwoKind.ARVI])
    @pytest.mark.parametrize("iside", [0, 1])
    def test_small_iside_equals_live(self, program, trace, kind, iside):
        config = machine_for_depth(20, **SMALL_ISIDE[iside])
        live = live_result(program, config, kind)
        assert kernel_run(program, trace, config, kind,
                          warmup_instructions=500) == live
        # Not vacuous: misses past the cold ones, each an L2 access.
        assert live.memory.l1i_misses > 100
        assert live.memory.itlb_misses > 1
        assert live.memory.l2_hits > live.memory.l1i_misses // 2

    @pytest.mark.parametrize("kind", [LevelTwoKind.HYBRID,
                                      LevelTwoKind.ARVI])
    @pytest.mark.parametrize("workload", BENCHMARKS)
    def test_every_workload_on_a_small_iside(self, workload, kind):
        """Each stand-in's code size and layout gives its own L1I/ITLB
        miss pattern on the direct-mapped geometry."""
        program = get_program(workload, scale=0.01, seed=1)
        trace = record_trace(program)
        config = machine_for_depth(20, **SMALL_ISIDE[0])
        live = live_result(program, config, kind, warmup=100)
        assert kernel_run(program, trace, config, kind,
                          warmup_instructions=100) == live
        # Not vacuous: more misses than the code has lines, so conflict
        # misses, not only cold ones.
        line_bytes = config.icache.line_bytes
        lines = {pc * 4 // line_bytes
                 for pc in ensure_lowered(program, trace).pcs}
        assert live.memory.l1i_misses > len(lines)

    @pytest.mark.parametrize("depth", [40, 60])
    def test_small_iside_at_deeper_pipelines(self, program, trace, depth):
        """The L1I miss latency and the shared L2 grow with depth; the
        live L2 accesses on L1I misses must land at the same cycles."""
        config = machine_for_depth(depth, **SMALL_ISIDE[1])
        live = live_result(program, config, LevelTwoKind.ARVI)
        assert kernel_run(program, trace, config, LevelTwoKind.ARVI,
                          warmup_instructions=500) == live

    @pytest.mark.parametrize("kind", [LevelTwoKind.HYBRID,
                                      LevelTwoKind.ARVI])
    def test_geometries_in_turn_on_one_trace(self, program, kind):
        """One trace replayed under alternating geometries must never
        hand a replay the stream cached for another geometry."""
        trace = record_trace(program)
        for iside in (SMALL_ISIDE[0], SMALL_ISIDE[1], {}, SMALL_ISIDE[0]):
            config = machine_for_depth(20, **iside)
            assert kernel_run(program, trace, config, kind,
                              warmup_instructions=500) \
                == live_result(program, config, kind)


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


def run_with_tier(root, point, **kwargs):
    """``execute_point`` under a private telemetry run.

    Returns ``(result, tier)``; ``tier`` is the name of the point
    span's ``replay`` (kernel) or ``live`` (engine) phase.
    """
    telemetry = obs.start_run(label="tier", root=root)
    try:
        result = execute_point(point, **kwargs)
    finally:
        ledger = obs.close_run(telemetry)
    [node] = build_span_tree(read_events(ledger)).find("point")
    [tier] = [child.name for child in node.children
              if child.name in ("replay", "live")]
    return result, tier


class TestExecutePoint:
    """The two paths of execute_point, told apart by their phase span."""

    def _point(self, **overrides):
        fields = dict(benchmark="m88ksim", configuration="baseline",
                      pipeline_depth=40, scale=SCALE, warmup=500)
        fields.update(overrides)
        return ExperimentPoint(**fields).resolve()

    def test_kernel_and_live_points_agree(self, trace, tmp_path):
        point = self._point()
        kernel, kernel_tier = run_with_tier(tmp_path / "k", point,
                                            trace=trace)
        live, live_tier = run_with_tier(tmp_path / "l", point,
                                        trace=False)
        assert kernel == live
        assert kernel_tier == "replay" and live_tier == "live"

    def test_live_points_report_live(self, trace, tmp_path):
        _, tier = run_with_tier(tmp_path, self._point(), trace=False)
        assert tier == "live"

    def test_arvi_configuration_replays_through_kernel(self, trace,
                                                       tmp_path):
        arvi, tier = run_with_tier(
            tmp_path, self._point(configuration="current"), trace=trace)
        assert tier == "replay"
        assert arvi == execute_point(self._point(configuration="current"),
                                     trace=False)

    def test_wrongpath_points_stay_live(self, tmp_path):
        _, tier = run_with_tier(tmp_path, self._point(
            benchmark="li", scale=0.01, warmup=50,
            speculation="wrongpath"))
        assert tier == "live"
