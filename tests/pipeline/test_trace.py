"""Trace recording (DESIGN.md §8).

The hard invariant: the recorded columns reproduce the live functional
core's committed stream exactly, so a kernel replay of the trace is
bit-for-bit equal (``==``) to the live engine across configurations and
depths.  Mismatched or exhausted traces are loud ``TraceError``\\ s,
never silent divergence.
"""

import pytest

from repro.core.arvi import ValueMode
from repro.pipeline.config import machine_for_depth
from repro.pipeline.engine import PipelineEngine, build_predictor
from repro.pipeline.functional import FunctionalCore
from repro.pipeline.kernel import ensure_lowered, kernel_run
from repro.pipeline.trace import TraceError, TraceRecorder
from repro.predictors.twolevel import LevelTwoKind
from repro.workloads.registry import get_program

SCALE = 0.05


@pytest.fixture(scope="module")
def program():
    return get_program("m88ksim", scale=SCALE, seed=1)


@pytest.fixture(scope="module")
def trace(program):
    return TraceRecorder(program).record()


def engine_result(program, *, kind=LevelTwoKind.HYBRID,
                  mode=ValueMode.CURRENT, depth=20, warmup=500):
    """The live engine: the oracle every trace replay must equal."""
    config = machine_for_depth(depth)
    predictor = build_predictor(kind, config)
    engine = PipelineEngine(program, config, predictor, value_mode=mode,
                            warmup_instructions=warmup)
    return engine.run()


def replay_result(program, trace, *, kind=LevelTwoKind.HYBRID,
                  mode=ValueMode.CURRENT, depth=20, warmup=500):
    return kernel_run(program, trace, machine_for_depth(depth), kind,
                      warmup_instructions=warmup, value_mode=mode)


class TestRecording:
    def test_stream_fidelity_field_by_field(self, program, trace):
        """Every committed-stream fact the timing model reads is
        recorded exactly: the columns equal the live core's stream."""
        live = FunctionalCore(program)
        stream = list(live.run())
        assert trace.length == len(stream)
        assert trace.halted == live.halted
        assert list(trace.pcs) == [dyn.pc for dyn in stream]
        assert list(trace.results) == [dyn.result for dyn in stream
                                       if dyn.result is not None]
        branches = [dyn.taken for dyn in stream if dyn.taken is not None]
        assert trace.branch_count == len(branches)
        assert [bool((trace.taken_bits[j >> 3] >> (j & 7)) & 1)
                for j in range(trace.branch_count)] == branches
        assert list(trace.addrs) == [dyn.addr for dyn in stream
                                     if dyn.addr is not None]
        assert list(trace.store_values) == [
            dyn.store_value for dyn in stream
            if dyn.store_value is not None]
        # next_pc is implied by the following pc; only the last is stored.
        assert all(dyn.next_pc == after.pc
                   for dyn, after in zip(stream, stream[1:]))
        assert trace.final_next_pc == stream[-1].next_pc

    def test_recorder_is_single_use(self, program):
        recorder = TraceRecorder(program)
        recorder.record()
        with pytest.raises(TraceError, match="single-use"):
            recorder.record()

    def test_budget_truncated_recording(self, program):
        short = TraceRecorder(program).record(100)
        assert short.length == 100
        assert not short.halted

    def test_columns_are_compact(self, program, trace):
        # Sparse columns: only branches/memory ops/stores consume entries.
        assert trace.branch_count < trace.length
        assert len(trace.addrs) < trace.length
        assert len(trace.store_values) <= len(trace.addrs)
        assert len(trace.taken_bits) == (trace.branch_count + 7) // 8


class TestReplayEquality:
    @pytest.mark.parametrize("kind,mode", [
        (LevelTwoKind.HYBRID, ValueMode.CURRENT),
        (LevelTwoKind.ARVI, ValueMode.CURRENT),
        (LevelTwoKind.ARVI, ValueMode.LOAD_BACK),
        (LevelTwoKind.ARVI, ValueMode.PERFECT),
    ])
    @pytest.mark.parametrize("depth", [20, 60])
    def test_replay_equals_live_simulation(self, program, trace, kind,
                                           mode, depth):
        live = engine_result(program, kind=kind, mode=mode, depth=depth)
        replayed = replay_result(program, trace, kind=kind, mode=mode,
                                 depth=depth)
        assert replayed == live

    def test_one_trace_drives_many_replays(self, program, trace):
        """The lowered form is shared: replaying twice reuses it and
        still matches the live run."""
        first = replay_result(program, trace)
        lowered = ensure_lowered(program, trace)
        second = replay_result(program, trace)
        assert first == second == engine_result(program)
        assert ensure_lowered(program, trace) is lowered


class TestGuards:
    def test_wrong_program_rejected(self, trace):
        other = get_program("compress", scale=SCALE, seed=1)
        with pytest.raises(TraceError, match="does not match"):
            trace.validate_for(other)
