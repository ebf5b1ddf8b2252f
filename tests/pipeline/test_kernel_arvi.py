"""ARVI through the compiled replay kernel (the fused pass).

The same hard invariant as the stream kinds, extended to the paper's
headline predictor: ``kernel_run(..., LevelTwoKind.ARVI)`` is
bit-for-bit equal (``==``) to the live engine across all three ARVI
latency classes (Table 4: 6/12/18-cycle BVIT at depths 20/40/60), the
three paper value modes (current / load back / perfect), warmups,
replay budgets and custom ARVI geometries.  The fused pass precomputes only the shared
level-1/confidence streams; the DDT/RSE/BVIT machinery replays live
per configuration — these tests are what keep that split honest.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arvi import ARVIConfig, ValueMode
from repro.pipeline.config import machine_for_depth
from repro.pipeline.engine import PipelineEngine, build_predictor
from repro.pipeline.kernel import kernel_run
from repro.pipeline.trace import record_trace
from repro.predictors.twolevel import LevelTwoKind
from repro.workloads.registry import BENCHMARKS, get_program

SCALE = 0.05
MODES = (ValueMode.CURRENT, ValueMode.LOAD_BACK, ValueMode.PERFECT)


@pytest.fixture(scope="module")
def program():
    return get_program("m88ksim", scale=SCALE, seed=1)


@pytest.fixture(scope="module")
def trace(program):
    return record_trace(program)


def arvi_engine(program, *, depth=20, warmup=500, mode=ValueMode.CURRENT,
                arvi_config=None, budget=None):
    """The live engine: the oracle every kernel replay must equal."""
    config = machine_for_depth(depth)
    predictor = build_predictor(LevelTwoKind.ARVI, config, arvi_config)
    engine = PipelineEngine(program, config, predictor, value_mode=mode,
                            warmup_instructions=warmup)
    return engine.run() if budget is None else engine.run(budget)


class TestARVIEquality:
    """Every latency class x value mode x warmup, kernel vs live."""

    @pytest.mark.parametrize("depth", [20, 40, 60])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("warmup", [0, 500])
    def test_kernel_equals_live(self, program, trace, depth, mode, warmup):
        live = arvi_engine(program, depth=depth, mode=mode, warmup=warmup)
        kernel = kernel_run(program, trace, machine_for_depth(depth),
                            LevelTwoKind.ARVI, warmup_instructions=warmup,
                            value_mode=mode)
        assert kernel == live

    @pytest.mark.parametrize("workload", BENCHMARKS)
    def test_other_workloads(self, workload):
        program = get_program(workload, scale=0.02, seed=1)
        trace = record_trace(program)
        kernel = kernel_run(program, trace, machine_for_depth(20),
                            LevelTwoKind.ARVI, warmup_instructions=100)
        assert kernel == arvi_engine(program, warmup=100)

    def test_custom_arvi_geometry(self, program, trace):
        custom = ARVIConfig(sets=64, ways=2)
        kernel = kernel_run(program, trace, machine_for_depth(20),
                            LevelTwoKind.ARVI, warmup_instructions=500,
                            arvi_config=custom)
        assert kernel == arvi_engine(program, arvi_config=custom)
        # The geometry matters: the default-geometry result differs (the
        # equality above would be vacuous if the config were ignored).
        assert kernel != kernel_run(program, trace, machine_for_depth(20),
                                    LevelTwoKind.ARVI,
                                    warmup_instructions=500)


@functools.lru_cache(maxsize=1)
def _small():
    """A small (program, trace) pair the property replays (built once;
    hypothesis forbids function-scoped fixtures)."""
    program = get_program("li", scale=0.01, seed=1)
    return program, record_trace(program)


class TestARVIProperty:
    """Kernel == live at any (depth, mode, warmup, budget) draw — the
    fused pass's precomputed confidence stream and live BVIT/RSE replay
    must agree with the engine cutting off mid-stream."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_live_at_any_draw(self, data):
        program, trace = _small()
        depth = data.draw(st.sampled_from([20, 40, 60]), label="depth")
        mode = data.draw(st.sampled_from(MODES), label="mode")
        warmup = data.draw(st.integers(0, 60), label="warmup")
        budget = data.draw(st.integers(0, trace.length), label="budget")
        live = arvi_engine(program, depth=depth, mode=mode, warmup=warmup,
                           budget=budget)
        kernel = kernel_run(program, trace, machine_for_depth(depth),
                            LevelTwoKind.ARVI, warmup_instructions=warmup,
                            value_mode=mode, max_instructions=budget)
        assert kernel == live
