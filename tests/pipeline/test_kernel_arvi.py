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
from repro.isa.decoded import FU_DIV as K_DIV, FU_MULT as K_MULT
from repro.pipeline.kernel import ensure_lowered, kernel_run
from repro.pipeline.trace import record_trace
from repro.predictors.twolevel import LevelTwoKind
from repro.workloads.registry import BENCHMARKS, get_program

SCALE = 0.05
MODES = (ValueMode.CURRENT, ValueMode.LOAD_BACK, ValueMode.PERFECT)


@functools.lru_cache(maxsize=None)
def _recorded(workload):
    program = get_program(workload, scale=SCALE, seed=1)
    return program, record_trace(program)


@pytest.fixture(scope="module")
def program():
    return _recorded("m88ksim")[0]


@pytest.fixture(scope="module")
def trace():
    return _recorded("m88ksim")[1]


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

    @pytest.mark.parametrize("sets,ways", [(1, 1), (1, 4), (4, 2),
                                           (16, 1), (16, 8)])
    def test_tiny_bvit_geometries(self, program, trace, sets, ways):
        """A BVIT of a few entries evicts on most allocations, so the
        inlined replacement (lowest ``(perf, last_used)`` in the set)
        and the index wrap carry the result."""
        custom = ARVIConfig(sets=sets, ways=ways)
        kernel = kernel_run(program, trace, machine_for_depth(20),
                            LevelTwoKind.ARVI, warmup_instructions=500,
                            arvi_config=custom)
        assert kernel == arvi_engine(program, arvi_config=custom)

    @pytest.mark.parametrize("workload,overrides", [
        ("m88ksim", {"use_id_tag": False}),
        ("m88ksim", {"use_depth_tag": False}),
        ("m88ksim", {"allocate_only_hard": False}),
        ("m88ksim", {"index_bits": 4, "id_tag_bits": 3, "depth_bits": 2}),
        # m88ksim predicts the same with 3- and 5-bit ids; go does not.
        ("go", {"id_tag_bits": 5}),
    ], ids=["no-id-tag", "no-depth-tag", "allocate-all", "narrow-keys",
            "wide-id-tag"])
    def test_key_ablations(self, workload, overrides):
        """The DESIGN.md §5 ablation switches and narrow or wide key
        fields change how the kernel forms BVIT keys exactly as they
        change the engine's.  A 5-bit id tag sums 5-bit logical ids: the
        shadow map keeps the tag's width in both tiers."""
        program, trace = _recorded(workload)
        custom = ARVIConfig(**overrides)
        kernel = kernel_run(program, trace, machine_for_depth(40),
                            LevelTwoKind.ARVI, warmup_instructions=500,
                            value_mode=ValueMode.LOAD_BACK,
                            arvi_config=custom)
        assert kernel == arvi_engine(program, depth=40,
                                     mode=ValueMode.LOAD_BACK,
                                     arvi_config=custom)
        # Not vacuous: every switch changes the default result.
        assert kernel != kernel_run(program, trace, machine_for_depth(40),
                                    LevelTwoKind.ARVI,
                                    warmup_instructions=500,
                                    value_mode=ValueMode.LOAD_BACK)

    @pytest.mark.parametrize("workload,sizes", [
        *(("m88ksim", {"rob_entries": rob}) for rob in (16, 24, 33, 100, 256)),
        ("go", {"int_muldiv": 2}),
    ], ids=["rob16", "rob24", "rob33", "rob100", "rob256", "go-muldiv2"])
    def test_machine_sizes(self, workload, sizes):
        """The ROB size bounds the token window, the RSE ring and the
        free list: a small ROB stalls often, and a size that is not a
        power of two leaves ring slots the window never reaches.  go is
        the workload with multiplies and divides, which a second
        mult/div unit serves from the same heap as the engine's."""
        program, trace = _recorded(workload)
        if "int_muldiv" in sizes:
            kinds = ensure_lowered(program, trace).kclass
            assert K_MULT in kinds or K_DIV in kinds
        config = machine_for_depth(60, **sizes)
        predictor = build_predictor(LevelTwoKind.ARVI, config)
        live = PipelineEngine(program, config, predictor,
                              value_mode=ValueMode.LOAD_BACK,
                              warmup_instructions=500).run()
        assert kernel_run(program, trace, config, LevelTwoKind.ARVI,
                          warmup_instructions=500,
                          value_mode=ValueMode.LOAD_BACK) == live

    @pytest.mark.parametrize("mode", MODES)
    def test_value_bits_reach_both_tiers(self, program, trace, mode):
        """``ARVIConfig.value_bits`` is the shadow register file's width
        in the engine and the value mask in the kernel."""
        narrow = ARVIConfig(value_bits=4)
        kernel = kernel_run(program, trace, machine_for_depth(20),
                            LevelTwoKind.ARVI, warmup_instructions=500,
                            value_mode=mode, arvi_config=narrow)
        assert kernel == arvi_engine(program, mode=mode,
                                     arvi_config=narrow)
        # Not vacuous: 4 value bits hash differently from the default 11.
        assert kernel != kernel_run(program, trace, machine_for_depth(20),
                                    LevelTwoKind.ARVI,
                                    warmup_instructions=500,
                                    value_mode=mode)


    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("value_bits", [1, 16, 32])
    def test_value_widths_equal_live(self, program, trace, value_bits,
                                     mode):
        """Widths from one bit to wider than the BVIT index: the value
        mask is cut to the index field in both tiers."""
        width = ARVIConfig(value_bits=value_bits)
        kernel = kernel_run(program, trace, machine_for_depth(20),
                            LevelTwoKind.ARVI, warmup_instructions=500,
                            value_mode=mode, arvi_config=width)
        assert kernel == arvi_engine(program, mode=mode, arvi_config=width)


class TestHardwareDDTAgreement:
    """The kernel keeps its DDT as plain ints.  The engine can mirror
    every DDT operation into the hardware-faithful circular
    :class:`~repro.core.ddt.DDT` (``ddt_cross_check=True``); here its
    chains are also compared register by register every 64
    instructions, so kernel == cross-checked engine ties the kernel's
    ARVI keys to the paper's Figure 1 structure."""

    @pytest.mark.parametrize("workload", ["m88ksim", "compress"])
    @pytest.mark.parametrize("mode", MODES)
    def test_kernel_equals_cross_checked_engine(self, workload, mode):
        program = get_program(workload, scale=0.02, seed=1)
        trace = record_trace(program)
        config = machine_for_depth(20)
        engine = PipelineEngine(
            program, config, build_predictor(LevelTwoKind.ARVI, config),
            value_mode=mode, warmup_instructions=100,
            ddt_cross_check=True)
        checks = []

        def verify(record, _dyn):
            if record.seq % 64 == 0:
                engine.ddt.verify_chains()
                checks.append(record.seq)

        engine.observers.append(verify)
        live = engine.run()
        assert checks and engine.ddt.operations > 0
        assert kernel_run(program, trace, config, LevelTwoKind.ARVI,
                          warmup_instructions=100, value_mode=mode) == live


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
