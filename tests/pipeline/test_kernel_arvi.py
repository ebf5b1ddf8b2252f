"""ARVI through the compiled replay kernel (the fused pass).

The same hard invariant as the stream kinds, extended to the paper's
headline predictor: ``kernel_run(..., LevelTwoKind.ARVI)`` is
bit-for-bit equal (``==``) to the live engine across all three ARVI
latency classes (Table 4: 6/12/18-cycle BVIT at depths 20/40/60), the
three paper value modes (current / load back / perfect), warmups,
replay budgets and custom ARVI geometries.  The fused pass shares the
level-1/confidence streams and, per ROB size, each branch's lowered DDT
chain and RSE register set across configurations; per configuration it
keeps only the in-flight cut ``lo``, load-hoist times and the BVIT —
these tests are what keep that split honest, and
``TestLoweredChainsMatchHardware`` checks the lowered tables against the
paper's hardware DDT and RSE directly.
"""

import functools
from bisect import bisect_right
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arvi import ARVIConfig, ValueMode
from repro.core.ddt import DDT
from repro.core.rse import RSEArray
from repro.isa import regs
from repro.isa.instructions import NUM_LOGICAL_REGS
from repro.isa.program import DATA_BASE, STACK_TOP
from repro.pipeline.config import MachineConfig, machine_for_depth
from repro.pipeline.engine import PipelineEngine, RenameError, build_predictor
from repro.isa.decoded import FU_DIV as K_DIV, FU_MULT as K_MULT
from repro.pipeline.kernel import ensure_lowered, kernel_run
from repro.pipeline.trace import record_trace
from repro.predictors.twolevel import LevelTwoKind
from repro.workloads.registry import BENCHMARKS, get_program

SCALE = 0.05
MODES = (ValueMode.CURRENT, ValueMode.LOAD_BACK, ValueMode.PERFECT)


@functools.lru_cache(maxsize=None)
def _recorded(workload, scale=SCALE):
    program = get_program(workload, scale=scale, seed=1)
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
        program, trace = _recorded(workload, 0.02)
        kernel = kernel_run(program, trace, machine_for_depth(20),
                            LevelTwoKind.ARVI, warmup_instructions=100)
        assert kernel == arvi_engine(program, warmup=100)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("workload", BENCHMARKS)
    def test_every_workload_and_mode_at_depth_60(self, workload, mode):
        """The deepest pipeline has the widest in-flight windows, so
        branches cut their lowered chains furthest back."""
        program, trace = _recorded(workload, 0.02)
        kernel = kernel_run(program, trace, machine_for_depth(60),
                            LevelTwoKind.ARVI, warmup_instructions=100,
                            value_mode=mode)
        assert kernel == arvi_engine(program, depth=60, warmup=100,
                                     mode=mode)

    def test_one_lowering_serves_interleaved_configs(self, program, trace):
        """One ``LoweredTrace`` replays two ROB sizes and two key widths
        in turn.  The chain tables are cached by ROB size alone, and the
        ``ARVIConfig`` widths are masked in when the tables are read."""
        lowered = ensure_lowered(program, trace)
        narrow = ARVIConfig(value_bits=4, id_tag_bits=5)
        for rob, arvi_config in [(256, None), (33, narrow), (256, narrow),
                                 (33, None)]:
            config = machine_for_depth(40, rob_entries=rob)
            predictor = build_predictor(LevelTwoKind.ARVI, config,
                                        arvi_config)
            live = PipelineEngine(program, config, predictor,
                                  value_mode=ValueMode.LOAD_BACK,
                                  warmup_instructions=500).run()
            assert kernel_run(program, trace, config, LevelTwoKind.ARVI,
                              warmup_instructions=500,
                              value_mode=ValueMode.LOAD_BACK,
                              arvi_config=arvi_config) == live
        assert lowered.arvi_chains(256) is lowered.arvi_chains(256)
        assert lowered.arvi_chains(33) is not lowered.arvi_chains(256)

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


class TestLoweredChainsMatchHardware:
    """The premise of the lowered chain tables, checked against the
    paper's own structures: the hardware :class:`~repro.core.ddt.DDT`
    (Figure 1) and :class:`~repro.core.rse.RSEArray` (Figure 3), driven
    over a recorded trace in program order with a FIFO free list.  The
    oldest token commits before a new one would make ``rob_entries + 1``
    in flight, so at a branch *i* the DDT holds exactly the table's
    window ``(i - rob_entries, i)``.
    Cutting the DDT's chain at any ``lo`` in ``(i - rob_entries, i]`` must
    give the table's depth span, and the RSE extract over the chain
    tokens at or above ``lo`` the table's leaves: the same writers, each
    pending exactly when its writer is at or above ``lo``, with the same
    logical id and value."""

    @pytest.mark.parametrize("rob", [256, 33])
    @pytest.mark.parametrize("workload,budget", [
        ("li", None), ("m88ksim", None), ("perl", None), ("vortex", None),
        ("gcc", 3000),
    ])
    def test_tables_equal_ddt_and_rse(self, workload, budget, rob):
        program = get_program(workload, scale=0.02, seed=1)
        trace = (record_trace(program) if budget is None
                 else record_trace(program, budget))
        chains = ensure_lowered(program, trace).arvi_chains(rob)
        n_pregs = NUM_LOGICAL_REGS + rob
        ddt = DDT(n_pregs, rob)
        rse = RSEArray(n_pregs, rob)
        rename_map = list(range(NUM_LOGICAL_REGS))
        free_list = deque(range(NUM_LOGICAL_REGS, n_pregs))
        frees_at_commit: deque = deque()
        # Per physical register: the leaf key of its value (writer index,
        # or -1 - reg for an initial register), logical id and value.
        key_of = [-1 - reg for reg in range(NUM_LOGICAL_REGS)] + [None] * rob
        logical_of = list(range(NUM_LOGICAL_REGS)) + [None] * rob
        value_of = [0] * n_pregs
        value_of[regs.sp] = STACK_TOP
        value_of[regs.gp] = DATA_BASE
        results = iter(trace.results)
        decoded = program.decoded()
        branch = checked = 0
        for i, pc in enumerate(trace.pcs):
            if ddt.in_flight == rob:
                ddt.commit_oldest()
                freed = frees_at_commit.popleft()
                if freed is not None:
                    free_list.append(freed)
            d = decoded[pc]
            src_pregs = tuple(rename_map[reg] for reg in d.sources)
            if d.is_cond_branch:
                chain = ddt.chain_tokens(*src_pregs)
                first = max(i - rob + 1, 0)
                tokens = sorted(t for t in chain if t >= first)
                cuts = {first, i}
                for t in tokens:
                    cuts.update((t, t + 1))
                start, end = chains.tok_off[branch], chains.tok_off[branch + 1]
                dist = chains.dist[start:end]
                assert sorted(i - back for back in dist) == tokens
                leaves = range(chains.leaf_off[branch],
                               chains.leaf_off[branch + 1])
                assert len({chains.leaf_writer[x] for x in leaves}) \
                    == len(leaves)
                for lo in sorted(cuts):
                    back = i - lo
                    above = [t for t in tokens if t >= lo]
                    oldest = bisect_right(dist, back) - 1
                    span = dist[oldest] if oldest >= 0 else None
                    assert span == (i - above[0] if above else None)
                    enable = 0
                    for t in above:
                        enable |= 1 << t % rob   # the DDT column of t
                    expected = {
                        key_of[preg]: (key_of[preg] >= lo, logical_of[preg],
                                       value_of[preg])
                        for preg in rse.extract(enable, src_pregs)}
                    # A leaf is in the set while its last reader is at
                    # or above lo and, unless a load wrote it, once its
                    # writer has committed.
                    table = {
                        writer: (writer >= lo, chains.leaf_id[x],
                                 chains.value[writer])
                        for x in leaves
                        if chains.leaf_near[x] <= back
                        for writer in [chains.leaf_writer[x]]
                        if writer < lo
                        or decoded[trace.pcs[writer]].is_load}
                    assert table == expected, (i, lo)
                    checked += 1
                branch += 1
            value = next(results) if d.has_result else 0
            dest = None
            if d.needs_dest:
                dest = free_list.popleft()
                frees_at_commit.append(rename_map[d.rd])
                rename_map[d.rd] = dest
                key_of[dest] = i
                logical_of[dest] = d.rd
                value_of[dest] = value
            else:
                frees_at_commit.append(None)
            rse.insert(ddt.head, dest, src_pregs, is_load=d.is_load)
            assert ddt.allocate(dest, src_pregs) == i
        assert branch == len(chains.tok_off) - 1 and checked > branch


class TestFreeListGate:
    """``MachineConfig`` gives the free list one slot per ROB entry, so
    neither tier can run it dry and the kernel's free-list check is
    gated off.  With fewer physical registers the gate opens: then both
    tiers raise :class:`RenameError`, or neither does and they agree."""

    @pytest.mark.parametrize("workload,rob,short,underflows", [
        ("m88ksim", 32, 16, True),
        ("li", 32, 31, True),
        ("go", 64, 31, True),
        ("m88ksim", 64, 4, False),
        ("li", 64, 16, False),
        ("go", 64, 16, False),
    ])
    def test_tiers_agree_on_a_short_free_list(self, monkeypatch, workload,
                                              rob, short, underflows):
        monkeypatch.setattr(MachineConfig, "num_phys_regs", property(
            lambda config: NUM_LOGICAL_REGS + config.rob_entries - short))
        program, trace = _recorded(workload)
        config = machine_for_depth(20, rob_entries=rob)
        outcomes = []
        for run in (
                lambda: PipelineEngine(
                    program, config,
                    build_predictor(LevelTwoKind.ARVI, config),
                    warmup_instructions=500).run(),
                lambda: kernel_run(program, trace, config, LevelTwoKind.ARVI,
                                   warmup_instructions=500)):
            try:
                outcomes.append(run())
            except RenameError:
                outcomes.append(RenameError)
        live, kernel = outcomes
        assert (live is RenameError) is underflows
        assert kernel == live


class TestHardwareDDTAgreement:
    """The engine keeps its DDT as plain ints (``FastDDT``) and can mirror
    every DDT operation into the hardware-faithful circular
    :class:`~repro.core.ddt.DDT` (``ddt_cross_check=True``); here its
    chains are also compared register by register every 64
    instructions, so kernel == cross-checked engine ties the kernel's
    ARVI keys, read from its lowered chain tables, to the paper's
    Figure 1 structure through the live engine as well."""

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
