"""Engine <-> ARVI interaction semantics.

These tests pin the behaviours that make the paper's mechanism work end
to end inside the pipeline model: which registers form the RSE set at a
real prediction, when values count as committed, and that the current-
value configuration never leaks oracle (uncommitted) values.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ValueMode
from repro.core.arvi import ARVIConfig
from repro.isa import AsmBuilder, nez
from repro.isa.regs import s0, s1, s2, s3, t0, t1, t2, zero
from repro.pipeline.config import machine_for_depth
from repro.pipeline.engine import PipelineEngine, RenameError, build_predictor
from repro.predictors.twolevel import LevelTwoKind
from tests.pipeline.test_speculation import preg_partition


def capture_requests(program, *, value_mode=ValueMode.CURRENT,
                     machine=None, pc_filter=None, max_instructions=50_000):
    """Run with ARVI, recording every ARVIRequest the engine builds."""
    machine = machine or machine_for_depth(20)
    predictor = build_predictor(LevelTwoKind.ARVI, machine)
    engine = PipelineEngine(program, machine, predictor,
                            value_mode=value_mode)
    requests = []
    original = engine._build_arvi_request

    def spy(dyn, src_pregs, fetch):
        request = original(dyn, src_pregs, fetch)
        if pc_filter is None or dyn.pc == pc_filter:
            requests.append((dyn, request))
        return request

    engine._build_arvi_request = spy
    engine.run(max_instructions)
    return requests


class TestRegisterSetFormation:
    def test_committed_operand_is_own_leaf_with_its_value(self):
        """A branch on a long-committed register sees that register,
        available, with its architectural value."""
        b = AsmBuilder()
        b.label("main")
        b.li(s0, 7)
        for _ in range(200):          # s0 commits long before the branch
            b.addi(t0, t0, 1)
        b.label("the_branch")
        b.bne(s0, zero, "done")
        b.nop()
        b.label("done")
        b.halt()
        program = b.build()
        requests = capture_requests(program,
                                    pc_filter=program.labels["the_branch"])
        assert len(requests) == 1
        _, request = requests[0]
        s0_view = next(v for v in request.regset if v.value == 7)
        assert s0_view.available

    def test_fresh_load_makes_load_branch(self):
        """A branch immediately after its feeding load is a load branch."""
        b = AsmBuilder()
        b.data_word("flag", 1)
        b.label("main")
        with b.for_range(s1, 0, 50):
            b.la(t0, "flag")
            b.lw(t1, t0, 0)
            with b.if_(nez(t1)):
                b.addi(s2, s2, 1)
        b.halt()
        program = b.build()
        requests = capture_requests(program)
        # Find the branch instances whose chain includes the fresh load.
        load_branches = [
            req for dyn, req in requests
            if any(not view.available for view in req.regset)
        ]
        assert load_branches, "expected load-branch instances"

    def test_current_mode_never_uses_uncommitted_values(self):
        """In CURRENT mode every available view's value must equal the
        committed shadow value — no oracle leakage."""
        from tests.conftest import build_memory_loop
        program = build_memory_loop(64)
        machine = machine_for_depth(20)
        predictor = build_predictor(LevelTwoKind.ARVI, machine)
        engine = PipelineEngine(program, machine, predictor,
                                value_mode=ValueMode.CURRENT)
        mismatches = []
        original = engine._build_arvi_request

        def spy(dyn, src_pregs, fetch):
            request = original(dyn, src_pregs, fetch)
            for view in request.regset:
                if view.available:
                    shadow = engine.shadow_values.read(view.preg)
                    if view.value != shadow:
                        mismatches.append((dyn.seq, view))
                    if engine._preg_pending[view.preg]:
                        mismatches.append((dyn.seq, "pending-available"))
            return request

        engine._build_arvi_request = spy
        engine.run()
        assert not mismatches

    def test_perfect_mode_marks_everything_available(self):
        from tests.conftest import build_memory_loop
        requests = capture_requests(build_memory_loop(32),
                                    value_mode=ValueMode.PERFECT)
        assert requests
        for _, request in requests:
            assert all(view.available for view in request.regset)

    def test_loadback_availability_is_superset_of_current(self):
        """Load back can only move branches from load to calculated."""
        from tests.conftest import build_memory_loop
        program = build_memory_loop(64)
        current = capture_requests(program, value_mode=ValueMode.CURRENT)
        loadback = capture_requests(program, value_mode=ValueMode.LOAD_BACK)
        calc_current = sum(
            all(v.available for v in req.regset) for _, req in current)
        calc_loadback = sum(
            all(v.available for v in req.regset) for _, req in loadback)
        assert calc_loadback >= calc_current


class TestDepthKeys:
    def test_depth_grows_along_serial_chain(self):
        """Deeper in a dependence chain, the depth key is larger."""
        b = AsmBuilder()
        b.label("main")
        with b.for_range(s1, 0, 30):
            b.li(t0, 3)
            b.addi(t0, t0, 1)
            b.addi(t0, t0, 1)
            b.addi(t0, t0, 1)
            b.addi(t0, t0, 1)
            with b.if_(nez(t0)):
                b.addi(s2, s2, 1)
        b.halt()
        program = b.build()
        requests = capture_requests(program)
        depths = [
            req.branch_token - req.oldest_chain_token
            for _, req in requests if req.oldest_chain_token is not None
        ]
        assert depths and max(depths) >= 5


class TestShadowMapWidth:
    def test_shadow_map_keeps_the_id_tag_width(self, counted_loop_program):
        """The id tag sums ``id_tag_bits`` low bits of each logical id,
        so the shadow map keeps that many (it kept 3 at any width)."""
        machine = machine_for_depth(20)
        for bits in (2, 5):
            predictor = build_predictor(LevelTwoKind.ARVI, machine,
                                        ARVIConfig(id_tag_bits=bits))
            engine = PipelineEngine(counted_loop_program, machine, predictor)
            assert engine.shadow_map.id_bits == bits


def rename_engine(program, **overrides):
    machine = machine_for_depth(20, **overrides)
    predictor = build_predictor(LevelTwoKind.HYBRID, machine)
    return PipelineEngine(program, machine, predictor)


def straight_line(dests):
    """One ``addi rd, rd, 1`` per destination, then HALT."""
    b = AsmBuilder()
    b.label("main")
    for rd in dests:
        b.addi(rd, rd, 1)
    b.halt()
    return b.build()


class TestRenameIntegration:
    def test_identity_initial_mapping(self, counted_loop_program):
        engine = rename_engine(counted_loop_program)
        assert engine.rename_map == list(range(32))
        assert list(engine.free_list) == list(
            range(32, engine.config.num_phys_regs))

    def test_destination_takes_the_free_list_head(self):
        engine = rename_engine(straight_line([t0]))
        head = engine.free_list[0]
        engine.run()
        expected = list(range(32))
        expected[t0] = head
        assert engine.rename_map == expected
        # t0's old register is free again, or waits for the commit.
        assert preg_partition(engine) == list(
            range(engine.config.num_phys_regs))

    def test_displaced_registers_recycle_in_commit_order(self):
        """The free list is FIFO and a displaced register joins its tail
        at commit, so rewriting one register cycles through the initial
        free list followed by that register's own first physical one."""
        writes = 600  # more than twice the free list
        engine = rename_engine(straight_line([t0] * writes))
        cycle = list(engine.free_list) + [t0]
        engine.run()
        assert engine.rename_map[t0] == cycle[(writes - 1) % len(cycle)]

    @given(st.lists(st.integers(0, 31), max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_live_registers_always_distinct(self, dests):
        """No two logical registers ever map to the same physical one,
        even when an 8-entry ROB keeps the free list short."""
        engine = rename_engine(straight_line(dests), rob_entries=8)

        def check(_record, _dyn):
            assert len(set(engine.rename_map)) == 32

        engine.observers.append(check)
        engine.run()
        assert preg_partition(engine) == list(
            range(engine.config.num_phys_regs))

    def test_no_rename_for_r0_destinations(self):
        """Writes to $zero must not consume physical registers."""
        b = AsmBuilder()
        b.label("main")
        for _ in range(600):           # more than the free list holds
            b.add(zero, s0, s1)
        b.halt()
        machine = machine_for_depth(20)
        predictor = build_predictor(LevelTwoKind.HYBRID, machine)
        engine = PipelineEngine(b.build(), machine, predictor)
        engine.run()  # would raise RenameError on free-list underflow

    def test_free_list_underflow_raises(self, counted_loop_program):
        machine = machine_for_depth(20)
        predictor = build_predictor(LevelTwoKind.HYBRID, machine)
        engine = PipelineEngine(counted_loop_program, machine, predictor)
        engine.free_list.clear()
        with pytest.raises(RenameError, match="underflow"):
            engine.run()

    def test_free_list_never_underflows_on_workload(self):
        from repro.workloads import get_program
        program = get_program("li", scale=0.05)
        machine = machine_for_depth(20)
        predictor = build_predictor(LevelTwoKind.ARVI, machine)
        engine = PipelineEngine(program, machine, predictor)
        engine.run()
        assert preg_partition(engine) == list(range(machine.num_phys_regs))
