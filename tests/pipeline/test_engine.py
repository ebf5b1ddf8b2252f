"""Timing engine integration tests.

These exercise the engine end to end on small programs and check the
microarchitectural behaviours the paper's evaluation depends on: IPC
bounds, dependence serialization, misprediction penalties scaling with
pipeline depth, ARVI's branch classification, and bookkeeping invariants.
"""

import pytest

from repro.core import ARVIConfig, ValueMode
from repro.isa import AsmBuilder, eq, ge, nez
from repro.isa.regs import a0, s0, s1, t0, t1, t2, t3, v0, zero
from repro.pipeline.config import machine_for_depth
from repro.pipeline.engine import PipelineEngine, build_predictor, simulate
from repro.predictors.twolevel import LevelTwoKind
from tests.conftest import (
    build_counted_loop,
    build_memory_loop,
    unpredictable_branch_program,
)


def independent_ops_program(count=400):
    """Long stream of independent ALU ops: should approach IPC = width."""
    b = AsmBuilder("independent")
    b.label("main")
    regs = [t0, t1, t2, t3]
    for i in range(count):
        b.addi(regs[i % 4], zero, i & 0xFF)
    b.halt()
    return b.build()


def serial_chain_program(count=400):
    """Fully serial dependence chain: IPC must be ~1 at best."""
    b = AsmBuilder("serial")
    b.label("main")
    b.li(t0, 1)
    for _ in range(count):
        b.addi(t0, t0, 1)
    b.halt()
    return b.build()


class TestBasicExecution:
    def test_runs_to_completion(self, tiny_machine):
        result = simulate(build_counted_loop(20), tiny_machine)
        assert result.total_instructions > 40
        assert result.cycles > 0

    def test_ipc_never_exceeds_width(self, tiny_machine):
        result = simulate(independent_ops_program(), tiny_machine)
        assert result.ipc <= tiny_machine.fetch_width + 1e-9

    def test_independent_ops_reach_high_ipc(self, tiny_machine):
        result = simulate(independent_ops_program(800), tiny_machine)
        assert result.ipc > 2.0

    def test_serial_chain_limits_ipc(self, tiny_machine):
        result = simulate(serial_chain_program(800), tiny_machine)
        assert result.ipc <= 1.05

    def test_memory_program_counts_loads_stores(self, tiny_machine):
        result = simulate(build_memory_loop(16), tiny_machine)
        assert result.loads >= 16
        assert result.stores >= 16

    def test_max_instructions_budget(self, tiny_machine):
        b = AsmBuilder()
        b.label("main")
        b.j("main")
        predictor = build_predictor(LevelTwoKind.HYBRID, tiny_machine)
        engine = PipelineEngine(b.build(), tiny_machine, predictor)
        result = engine.run(max_instructions=100)
        assert result.total_instructions == 100


class TestBranchTiming:
    def test_mispredictions_cost_more_on_deeper_pipelines(self):
        program = unpredictable_branch_program()
        cycles = {}
        for depth in (20, 60):
            config = machine_for_depth(depth)
            result = simulate(program, config, LevelTwoKind.HYBRID)
            cycles[depth] = result.cycles
            assert result.prediction_accuracy < 0.95  # genuinely hard
        assert cycles[60] > cycles[20] * 1.5

    def test_biased_branch_is_learned(self, tiny_machine):
        program = build_counted_loop(200)
        result = simulate(program, tiny_machine, LevelTwoKind.HYBRID,
                          warmup_instructions=100)
        assert result.prediction_accuracy > 0.95

    def test_override_accounting(self, tiny_machine):
        program = unpredictable_branch_program()
        result = simulate(program, tiny_machine, LevelTwoKind.HYBRID)
        assert result.overrides >= 0
        assert (result.overrides_helpful + result.overrides_harmful
                <= result.overrides)


class TestArviIntegration:
    @staticmethod
    def value_determined_branch_program(iterations=400):
        """Branch outcome fully determined by a committed register value.

        Outcomes follow a period-7 key schedule that defeats short
        history but is trivially value-predictable.
        """
        b = AsmBuilder("value-branch")
        keys = [1, 0, 1, 1, 0, 0, 1]
        b.data_word("keys", *keys)
        b.label("main")
        b.la(s0, "keys")
        b.li(s1, 0)
        b.li(t3, 0)
        with b.for_range(t0, 0, iterations):
            b.slli(t1, s1, 2)
            b.add(t1, t1, s0)
            b.lw(t2, t1, 0)
            b.addi(s1, s1, 1)
            with b.if_(ge(s1, len(keys), imm=True)):
                b.li(s1, 0)
            # Spacer work so the key commits before its use next iteration.
            for _ in range(6):
                b.add(t3, t3, t2)
            with b.if_(nez(t2)):
                b.addi(t3, t3, 1)
        b.halt()
        return b.build()

    def test_classification_present(self, tiny_machine):
        result = simulate(build_memory_loop(64), tiny_machine,
                          LevelTwoKind.ARVI)
        assert result.calculated.branches + result.load.branches > 0
        assert result.arvi_lookups > 0

    def test_value_modes_run(self, tiny_machine):
        program = build_memory_loop(32)
        for mode in ValueMode:
            result = simulate(program, tiny_machine, LevelTwoKind.ARVI,
                              value_mode=mode)
            assert result.total_instructions > 0

    def test_perfect_mode_classifies_all_calculated(self, tiny_machine):
        result = simulate(build_memory_loop(64), tiny_machine,
                          LevelTwoKind.ARVI,
                          value_mode=ValueMode.PERFECT)
        assert result.load.branches == 0

    def test_arvi_beats_hybrid_on_value_branch(self, tiny_machine):
        program = self.value_determined_branch_program()
        hybrid = simulate(program, tiny_machine, LevelTwoKind.HYBRID,
                          warmup_instructions=2000)
        arvi = simulate(program, tiny_machine, LevelTwoKind.ARVI,
                        warmup_instructions=2000)
        assert arvi.prediction_accuracy >= hybrid.prediction_accuracy

    def test_bvit_lookups_count_every_branch_warmup_included(
            self, tiny_machine):
        program = self.value_determined_branch_program()
        branches = []
        engine = PipelineEngine(
            program, tiny_machine,
            build_predictor(LevelTwoKind.ARVI, tiny_machine),
            warmup_instructions=2000,
            observers=[lambda rec, dyn: branches.append(rec.is_branch)])
        result = engine.run()
        assert result.arvi_lookups == sum(branches) > result.cond_branches
        assert 0 < result.arvi_bvit_hits <= result.arvi_lookups
        hybrid = simulate(program, tiny_machine, LevelTwoKind.HYBRID)
        assert hybrid.arvi_lookups == hybrid.arvi_bvit_hits == 0

    def test_arvi_config_override(self, tiny_machine):
        result = simulate(
            build_memory_loop(32), tiny_machine, LevelTwoKind.ARVI,
            arvi_config=ARVIConfig(sets=64, ways=2))
        assert result.total_instructions > 0


class TestEngineInvariants:
    def test_commit_cycles_monotone_and_complete_before_commit(self,
                                                               tiny_machine):
        records = []
        predictor = build_predictor(LevelTwoKind.HYBRID, tiny_machine)
        engine = PipelineEngine(
            build_memory_loop(32), tiny_machine, predictor,
            observers=[lambda rec, dyn: records.append(rec)])
        engine.run()
        assert records
        last_commit = 0
        for record in records:
            assert record.fetch <= record.dispatch <= record.issue
            assert record.issue < record.complete < record.commit
            assert record.commit >= last_commit
            last_commit = record.commit

    def test_frontend_depth_respected(self, tiny_machine):
        records = []
        predictor = build_predictor(LevelTwoKind.HYBRID, tiny_machine)
        engine = PipelineEngine(
            build_counted_loop(10), tiny_machine, predictor,
            observers=[lambda rec, dyn: records.append(rec)])
        engine.run()
        for record in records:
            assert (record.issue - record.fetch
                    >= tiny_machine.frontend_depth)

    def test_warmup_excluded_from_stats(self, tiny_machine):
        program = build_counted_loop(100)
        full = simulate(program, tiny_machine)
        partial = simulate(program, tiny_machine, warmup_instructions=150)
        assert partial.instructions == full.total_instructions - 150
        assert partial.cond_branches < full.cond_branches

    def test_store_load_forwarding_visible(self, tiny_machine):
        """A store immediately reloaded should not pay a full miss twice."""
        b = AsmBuilder()
        b.data_space("buf", 1)
        b.label("main")
        b.la(t0, "buf")
        b.li(t1, 42)
        b.sw(t1, t0, 0)
        b.lw(t2, t0, 0)
        b.halt()
        result = simulate(b.build(), tiny_machine)
        assert result.total_instructions > 0

    def test_deterministic_given_same_inputs(self, tiny_machine):
        program = build_memory_loop(32)
        first = simulate(program, tiny_machine, LevelTwoKind.ARVI)
        second = simulate(program, tiny_machine, LevelTwoKind.ARVI)
        assert first.cycles == second.cycles
        assert first.final_correct == second.final_correct

    def test_ras_tracks_calls(self, tiny_machine):
        b = AsmBuilder()
        b.label("main")
        for _ in range(3):
            b.jal("leaf")
        b.halt()
        b.label("leaf")
        b.jr()
        result = simulate(b.build(), tiny_machine)
        assert result.ras_accuracy == 1.0
