"""Tests for the functional (architectural) core."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import AsmBuilder
from repro.isa.instructions import (
    COND_BRANCH_OPS,
    Instruction,
    Op,
    branch_taken,
)
from repro.isa.program import STACK_TOP
from repro.isa.regs import gp, ra, sp, t0, t1, t2, v0, zero
from repro.pipeline.functional import DynInst, ExecutionError, FunctionalCore

WORD = 0xFFFFFFFF


def execute(setup) -> FunctionalCore:
    b = AsmBuilder()
    b.label("main")
    setup(b)
    b.halt()
    core = FunctionalCore(b.build())
    core.run_to_completion(100_000)
    assert core.halted
    return core


class TestAluSemantics:
    @pytest.mark.parametrize("op,a,b,expected", [
        ("add", 3, 4, 7),
        ("add", 0xFFFFFFFF, 1, 0),
        ("sub", 3, 4, (-1) & WORD),
        ("and_", 0b1100, 0b1010, 0b1000),
        ("or_", 0b1100, 0b1010, 0b1110),
        ("xor", 0b1100, 0b1010, 0b0110),
        ("nor", 0, 0, WORD),
        ("sll", 1, 5, 32),
        ("srl", 0x80000000, 31, 1),
        ("sra", 0x80000000, 31, WORD),
        ("slt", 1, 2, 1),
        ("slt", 0xFFFFFFFF, 0, 1),   # signed: -1 < 0
        ("sltu", 0xFFFFFFFF, 0, 0),  # unsigned: max > 0
        ("mult", 100000, 100000, (100000 * 100000) & WORD),
        ("div", 17, 5, 3),
        ("div", (-17) & WORD, 5, (-3) & WORD),  # truncation toward zero
        ("rem", 17, 5, 2),
        ("rem", (-17) & WORD, 5, (-2) & WORD),
    ])
    def test_reg_ops(self, op, a, b, expected):
        def setup(builder):
            builder.li(t0, a)
            builder.li(t1, b)
            getattr(builder, op)(t2, t0, t1)
        assert execute(setup).registers[t2] == expected

    def test_div_by_zero_yields_zero(self):
        def setup(b):
            b.li(t0, 7)
            b.li(t1, 0)
            b.div(t2, t0, t1)
        assert execute(setup).registers[t2] == 0

    @pytest.mark.parametrize("op,a,imm,expected", [
        ("addi", 10, -3, 7),
        ("andi", 0xFF, 0x0F, 0x0F),
        ("ori", 0xF0, 0x0F, 0xFF),
        ("xori", 0xFF, 0x0F, 0xF0),
        ("slti", 3, 4, 1),
        ("slli", 3, 4, 48),
        ("srli", 256, 4, 16),
        ("srai", (-256) & WORD, 4, (-16) & WORD),
    ])
    def test_imm_ops(self, op, a, imm, expected):
        def setup(builder):
            builder.li(t0, a)
            getattr(builder, op)(t2, t0, imm)
        assert execute(setup).registers[t2] == expected

    def test_lui(self):
        def setup(b):
            b.lui(t2, 0x1234)
        assert execute(setup).registers[t2] == 0x12340000

    @given(st.integers(0, WORD), st.integers(0, WORD))
    @settings(max_examples=30, deadline=None)
    def test_add_matches_python_model(self, a, b):
        def setup(builder):
            builder.li(t0, a)
            builder.li(t1, b)
            builder.add(t2, t0, t1)
        assert execute(setup).registers[t2] == (a + b) & WORD


class TestRegisterZero:
    def test_writes_to_zero_discarded(self):
        def setup(b):
            b.li(t0, 5)
            b.add(zero, t0, t0)
            b.move(t1, zero)
        core = execute(setup)
        assert core.registers[zero] == 0
        assert core.registers[t1] == 0

    def test_initial_pointers(self):
        b = AsmBuilder()
        b.label("main")
        b.halt()
        core = FunctionalCore(b.build())
        assert core.registers[sp] == STACK_TOP
        assert core.registers[gp] != 0


class TestMemorySemantics:
    def test_store_load_word(self):
        def setup(b):
            b.data_space("buf", 2)
            b.la(t0, "buf")
            b.li(t1, 0xDEADBEEF)
            b.sw(t1, t0, 4)
            b.lw(t2, t0, 4)
        assert execute(setup).registers[t2] == 0xDEADBEEF

    def test_byte_store_load_signed(self):
        def setup(b):
            b.data_space("buf", 1)
            b.la(t0, "buf")
            b.li(t1, 0x80)
            b.sb(t1, t0, 0)
            b.lb(t2, t0, 0)
        assert execute(setup).registers[t2] == (-128) & WORD

    def test_byte_store_load_unsigned(self):
        def setup(b):
            b.data_space("buf", 1)
            b.la(t0, "buf")
            b.li(t1, 0x80)
            b.sb(t1, t0, 0)
            b.lbu(t2, t0, 0)
        assert execute(setup).registers[t2] == 0x80

    def test_byte_load_of_data_word_is_little_endian(self):
        def setup(b):
            b.data_word("word", 0x01020304)
            b.la(t0, "word")
            b.lbu(t1, t0, 1)
        assert execute(setup).registers[t1] == 0x03

    def test_unaligned_word_access_faults(self):
        b = AsmBuilder()
        b.data_space("buf", 2)
        b.label("main")
        b.la(t0, "buf")
        b.lw(t1, t0, 2)
        b.halt()
        core = FunctionalCore(b.build())
        with pytest.raises(ExecutionError, match="unaligned"):
            core.run_to_completion()

    def test_out_of_range_access_faults(self):
        b = AsmBuilder()
        b.label("main")
        b.li(t0, 0x7FFFFFF0)
        b.lw(t1, t0, 0)
        b.halt()
        with pytest.raises(ExecutionError, match="out of range"):
            FunctionalCore(b.build()).run_to_completion()


class TestControlFlow:
    def test_jal_links_return_address(self):
        b = AsmBuilder()
        b.label("main")
        b.jal("f")
        b.halt()
        b.label("f")
        b.jr(ra)
        stream = list(FunctionalCore(b.build()).run())
        jal = next(d for d in stream if d.op == Op.JAL)
        assert jal.result == 1  # return to instruction index 1

    @staticmethod
    def skip_program(t0_value: int):
        b = AsmBuilder()
        b.label("main")
        b.li(t0, t0_value)
        b.beq(t0, zero, "skip")
        b.li(t1, 5)
        b.label("skip")
        b.halt()
        return b.build()

    def test_branch_dyninst_records_outcome(self):
        stream = list(FunctionalCore(self.skip_program(1)).run())
        branch = next(d for d in stream if d.is_cond_branch)
        assert branch.taken is False
        assert branch.next_pc == branch.pc + 1

    def test_taken_branch_next_pc(self):
        program = self.skip_program(0)
        stream = list(FunctionalCore(program).run())
        branch = next(d for d in stream if d.is_cond_branch)
        assert branch.taken is True
        assert branch.next_pc == program.labels["skip"]

    @pytest.mark.parametrize("op", sorted(Op(o) for o in COND_BRANCH_OPS),
                             ids=lambda op: op.name.lower())
    @given(a=st.sampled_from([0, 1, 0x7FFFFFFF, 0x80000000, WORD])
           | st.integers(0, WORD),
           b=st.sampled_from([0, 1, 0x7FFFFFFF, 0x80000000, WORD])
           | st.integers(0, WORD))
    @settings(max_examples=25, deadline=None)
    def test_branch_handler_matches_branch_taken(self, op, a, b):
        # The core's per-opcode handlers compare raw words; branch_taken is
        # the signed reference. Each pair is also tried against itself.
        bld = AsmBuilder()
        bld.label("main")
        bld.li(t0, a)
        bld.li(t1, b)
        getattr(bld, op.name.lower())(t0, t1, "next")
        bld.label("next")
        getattr(bld, op.name.lower())(t0, t0, "end")
        bld.label("end")
        bld.halt()
        stream = list(FunctionalCore(bld.build()).run())
        first, second = [d for d in stream if d.is_cond_branch]
        assert first.taken is branch_taken(op, a, b)
        assert second.taken is branch_taken(op, a, a)

    def test_jalr_links_and_jumps_through_register(self):
        b = AsmBuilder()
        b.label("main")
        b.li(t0, 4)
        b.emit(Instruction(Op.JALR, rd=ra, rs1=t0))
        b.halt()
        b.li(t1, 99)  # skipped
        assert b.pc == 4
        b.move(v0, ra)
        b.jr(ra)
        core = FunctionalCore(b.build())
        core.run_to_completion(100)
        assert core.halted
        assert core.registers[v0] == 2  # return to the halt after the jalr
        assert core.registers[t1] == 0

    def test_jump_skips_code(self):
        def setup(b):
            b.li(t0, 1)
            b.j("over")
            b.li(t0, 99)
            b.label("over")
        assert execute(setup).registers[t0] == 1

    def test_pc_out_of_range_faults(self):
        b = AsmBuilder()
        b.label("main")
        b.jr(t0)  # t0 = 0: jumps back to main and loops
        core = FunctionalCore(b.build())
        # jr to pc 0 loops forever: bounded run, no fault.
        core.run_to_completion(max_instructions=10)
        assert core.instruction_count == 10

    def test_instruction_budget_stops_run(self):
        b = AsmBuilder()
        b.label("main")
        b.j("main")
        core = FunctionalCore(b.build())
        assert core.run_to_completion(max_instructions=25) == 25
        assert not core.halted


class TestDynInstRecords:
    @staticmethod
    def stream_of(setup) -> list[DynInst]:
        b = AsmBuilder()
        b.label("main")
        setup(b)
        b.halt()
        return list(FunctionalCore(b.build()).run())

    def test_load_records_address_and_value(self):
        def setup(b):
            b.data_word("w", 77)
            b.la(t0, "w")
            b.lw(t1, t0, 0)
        load = next(d for d in self.stream_of(setup) if d.is_load)
        assert load.result == 77
        assert load.addr is not None and load.addr % 4 == 0

    def test_store_records_value(self):
        def setup(b):
            b.data_word("w", 0)
            b.la(t0, "w")
            b.li(t1, 9)
            b.sw(t1, t0, 0)
        store = next(d for d in self.stream_of(setup) if d.is_store)
        assert store.store_value == 9

    def test_sequence_numbers_monotone(self):
        def setup(b):
            b.li(t0, 3)
            b.label("l")
            b.addi(t0, t0, -1)
            b.bne(t0, zero, "l")
        stream = self.stream_of(setup)
        assert [d.seq for d in stream] == list(range(len(stream)))
