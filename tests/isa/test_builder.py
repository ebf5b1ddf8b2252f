"""Tests for the structured assembly builder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import AsmBuilder, eq, eqz, ge, gt, le, lt, ne, nez
from repro.isa.instructions import Op
from repro.isa.program import DATA_BASE
from repro.isa.regs import a0, s0, t0, t1, t2, v0, zero
from repro.pipeline.functional import FunctionalCore


def run(builder: AsmBuilder, max_instructions: int = 200_000) -> FunctionalCore:
    core = FunctionalCore(builder.build())
    core.run_to_completion(max_instructions)
    assert core.halted, "program did not halt"
    return core


class TestLoadImmediate:
    @pytest.mark.parametrize("value", [
        0, 1, -1, 42, 32767, -32768, 32768, 0x12345678, 0xFFFFFFFF,
        0x7FFFFFFF, 0x80000000, 0xABCD0000,
    ])
    def test_li_values(self, value):
        b = AsmBuilder()
        b.label("main")
        b.li(t0, value)
        b.halt()
        core = run(b)
        assert core.registers[t0] == value & 0xFFFFFFFF

    def test_small_li_is_one_instruction(self):
        b = AsmBuilder()
        b.li(t0, 100)
        assert b.pc == 1

    def test_large_li_is_two_instructions(self):
        b = AsmBuilder()
        b.li(t0, 0x12345678)
        assert b.pc == 2

    @given(st.integers(min_value=-(1 << 31), max_value=(1 << 32) - 1))
    @settings(max_examples=40, deadline=None)
    def test_li_roundtrip_property(self, value):
        b = AsmBuilder()
        b.label("main")
        b.li(t0, value)
        b.halt()
        assert run(b).registers[t0] == value & 0xFFFFFFFF


class TestStructuredControl:
    def test_if_taken_and_skipped(self):
        b = AsmBuilder()
        b.label("main")
        b.li(t0, 5)
        b.li(t1, 0)
        with b.if_(eq(t0, 5, imm=True)):
            b.addi(t1, t1, 1)
        with b.if_(eq(t0, 6, imm=True)):
            b.addi(t1, t1, 100)
        b.halt()
        assert run(b).registers[t1] == 1

    def test_ifelse_both_arms(self):
        for value, expected in [(3, 10), (7, 20)]:
            b = AsmBuilder()
            b.label("main")
            b.li(t0, value)
            block = b.ifelse(lt(t0, 5, imm=True))
            with block:
                b.li(t1, 10)
                block.else_()
                b.li(t1, 20)
            b.halt()
            assert run(b).registers[t1] == expected

    def test_ifelse_double_else_rejected(self):
        b = AsmBuilder()
        b.li(t0, 1)
        block = b.ifelse(eqz(t0))
        with pytest.raises(RuntimeError):
            with block:
                block.else_()
                block.else_()

    def test_while_loop(self):
        b = AsmBuilder()
        b.label("main")
        b.li(t0, 7)
        b.li(t1, 0)
        with b.while_(nez(t0)):
            b.addi(t1, t1, 2)
            b.addi(t0, t0, -1)
        b.halt()
        assert run(b).registers[t1] == 14

    def test_while_false_never_runs(self):
        b = AsmBuilder()
        b.label("main")
        b.li(t0, 0)
        b.li(t1, 99)
        with b.while_(nez(t0)):
            b.li(t1, 0)
        b.halt()
        assert run(b).registers[t1] == 99

    @pytest.mark.parametrize("start,stop,step", [
        (0, 10, 1), (0, 10, 2), (5, 5, 1), (10, 0, -1), (0, 9, 3),
    ])
    def test_for_range_matches_python(self, start, stop, step):
        b = AsmBuilder()
        b.label("main")
        b.li(t1, 0)
        with b.for_range(t0, start, stop, step=step):
            b.add(t1, t1, t0)
        b.halt()
        expected = sum(range(start, stop, step)) & 0xFFFFFFFF
        assert run(b).registers[t1] == expected

    def test_for_range_with_stop_reg(self):
        b = AsmBuilder()
        b.label("main")
        b.li(t2, 6)
        b.li(t1, 0)
        with b.for_range(t0, 0, stop_reg=t2):
            b.addi(t1, t1, 1)
        b.halt()
        assert run(b).registers[t1] == 6

    def test_for_range_argument_errors(self):
        b = AsmBuilder()
        with pytest.raises(ValueError):
            with b.for_range(t0, 0):
                pass
        with pytest.raises(ValueError):
            with b.for_range(t0, 0, 5, step=0):
                pass

    def test_break_and_continue(self):
        b = AsmBuilder()
        b.label("main")
        b.li(t1, 0)
        with b.for_range(t0, 0, 100):
            with b.if_(eq(t0, 3, imm=True)):
                b.continue_()
            with b.if_(eq(t0, 6, imm=True)):
                b.break_()
            b.addi(t1, t1, 1)
        b.halt()
        # i = 0,1,2,4,5 increment; 3 skipped; stop at 6.
        assert run(b).registers[t1] == 5

    def test_break_outside_loop_rejected(self):
        b = AsmBuilder()
        with pytest.raises(RuntimeError):
            b.break_()
        with pytest.raises(RuntimeError):
            b.continue_()

    def test_infinite_loop_with_break(self):
        b = AsmBuilder()
        b.label("main")
        b.li(t0, 0)
        with b.loop():
            b.addi(t0, t0, 1)
            with b.if_(ge(t0, 5, imm=True)):
                b.break_()
        b.halt()
        assert run(b).registers[t0] == 5

    def test_nested_loops(self):
        b = AsmBuilder()
        b.label("main")
        b.li(t2, 0)
        with b.for_range(t0, 0, 4):
            with b.for_range(t1, 0, 3):
                b.addi(t2, t2, 1)
        b.halt()
        assert run(b).registers[t2] == 12


class TestConditionHelpers:
    @pytest.mark.parametrize("cond_fn,a_val,b_val,expected", [
        (eq, 4, 4, True), (ne, 4, 5, True), (lt, 3, 4, True),
        (ge, 4, 4, True), (le, 4, 4, True), (gt, 5, 4, True),
        (eq, 4, 5, False), (gt, 4, 5, False),
    ])
    def test_reg_reg_conditions(self, cond_fn, a_val, b_val, expected):
        b = AsmBuilder()
        b.label("main")
        b.li(t0, a_val)
        b.li(t1, b_val)
        b.li(t2, 0)
        with b.if_(cond_fn(t0, t1)):
            b.li(t2, 1)
        b.halt()
        assert run(b).registers[t2] == int(expected)


class TestFunctions:
    def test_call_and_return(self):
        b = AsmBuilder()
        b.label("main")
        b.li(a0, 21)
        b.jal("double")
        b.move(t0, v0)
        b.halt()
        with b.func("double"):
            b.add(v0, a0, a0)
        assert run(b).registers[t0] == 42

    def test_early_ret(self):
        b = AsmBuilder()
        b.label("main")
        b.li(a0, 0)
        b.jal("classify")
        b.move(t0, v0)
        b.halt()
        with b.func("classify"):
            with b.if_(eqz(a0)):
                b.li(v0, 111)
                b.ret()
            b.li(v0, 222)
        assert run(b).registers[t0] == 111

    def test_callee_saved_registers_restored(self):
        b = AsmBuilder()
        b.label("main")
        b.li(s0, 7)
        b.jal("clobber")
        b.move(t0, s0)
        b.halt()
        with b.func("clobber", save=(s0,)):
            b.li(s0, 999)
        assert run(b).registers[t0] == 7

    def test_nested_calls(self):
        b = AsmBuilder()
        b.label("main")
        b.li(a0, 5)
        b.jal("outer")
        b.move(t0, v0)
        b.halt()
        with b.func("outer"):
            b.jal("inner")
            b.addi(v0, v0, 1)
        with b.func("inner"):
            b.add(v0, a0, a0)
        assert run(b).registers[t0] == 11

    def test_ret_outside_func_rejected(self):
        b = AsmBuilder()
        with pytest.raises(RuntimeError):
            b.ret()


class TestDataAndLabels:
    def test_data_word_layout_is_sequential(self):
        b = AsmBuilder()
        addr1 = b.data_word("a", 1, 2, 3)
        addr2 = b.data_word("b", 4)
        assert addr1 == DATA_BASE
        assert addr2 == DATA_BASE + 12
        assert b.data_addr("b") == addr2

    def test_data_space_zeroed(self):
        b = AsmBuilder()
        b.data_space("buf", 4)
        b.label("main")
        b.la(t0, "buf")
        b.lw(t1, t0, 8)
        b.halt()
        assert run(b).registers[t1] == 0

    def test_set_data_word_overwrites(self):
        b = AsmBuilder()
        addr = b.data_word("x", 1)
        b.set_data_word(addr, 99)
        b.label("main")
        b.la(t0, "x")
        b.lw(t1, t0, 0)
        b.halt()
        assert run(b).registers[t1] == 99

    def test_set_data_word_validates(self):
        b = AsmBuilder()
        addr = b.data_word("x", 1)
        with pytest.raises(ValueError, match="unaligned"):
            b.set_data_word(addr + 2, 5)
        with pytest.raises(ValueError, match="never allocated"):
            b.set_data_word(addr + 4, 5)

    def test_duplicate_label_rejected(self):
        b = AsmBuilder()
        b.label("x")
        with pytest.raises(ValueError):
            b.label("x")

    def test_duplicate_data_label_rejected(self):
        b = AsmBuilder()
        b.data_word("x", 1)
        with pytest.raises(ValueError):
            b.data_space("x", 1)

    def test_undefined_branch_label_rejected(self):
        b = AsmBuilder()
        b.label("main")
        b.j("nowhere")
        with pytest.raises(ValueError, match="nowhere"):
            b.build()

    def test_two_labels_at_one_pc(self):
        b = AsmBuilder()
        b.label("a")
        b.label("b")
        b.add(t0, t0, t0)
        b.halt()
        program = b.build(entry="a")
        assert program.labels["a"] == program.labels["b"] == 0

    def test_out_of_range_register_rejected_at_build(self):
        b = AsmBuilder()
        b.label("main")
        b.add(t0, t1, 32)
        b.halt()
        with pytest.raises(ValueError, match="two sources"):
            b.build()

    def test_entry_defaults_to_main(self):
        b = AsmBuilder()
        b.nop()
        b.label("main")
        b.halt()
        assert b.build().entry == 1

    def test_explicit_entry(self):
        b = AsmBuilder()
        b.label("start")
        b.halt()
        assert b.build(entry="start").entry == 0
        assert b.build(entry=0).entry == 0


class TestPseudoInstructions:
    def test_move_neg_not(self):
        b = AsmBuilder()
        b.label("main")
        b.li(t0, 12)
        b.move(t1, t0)
        b.neg(t2, t0)
        b.not_(a0, zero)
        b.halt()
        core = run(b)
        assert core.registers[t1] == 12
        assert core.registers[t2] == (-12) & 0xFFFFFFFF
        assert core.registers[a0] == 0xFFFFFFFF

    def test_push_pop_roundtrip(self):
        b = AsmBuilder()
        b.label("main")
        b.li(t0, 3)
        b.li(t1, 4)
        b.push(t0, t1)
        b.li(t0, 0)
        b.li(t1, 0)
        b.pop(t0, t1)
        b.halt()
        core = run(b)
        assert core.registers[t0] == 3
        assert core.registers[t1] == 4


class TestEmittedCode:
    def test_emitted_ops_and_resolved_targets(self):
        b = AsmBuilder()
        b.label("main")
        b.add(t0, t1, t2)
        b.addi(t0, t0, 5)
        b.lw(t1, t0, 0)
        b.sw(t1, t0, 4)
        b.beq(t0, t1, "main")
        b.halt()
        program = b.build()
        ops = [inst.op for inst in program.instructions]
        assert ops == [Op.ADD, Op.ADDI, Op.LW, Op.SW, Op.BEQ, Op.HALT]
        assert program.instructions[4].target == 0
        assert program.instructions[3].rs2 == t1
        assert program.instructions[3].imm == 4
