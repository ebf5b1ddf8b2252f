"""Unit tests for instruction definitions and helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import regs
from repro.isa.instructions import (
    ALU_IMM_OPS,
    ALU_REG_OPS,
    COND_BRANCH_OPS,
    JUMP_OPS,
    LOAD_OPS,
    NEGATED_BRANCH,
    NUM_LOGICAL_REGS,
    REG_ALIASES,
    REG_NAMES,
    STORE_OPS,
    Instruction,
    Op,
    branch_taken,
    disassemble,
    to_s32,
    to_u32,
    validate,
)


class TestWordArithmetic:
    def test_to_u32_wraps(self):
        assert to_u32(0x1_0000_0005) == 5
        assert to_u32(-1) == 0xFFFFFFFF

    def test_to_s32_sign(self):
        assert to_s32(0xFFFFFFFF) == -1
        assert to_s32(0x7FFFFFFF) == 0x7FFFFFFF
        assert to_s32(0x80000000) == -(1 << 31)

    @given(st.integers(min_value=-(1 << 40), max_value=1 << 40))
    def test_roundtrip(self, value):
        assert to_u32(to_s32(value)) == to_u32(value)
        assert -(1 << 31) <= to_s32(value) < (1 << 31)


class TestRegisterNames:
    def test_aliases_match_regs_constants(self):
        named = {name: getattr(regs, name) for name in REG_ALIASES}
        assert named == REG_ALIASES

    def test_names_cover_every_logical_register_once(self):
        assert sorted(REG_NAMES) == list(range(NUM_LOGICAL_REGS))
        assert len(set(REG_NAMES.values())) == NUM_LOGICAL_REGS


class TestCategories:
    def test_disjoint(self):
        groups = [ALU_REG_OPS, ALU_IMM_OPS, LOAD_OPS, STORE_OPS,
                  COND_BRANCH_OPS, JUMP_OPS]
        seen = set()
        for group in groups:
            assert not (seen & group)
            seen |= group

    def test_every_branch_has_negation(self):
        for op_int in COND_BRANCH_OPS:
            op = Op(op_int)
            assert NEGATED_BRANCH[NEGATED_BRANCH[op]] is op

    def test_instruction_category_properties(self):
        load = Instruction(Op.LW, rd=1, rs1=2)
        store = Instruction(Op.SW, rs1=2, rs2=3)
        branch = Instruction(Op.BEQ, rs1=1, rs2=2, target=0)
        assert load.is_load and load.is_mem and not load.is_store
        assert store.is_store and store.is_mem
        assert branch.is_cond_branch and branch.is_control
        assert Instruction(Op.J, target=0).is_jump


class TestBranchTaken:
    @pytest.mark.parametrize("op,a,b,expected", [
        (Op.BEQ, 5, 5, True), (Op.BEQ, 5, 6, False),
        (Op.BNE, 5, 6, True), (Op.BNE, 5, 5, False),
        (Op.BLT, 1, 2, True), (Op.BLT, 2, 1, False),
        (Op.BGE, 2, 2, True), (Op.BLE, 2, 2, True),
        (Op.BGT, 3, 2, True), (Op.BGT, 2, 3, False),
    ])
    def test_basic(self, op, a, b, expected):
        assert branch_taken(op, a, b) is expected

    def test_signed_comparison(self):
        # 0xFFFFFFFF is -1 signed: less than 0.
        assert branch_taken(Op.BLT, 0xFFFFFFFF, 0)
        assert not branch_taken(Op.BGT, 0xFFFFFFFF, 0)

    def test_non_branch_rejected(self):
        with pytest.raises(ValueError):
            branch_taken(Op.ADD, 0, 0)

    @given(st.sampled_from(sorted(COND_BRANCH_OPS)),
           st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFFFFFF))
    def test_negation_is_complement(self, op_int, a, b):
        op = Op(op_int)
        assert branch_taken(op, a, b) != branch_taken(NEGATED_BRANCH[op], a, b)


class TestValidateAndDisassemble:
    def test_validate_catches_missing_operands(self):
        with pytest.raises(ValueError):
            validate(Instruction(Op.ADD, rd=1, rs1=2))  # missing rs2
        with pytest.raises(ValueError):
            validate(Instruction(Op.LW, rd=1))           # missing base
        with pytest.raises(ValueError):
            validate(Instruction(Op.BEQ, rs1=1, rs2=2))  # missing target

    def test_validate_accepts_good_instructions(self):
        validate(Instruction(Op.ADD, rd=1, rs1=2, rs2=3))
        validate(Instruction(Op.SW, rs1=2, rs2=3, imm=4))
        validate(Instruction(Op.J, target=7))

    def test_disassemble_forms(self):
        assert disassemble(
            Instruction(Op.ADD, rd=8, rs1=9, rs2=10)) == "add $t0, $t1, $t2"
        assert disassemble(
            Instruction(Op.LW, rd=8, rs1=29, imm=4)) == "lw $t0, 4($sp)"
        assert disassemble(
            Instruction(Op.SW, rs1=29, rs2=8, imm=-8)) == "sw $t0, -8($sp)"
        assert "beq" in disassemble(
            Instruction(Op.BEQ, rs1=8, rs2=0, target="loop"))

    @pytest.mark.parametrize("inst,text", [
        pytest.param(Instruction(Op.MULT, rd=2, rs1=4, rs2=5),
                     "mult $v0, $a0, $a1", id="mult"),
        pytest.param(Instruction(Op.ADDI, rd=8, rs1=8, imm=-3),
                     "addi $t0, $t0, -3", id="addi"),
        pytest.param(Instruction(Op.LUI, rd=8, imm=0x1234), "lui $t0, 0x1234",
                     id="lui"),
        pytest.param(Instruction(Op.LBU, rd=9, rs1=8, imm=1),
                     "lbu $t1, 1($t0)", id="lbu"),
        pytest.param(Instruction(Op.SB, rs1=8, rs2=9), "sb $t1, 0($t0)",
                     id="sb"),
        pytest.param(Instruction(Op.J, target="loop"), "j loop",
                     id="j"),
        pytest.param(Instruction(Op.JAL, rd=31, target=12), "jal 12",
                     id="jal"),
        pytest.param(Instruction(Op.JR, rs1=31), "jr $ra",
                     id="jr"),
        pytest.param(Instruction(Op.JALR, rd=31, rs1=8), "jalr $ra, $t0",
                     id="jalr"),
        pytest.param(Instruction(Op.NOP), "nop",
                     id="nop"),
        pytest.param(Instruction(Op.HALT), "halt",
                     id="halt"),
        # validate's messages render unnamed and missing registers.
        pytest.param(Instruction(Op.ADD, rd=40, rs1=8), "add $r40, $t0, ?",
                     id="unnamed-and-missing"),
    ])
    def test_disassemble_other_forms(self, inst, text):
        assert disassemble(inst) == text

    @pytest.mark.parametrize("inst,message", [
        pytest.param(Instruction(Op.ADD, rd=32, rs1=1, rs2=2),
                     "destination", id="add-rd"),
        pytest.param(Instruction(Op.ADD, rd=1, rs1=2, rs2=32),
                     "two sources", id="add-rs2"),
        pytest.param(Instruction(Op.MULT, rd=1, rs1=-1, rs2=2),
                     "two sources", id="mult-rs1"),
        pytest.param(Instruction(Op.ADDI, rd=1, rs1=-1, imm=4),
                     "one source", id="addi-rs1"),
        pytest.param(Instruction(Op.LUI, rd=32, imm=1),
                     "destination", id="lui-rd"),
        pytest.param(Instruction(Op.LW, rd=1, rs1=32),
                     "base register", id="lw-base"),
        pytest.param(Instruction(Op.SW, rs1=2, rs2=32),
                     "value register", id="sw-value"),
        pytest.param(Instruction(Op.BEQ, rs1=32, rs2=1, target=0),
                     "two sources", id="beq-rs1"),
        pytest.param(Instruction(Op.JR, rs1=32),
                     "target register", id="jr-rs1"),
    ])
    def test_validate_rejects_out_of_range_registers(self, inst, message):
        with pytest.raises(ValueError, match=message):
            validate(inst)
