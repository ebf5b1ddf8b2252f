"""Instruction set definition for the reproduction's RISC ISA.

The paper evaluates with SimpleScalar's PISA instruction set.  PISA itself
(and SPEC95 binaries for it) are unavailable, so we define a compact
PISA-flavoured RISC ISA: 32 integer registers with ``r0`` hardwired to
zero, three-operand ALU ops, displacement-addressed loads/stores, and
compare-and-branch conditional branches.  Conditional branches read two
register operands, matching the paper's model of a branch as "a decision
based on the relationship between two values" (Section 4).

Program counters are instruction indices (one word per instruction); the
byte address of an instruction is ``pc * 4`` for cache purposes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

WORD_BITS = 32
WORD_MASK = 0xFFFFFFFF
NUM_LOGICAL_REGS = 32


def to_u32(value: int) -> int:
    """Wrap an integer to its unsigned 32-bit representation."""
    return value & WORD_MASK


def to_s32(value: int) -> int:
    """Wrap an integer to its signed (two's complement) 32-bit value."""
    value &= WORD_MASK
    return value - (1 << WORD_BITS) if value >= (1 << (WORD_BITS - 1)) else value


class Op(enum.IntEnum):
    """Opcodes. IntEnum so hot paths can compare raw ints."""

    # Three-operand register ALU.
    ADD = enum.auto()
    SUB = enum.auto()
    AND = enum.auto()
    OR = enum.auto()
    XOR = enum.auto()
    NOR = enum.auto()
    SLL = enum.auto()
    SRL = enum.auto()
    SRA = enum.auto()
    SLT = enum.auto()
    SLTU = enum.auto()
    # Long-latency integer ops (dedicated mult/div unit).
    MULT = enum.auto()
    DIV = enum.auto()
    REM = enum.auto()
    # Immediate ALU.
    ADDI = enum.auto()
    ANDI = enum.auto()
    ORI = enum.auto()
    XORI = enum.auto()
    SLTI = enum.auto()
    SLLI = enum.auto()
    SRLI = enum.auto()
    SRAI = enum.auto()
    LUI = enum.auto()
    # Memory.
    LW = enum.auto()
    LB = enum.auto()
    LBU = enum.auto()
    SW = enum.auto()
    SB = enum.auto()
    # Conditional branches (reg-reg compare).
    BEQ = enum.auto()
    BNE = enum.auto()
    BLT = enum.auto()
    BGE = enum.auto()
    BLE = enum.auto()
    BGT = enum.auto()
    # Unconditional control.
    J = enum.auto()
    JAL = enum.auto()
    JR = enum.auto()
    JALR = enum.auto()
    # Misc.
    NOP = enum.auto()
    HALT = enum.auto()


# --- Opcode categories (frozensets of raw ints for fast membership). ------

ALU_REG_OPS = frozenset(
    int(o)
    for o in (
        Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.NOR,
        Op.SLL, Op.SRL, Op.SRA, Op.SLT, Op.SLTU,
    )
)
MULDIV_OPS = frozenset(int(o) for o in (Op.MULT, Op.DIV, Op.REM))
ALU_IMM_OPS = frozenset(
    int(o)
    for o in (
        Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLTI,
        Op.SLLI, Op.SRLI, Op.SRAI, Op.LUI,
    )
)
LOAD_OPS = frozenset(int(o) for o in (Op.LW, Op.LB, Op.LBU))
STORE_OPS = frozenset(int(o) for o in (Op.SW, Op.SB))
COND_BRANCH_OPS = frozenset(
    int(o) for o in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLE, Op.BGT)
)
JUMP_OPS = frozenset(int(o) for o in (Op.J, Op.JAL, Op.JR, Op.JALR))
CONTROL_OPS = COND_BRANCH_OPS | JUMP_OPS

# Branch condition negation, used by the structured builder to emit
# "branch around the body if the condition is false".
NEGATED_BRANCH = {
    Op.BEQ: Op.BNE,
    Op.BNE: Op.BEQ,
    Op.BLT: Op.BGE,
    Op.BGE: Op.BLT,
    Op.BLE: Op.BGT,
    Op.BGT: Op.BLE,
}

REG_ALIASES = {
    "zero": 0, "at": 1, "v0": 2, "v1": 3,
    "a0": 4, "a1": 5, "a2": 6, "a3": 7,
    "t0": 8, "t1": 9, "t2": 10, "t3": 11, "t4": 12, "t5": 13,
    "t6": 14, "t7": 15,
    "s0": 16, "s1": 17, "s2": 18, "s3": 19, "s4": 20, "s5": 21,
    "s6": 22, "s7": 23,
    "t8": 24, "t9": 25, "k0": 26, "k1": 27,
    "gp": 28, "sp": 29, "fp": 30, "ra": 31,
}
REG_NAMES = {num: name for name, num in REG_ALIASES.items()}


@dataclass(slots=True)
class Instruction:
    """One static instruction.

    ``rd`` is the destination logical register (or ``None``); ``rs1``/``rs2``
    are source logical registers (or ``None``); ``imm`` is the immediate /
    displacement; ``target`` is a branch/jump target — a label string before
    assembly and an instruction index afterwards.

    Category flags (``is_load``, ``is_cond_branch``, ...) and the source
    tuple are decoded once at construction — static instructions are
    inspected millions of times on the simulation hot path, so they are
    plain attributes, not properties.
    """

    op: Op
    rd: int | None = None
    rs1: int | None = None
    rs2: int | None = None
    imm: int = 0
    target: int | str | None = None
    label: str | None = field(default=None, compare=False)
    # Decode-once category flags (derived; excluded from eq/repr).
    opcode: int = field(init=False, repr=False, compare=False)
    is_load: bool = field(init=False, repr=False, compare=False)
    is_store: bool = field(init=False, repr=False, compare=False)
    is_mem: bool = field(init=False, repr=False, compare=False)
    is_cond_branch: bool = field(init=False, repr=False, compare=False)
    is_jump: bool = field(init=False, repr=False, compare=False)
    is_control: bool = field(init=False, repr=False, compare=False)
    is_muldiv: bool = field(init=False, repr=False, compare=False)
    _sources: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        opcode = int(self.op)
        self.opcode = opcode
        self.is_load = opcode in LOAD_OPS
        self.is_store = opcode in STORE_OPS
        self.is_mem = self.is_load or self.is_store
        self.is_cond_branch = opcode in COND_BRANCH_OPS
        self.is_jump = opcode in JUMP_OPS
        self.is_control = self.is_cond_branch or self.is_jump
        self.is_muldiv = opcode in MULDIV_OPS
        if self.rs1 is not None:
            if self.rs2 is not None:
                self._sources = (self.rs1, self.rs2)
            else:
                self._sources = (self.rs1,)
        elif self.rs2 is not None:
            self._sources = (self.rs2,)
        else:
            self._sources = ()

    def sources(self) -> tuple[int, ...]:
        """Logical source registers actually read by this instruction."""
        return self._sources

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return disassemble(self)


def _r(reg: int | None) -> str:
    if reg is None:
        return "?"
    return f"${REG_NAMES.get(reg, f'r{reg}')}"


def disassemble(inst: Instruction) -> str:
    """Render an instruction in assembler syntax (for logs and errors)."""
    op = inst.op
    name = op.name.lower()
    if int(op) in ALU_REG_OPS or int(op) in MULDIV_OPS:
        return f"{name} {_r(inst.rd)}, {_r(inst.rs1)}, {_r(inst.rs2)}"
    if int(op) in ALU_IMM_OPS:
        if op is Op.LUI:
            return f"{name} {_r(inst.rd)}, {inst.imm:#x}"
        return f"{name} {_r(inst.rd)}, {_r(inst.rs1)}, {inst.imm}"
    if int(op) in LOAD_OPS:
        return f"{name} {_r(inst.rd)}, {inst.imm}({_r(inst.rs1)})"
    if int(op) in STORE_OPS:
        return f"{name} {_r(inst.rs2)}, {inst.imm}({_r(inst.rs1)})"
    if int(op) in COND_BRANCH_OPS:
        return f"{name} {_r(inst.rs1)}, {_r(inst.rs2)}, {inst.target}"
    if op in (Op.J, Op.JAL):
        return f"{name} {inst.target}"
    if op is Op.JR:
        return f"{name} {_r(inst.rs1)}"
    if op is Op.JALR:
        return f"{name} {_r(inst.rd)}, {_r(inst.rs1)}"
    return name


def validate(inst: Instruction) -> None:
    """Raise ``ValueError`` if the instruction's operands are malformed."""
    op = int(inst.op)

    def need(cond: bool, what: str) -> None:
        if not cond:
            raise ValueError(f"{disassemble(inst)}: {what}")

    in_range = lambda r: r is not None and 0 <= r < NUM_LOGICAL_REGS
    if op in ALU_REG_OPS or op in MULDIV_OPS:
        need(in_range(inst.rd), "needs destination register")
        need(in_range(inst.rs1) and in_range(inst.rs2), "needs two sources")
    elif op in ALU_IMM_OPS:
        need(in_range(inst.rd), "needs destination register")
        if inst.op is not Op.LUI:
            need(in_range(inst.rs1), "needs one source")
    elif op in LOAD_OPS:
        need(in_range(inst.rd), "load needs destination")
        need(in_range(inst.rs1), "load needs base register")
    elif op in STORE_OPS:
        need(in_range(inst.rs1), "store needs base register")
        need(in_range(inst.rs2), "store needs value register")
    elif op in COND_BRANCH_OPS:
        need(in_range(inst.rs1) and in_range(inst.rs2), "branch needs two sources")
        need(inst.target is not None, "branch needs target")
    elif inst.op in (Op.J, Op.JAL):
        need(inst.target is not None, "jump needs target")
    elif inst.op in (Op.JR, Op.JALR):
        need(in_range(inst.rs1), "jr needs target register")
    if inst.rd == 0 and inst.rd is not None and op not in STORE_OPS:
        # Writing r0 is legal (it is a discard) but usually a bug in
        # hand-written kernels; allow it silently (NOP is encoded this way).
        pass


def branch_taken(op: Op, lhs: int, rhs: int) -> bool:
    """Evaluate a conditional branch on signed 32-bit operand values."""
    a, b = to_s32(lhs), to_s32(rhs)
    if op is Op.BEQ:
        return a == b
    if op is Op.BNE:
        return a != b
    if op is Op.BLT:
        return a < b
    if op is Op.BGE:
        return a >= b
    if op is Op.BLE:
        return a <= b
    if op is Op.BGT:
        return a > b
    raise ValueError(f"not a conditional branch: {op}")
