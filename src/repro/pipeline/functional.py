"""Functional (architectural) execution.

The timing engine is oracle-driven: a :class:`FunctionalCore` executes the
program in architectural order and produces one :class:`DynInst` record per
dynamic instruction (values, branch outcomes, effective addresses).  The
out-of-order timing model consumes this stream, attaching cycle timestamps
and driving the predictors and the DDT.

Instruction semantics live in a per-opcode handler table (``_DISPATCH``)
indexed by the raw opcode int — one indexed call per instruction instead
of the seed's ``if/elif`` opcode chain.  Every handler is re-entrant over
an abstract *state* (register file + memory accessors + ``halted`` flag):
:class:`FunctionalCore` is the architectural state; the speculation
subsystem's :class:`~repro.speculation.wrongpath.WrongPathCore` dispatches
through the same table over a register copy and a copy-on-write memory
view to synthesize wrong-path instruction streams without mutating
architectural state (DESIGN.md §2.2).

Arithmetic is bit-for-bit identical to the seed implementation: the
``to_u32`` / ``to_s32`` wrappers are inlined as ``& 0xFFFFFFFF`` and
``((x & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000``, which agree with the
function forms for every Python int.
"""

from __future__ import annotations

from repro.isa import regs
from repro.isa.instructions import Instruction, Op, disassemble
from repro.isa.program import DATA_BASE, STACK_TOP, Program

_WM = 0xFFFFFFFF
_SIGN = 0x80000000

#: Shared instruction budget default for functional runs, engine runs and
#: trace recordings.  A trace recorded under this budget can replay any
#: engine run with the same (or smaller) budget bit-for-bit.
DEFAULT_MAX_INSTRUCTIONS = 10_000_000


class ExecutionError(RuntimeError):
    """Raised on architectural faults (bad address, unaligned access...)."""


class DynInst:
    """One dynamic instruction instance with its architectural effects."""

    __slots__ = (
        "seq", "pc", "inst", "op", "rd", "rs1", "rs2",
        "sval1", "sval2", "result", "taken", "next_pc",
        "addr", "store_value", "is_load", "is_store", "is_cond_branch",
    )

    def __init__(self, seq: int, pc: int, inst: Instruction) -> None:
        self.seq = seq
        self.pc = pc
        self.inst = inst
        self.op = inst.opcode
        self.rd = inst.rd
        self.rs1 = inst.rs1
        self.rs2 = inst.rs2
        self.sval1 = 0
        self.sval2 = 0
        self.result: int | None = None
        self.taken: bool | None = None
        self.next_pc = pc + 1
        self.addr: int | None = None
        self.store_value: int | None = None
        self.is_load = inst.is_load
        self.is_store = inst.is_store
        self.is_cond_branch = inst.is_cond_branch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DynInst #{self.seq} pc={self.pc} {disassemble(self.inst)}>"


# -- per-opcode handlers --------------------------------------------------
#
# Handler contract: ``dyn`` is freshly initialized (``next_pc == pc + 1``,
# ``result``/``taken``/``addr``/``store_value`` None, svals 0).  Handlers
# read operands, record ``sval1``/``sval2``, apply the architectural
# effect through ``state`` and fill in the outcome fields.  The shared
# result tail replicates the seed exactly: a computed result is written to
# the register file unless ``rd`` is None or r0; an r0 write is an
# architectural discard (``result`` coerced to 0).


def _make_rr(compute):
    """Handler factory: reg-reg op, shared operand reads + writeback tail."""
    def handler(state, dyn):
        inst = dyn.inst
        regfile = state.registers
        a = regfile[inst.rs1]
        b = regfile[inst.rs2]
        dyn.sval1 = a
        dyn.sval2 = b
        r = compute(a, b)
        rd = inst.rd
        if rd:
            regfile[rd] = r
        elif rd == 0:
            r = 0
        dyn.result = r
        return dyn
    return handler


def _make_ri(compute):
    """Handler factory: reg-immediate op with the shared writeback tail."""
    def handler(state, dyn):
        inst = dyn.inst
        regfile = state.registers
        a = regfile[inst.rs1]
        dyn.sval1 = a
        r = compute(a, inst.imm)
        rd = inst.rd
        if rd:
            regfile[rd] = r
        elif rd == 0:
            r = 0
        dyn.result = r
        return dyn
    return handler


def _make_load(loader):
    """Handler factory: displacement load (address recorded, then tail)."""
    def handler(state, dyn):
        inst = dyn.inst
        regfile = state.registers
        a = regfile[inst.rs1]
        dyn.sval1 = a
        addr = (a + inst.imm) & _WM
        dyn.addr = addr
        r = loader(state, addr)
        rd = inst.rd
        if rd:
            regfile[rd] = r
        elif rd == 0:
            r = 0
        dyn.result = r
        return dyn
    return handler


def _make_branch(test):
    """Handler factory: compare-and-branch (no register writeback)."""
    def handler(state, dyn):
        inst = dyn.inst
        regfile = state.registers
        a = regfile[inst.rs1]
        b = regfile[inst.rs2]
        dyn.sval1 = a
        dyn.sval2 = b
        taken = test(a, b)
        dyn.taken = taken
        if taken:
            dyn.next_pc = inst.target
        return dyn
    return handler


def _s32(x):
    """Signed view of a 32-bit value (exact inline form of ``to_s32``)."""
    return ((x & _WM) ^ _SIGN) - _SIGN


def _div32(a, b):
    sa = _s32(a)
    sb = _s32(b)
    return 0 if sb == 0 else int(sa / sb) & _WM


def _rem32(a, b):
    sa = _s32(a)
    sb = _s32(b)
    return 0 if sb == 0 else (sa - int(sa / sb) * sb) & _WM


def _ex_lui(state, dyn):
    inst = dyn.inst
    r = (inst.imm << 16) & _WM
    rd = inst.rd
    if rd:
        state.registers[rd] = r
    elif rd == 0:
        r = 0
    dyn.result = r
    return dyn


def _ex_sw(state, dyn):
    inst = dyn.inst
    regfile = state.registers
    a = regfile[inst.rs1]
    b = regfile[inst.rs2]
    dyn.sval1 = a
    dyn.sval2 = b
    addr = (a + inst.imm) & _WM
    dyn.addr = addr
    dyn.store_value = b
    state.store_word(addr, b)
    return dyn


def _ex_sb(state, dyn):
    inst = dyn.inst
    regfile = state.registers
    a = regfile[inst.rs1]
    b = regfile[inst.rs2]
    dyn.sval1 = a
    dyn.sval2 = b
    addr = (a + inst.imm) & _WM
    dyn.addr = addr
    dyn.store_value = b & 0xFF
    state.store_byte(addr, b)
    return dyn


def _ex_j(state, dyn):
    dyn.next_pc = dyn.inst.target
    return dyn


def _ex_jal(state, dyn):
    inst = dyn.inst
    r = dyn.pc + 1
    dyn.next_pc = inst.target
    rd = inst.rd
    if rd:
        state.registers[rd] = r
    elif rd == 0:
        r = 0
    dyn.result = r
    return dyn


def _ex_jr(state, dyn):
    inst = dyn.inst
    a = state.registers[inst.rs1]
    dyn.sval1 = a
    dyn.next_pc = a
    return dyn


def _ex_jalr(state, dyn):
    inst = dyn.inst
    regfile = state.registers
    a = regfile[inst.rs1]
    dyn.sval1 = a
    r = dyn.pc + 1
    dyn.next_pc = a
    rd = inst.rd
    if rd:
        regfile[rd] = r
    elif rd == 0:
        r = 0
    dyn.result = r
    return dyn


def _ex_nop(state, dyn):
    return dyn


def _ex_halt(state, dyn):
    state.halted = True
    dyn.next_pc = dyn.pc
    return dyn


def _ex_unimplemented(state, dyn):  # pragma: no cover - all opcodes handled
    raise ExecutionError(f"unimplemented opcode {Op(dyn.op)!r}")


_HANDLERS = {
    Op.ADD: _make_rr(lambda a, b: (a + b) & _WM),
    Op.SUB: _make_rr(lambda a, b: (a - b) & _WM),
    Op.AND: _make_rr(lambda a, b: a & b),
    Op.OR: _make_rr(lambda a, b: a | b),
    Op.XOR: _make_rr(lambda a, b: a ^ b),
    Op.NOR: _make_rr(lambda a, b: ~(a | b) & _WM),
    Op.SLL: _make_rr(lambda a, b: (a << (b & 31)) & _WM),
    Op.SRL: _make_rr(lambda a, b: a >> (b & 31)),
    Op.SRA: _make_rr(lambda a, b: (_s32(a) >> (b & 31)) & _WM),
    Op.SLT: _make_rr(lambda a, b: 1 if _s32(a) < _s32(b) else 0),
    Op.SLTU: _make_rr(lambda a, b: 1 if a < b else 0),
    Op.MULT: _make_rr(lambda a, b: (_s32(a) * _s32(b)) & _WM),
    Op.DIV: _make_rr(_div32),
    Op.REM: _make_rr(_rem32),
    Op.ADDI: _make_ri(lambda a, imm: (a + imm) & _WM),
    Op.ANDI: _make_ri(lambda a, imm: a & (imm & 0xFFFF)),
    Op.ORI: _make_ri(lambda a, imm: a | (imm & 0xFFFF)),
    Op.XORI: _make_ri(lambda a, imm: a ^ (imm & 0xFFFF)),
    Op.SLTI: _make_ri(lambda a, imm: 1 if _s32(a) < imm else 0),
    Op.SLLI: _make_ri(lambda a, imm: (a << (imm & 31)) & _WM),
    Op.SRLI: _make_ri(lambda a, imm: a >> (imm & 31)),
    Op.SRAI: _make_ri(lambda a, imm: (_s32(a) >> (imm & 31)) & _WM),
    Op.LUI: _ex_lui,
    Op.LW: _make_load(lambda state, addr: state.load_word(addr)),
    Op.LB: _make_load(
        lambda state, addr: state.load_byte(addr, signed=True) & _WM),
    Op.LBU: _make_load(lambda state, addr: state.load_byte(addr, signed=False)),
    Op.SW: _ex_sw,
    Op.SB: _ex_sb,
    Op.BEQ: _make_branch(lambda a, b: (a & _WM) == (b & _WM)),
    Op.BNE: _make_branch(lambda a, b: (a & _WM) != (b & _WM)),
    Op.BLT: _make_branch(lambda a, b: _s32(a) < _s32(b)),
    Op.BGE: _make_branch(lambda a, b: _s32(a) >= _s32(b)),
    Op.BLE: _make_branch(lambda a, b: _s32(a) <= _s32(b)),
    Op.BGT: _make_branch(lambda a, b: _s32(a) > _s32(b)),
    Op.J: _ex_j,
    Op.JAL: _ex_jal,
    Op.JR: _ex_jr,
    Op.JALR: _ex_jalr,
    Op.NOP: _ex_nop,
    Op.HALT: _ex_halt,
}

#: Opcode-indexed dispatch table (list indexing beats dict lookup and the
#: seed's ~15-comparison ``if/elif`` chain on the per-instruction path).
_DISPATCH = [_ex_unimplemented] * (max(int(op) for op in Op) + 1)
for _op, _handler in _HANDLERS.items():
    _DISPATCH[int(_op)] = _handler
del _HANDLERS


class FunctionalCore:
    """In-order architectural interpreter for assembled programs."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.memory = program.initial_memory()
        self.registers = [0] * 32
        self.registers[regs.sp] = STACK_TOP
        self.registers[regs.gp] = DATA_BASE
        self.pc = program.entry
        self.halted = False
        self.instruction_count = 0
        # Hot-path aliases over the pre-decoded per-PC table.
        self._decoded = program.decoded().insts

    # -- memory helpers ------------------------------------------------------

    def load_word(self, addr: int) -> int:
        self._check_addr(addr, 4, aligned=4)
        return int.from_bytes(self.memory[addr:addr + 4], "little")

    def store_word(self, addr: int, value: int) -> None:
        self._check_addr(addr, 4, aligned=4)
        self.memory[addr:addr + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    def load_byte(self, addr: int, *, signed: bool) -> int:
        self._check_addr(addr, 1, aligned=1)
        byte = self.memory[addr]
        if signed and byte >= 0x80:
            return byte - 0x100
        return byte

    def store_byte(self, addr: int, value: int) -> None:
        self._check_addr(addr, 1, aligned=1)
        self.memory[addr] = value & 0xFF

    def _check_addr(self, addr: int, size: int, *, aligned: int) -> None:
        if addr < 0 or addr + size > len(self.memory):
            raise ExecutionError(
                f"pc={self.pc}: memory access out of range: {addr:#x}"
            )
        if aligned > 1 and addr % aligned:
            raise ExecutionError(
                f"pc={self.pc}: unaligned {size}-byte access at {addr:#x}"
            )

    # -- execution --------------------------------------------------------------

    def step(self) -> DynInst | None:
        """Execute one instruction; returns None once halted."""
        if self.halted:
            return None
        pc = self.pc
        decoded = self._decoded
        if not 0 <= pc < len(decoded):
            raise ExecutionError(f"pc out of range: {pc}")
        dyn = DynInst(self.instruction_count, pc, decoded[pc].inst)
        self.instruction_count += 1
        _DISPATCH[dyn.op](self, dyn)
        self.pc = dyn.next_pc
        return dyn

    def run(self, max_instructions: int = DEFAULT_MAX_INSTRUCTIONS):
        """Yield dynamic instructions until HALT or the budget is reached."""
        while not self.halted and self.instruction_count < max_instructions:
            dyn = self.step()
            if dyn is None:
                break
            yield dyn

    def run_to_completion(
            self, max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> int:
        """Execute without yielding; returns the instruction count."""
        for _ in self.run(max_instructions):
            pass
        return self.instruction_count
