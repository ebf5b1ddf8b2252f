"""perl stand-in: bytecode interpreter dispatch loop.

A small stack VM executes a seeded bytecode program built from repeating
phrases: the dispatch is a compare-chain over the loaded opcode (the
interpreter-loop pattern), plus a value-dependent ``jz``.  The opcode
sequence is long and repetitive, so big history tables do well; ARVI is
roughly comparable with a small edge, as the paper reports for perl.
"""

from __future__ import annotations

from repro.isa import AsmBuilder, eq, eqz
from repro.isa.program import Program
from repro.isa.regs import (
    k0, s0, s1, s2, s4, t0, t1, t2, t3, t4,
)
from repro.workloads.common import rng_for, scaled

OP_PUSH, OP_ADD, OP_SUB, OP_DUP, OP_JZ, OP_LOADV, OP_STOREV, OP_END = range(8)
VM_STACK_WORDS = 64
VM_VARS = 16


def _generate_bytecode(seed: int) -> list[int]:
    """Phrase-structured (op, operand) stream ending in OP_END."""
    rng = rng_for(seed, "perl-bytecode")
    program: list[tuple[int, int]] = []

    def phrase() -> list[tuple[int, int]]:
        kind = rng.randrange(4)
        if kind == 0:   # arithmetic burst
            out = [(OP_PUSH, rng.randrange(1, 50))
                   for _ in range(rng.randint(2, 4))]
            out += [(OP_ADD, 0)] * (len(out) - 1)
            return out
        if kind == 1:   # variable update
            var = rng.randrange(VM_VARS)
            return [(OP_LOADV, var), (OP_PUSH, rng.randrange(1, 9)),
                    (OP_ADD, 0), (OP_STOREV, var)]
        if kind == 2:   # conditional skip (target patched below)
            var = rng.randrange(VM_VARS)
            return [(OP_LOADV, var), (OP_PUSH, 3), (OP_SUB, 0), (OP_JZ, -1),
                    (OP_PUSH, rng.randrange(1, 9)), (OP_STOREV, var)]
        return [(OP_PUSH, rng.randrange(1, 30)), (OP_DUP, 0), (OP_SUB, 0),
                (OP_STOREV, rng.randrange(VM_VARS))]

    phrases = [phrase() for _ in range(10)]
    while len(program) < 220:
        program.extend(rng.choice(phrases))
    # Patch every JZ to skip the next two VM instructions.
    for i, (op, _) in enumerate(program):
        if op == OP_JZ:
            program[i] = (OP_JZ, min(i + 3, len(program)))
    program.append((OP_END, 0))
    flat: list[int] = []
    for op, operand in program:
        flat.extend([op, operand])
    return flat


def build(scale: float = 1.0, seed: int = 1) -> Program:
    runs = scaled(30, scale)
    b = AsmBuilder("perl")
    bytecode = _generate_bytecode(seed)
    b.data_word("bytecode", *bytecode)
    b.data_space("vmstack", VM_STACK_WORDS)
    b.data_space("vmvars", VM_VARS)

    b.label("main")
    b.la(s0, "bytecode")
    b.la(s1, "vmvars")
    with b.for_range(s4, 0, runs):
        b.la(k0, "vmstack")       # VM stack pointer (grows up)
        b.li(s2, 0)               # vm_pc
        dispatch = b.new_label("dispatch")
        vm_end = b.new_label("vm_end")
        b.label(dispatch)
        # t0 = &bytecode[vm_pc * 2]
        b.slli(t0, s2, 3)
        b.add(t0, t0, s0)
        b.lw(t1, t0, 0)           # opcode
        b.lw(t2, t0, 4)           # operand
        b.addi(s2, s2, 1)
        with b.if_(eq(t1, OP_PUSH, imm=True)):
            b.sw(t2, k0, 0)
            b.addi(k0, k0, 4)
            b.j(dispatch)
        with b.if_(eq(t1, OP_ADD, imm=True)):
            b.lw(t3, k0, -4)
            b.lw(t4, k0, -8)
            b.add(t3, t3, t4)
            b.sw(t3, k0, -8)
            b.addi(k0, k0, -4)
            b.j(dispatch)
        with b.if_(eq(t1, OP_SUB, imm=True)):
            b.lw(t3, k0, -4)
            b.lw(t4, k0, -8)
            b.sub(t3, t4, t3)
            b.sw(t3, k0, -8)
            b.addi(k0, k0, -4)
            b.j(dispatch)
        with b.if_(eq(t1, OP_DUP, imm=True)):
            b.lw(t3, k0, -4)
            b.sw(t3, k0, 0)
            b.addi(k0, k0, 4)
            b.j(dispatch)
        with b.if_(eq(t1, OP_JZ, imm=True)):
            b.lw(t3, k0, -4)
            b.addi(k0, k0, -4)
            with b.if_(eqz(t3)):      # value-dependent VM branch
                b.move(s2, t2)
            b.j(dispatch)
        with b.if_(eq(t1, OP_LOADV, imm=True)):
            b.slli(t3, t2, 2)
            b.add(t3, t3, s1)
            b.lw(t4, t3, 0)
            b.sw(t4, k0, 0)
            b.addi(k0, k0, 4)
            b.j(dispatch)
        with b.if_(eq(t1, OP_STOREV, imm=True)):
            b.lw(t4, k0, -4)
            b.addi(k0, k0, -4)
            b.slli(t3, t2, 2)
            b.add(t3, t3, s1)
            b.sw(t4, t3, 0)
            b.j(dispatch)
        # OP_END (or unknown): stop this run.
        b.label(vm_end)
        b.nop()
    b.halt()
    return b.build()
