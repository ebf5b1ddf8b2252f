"""li (xlisp) stand-in: tagged cons-cell interpreter.

Static list structures are traversed repeatedly with a type-tag dispatch
per cell — pointer chasing where both the dispatch operand (the tag) and
the next pointer come from loads, but the structure is immutable, so every
(root, position) pair behaves deterministically.  As with m88ksim the
chain-depth tag lets ARVI separate positions along a list; the multiway
dispatch and larger working set give it more BVIT pressure, matching li's
moderate gain in the paper (93% -> 95.5%).
"""

from __future__ import annotations

from repro.isa import AsmBuilder, eq
from repro.isa.program import Program
from repro.isa.regs import (
    a0, s0, s1, s2, s4, s5, t0, t1, t2, t3, zero,
)
from repro.workloads.common import rng_for, scaled

TAG_INT, TAG_SYM, TAG_CONS, TAG_WEIGHT = 0, 1, 2, 3
NUM_ROOTS = 48
MAX_DEPTH = 6


def _build_cells(b: AsmBuilder, seed: int) -> list[int]:
    """Allocate immutable tagged cells; returns root addresses."""
    rng = rng_for(seed, "li-cells")

    def make_list(depth: int) -> int:
        """Build a chain of 1..6 cells; returns its head address (0=nil)."""
        length = rng.randint(1, 6)
        head = 0
        for _ in range(length):
            tag = rng.choice([TAG_INT, TAG_INT, TAG_SYM, TAG_WEIGHT]
                             + ([TAG_CONS] if depth < MAX_DEPTH else []))
            if tag == TAG_CONS:
                value = make_list(depth + 1)
                if value == 0:
                    tag, value = TAG_INT, rng.randrange(1, 1000)
            else:
                value = rng.randrange(1, 1000)
            addr = b.data_word(None, tag, value, head)
            head = addr
        return head

    return [make_list(0) or b.data_word(None, TAG_INT, 7, 0)
            for _ in range(NUM_ROOTS)]


def build(scale: float = 1.0, seed: int = 1) -> Program:
    iterations = scaled(1500, scale)
    b = AsmBuilder("li")
    roots = _build_cells(b, seed)
    b.data_word("roots", *roots)

    b.label("main")
    b.la(s0, "roots")
    b.li(s1, 0)              # root index
    b.li(s2, 0)              # accumulator
    with b.for_range(s5, 0, iterations):
        # a0 = roots[i]; i = (i + 1) % NUM_ROOTS
        b.slli(t0, s1, 2)
        b.add(t0, t0, s0)
        b.lw(a0, t0, 0)
        b.addi(s1, s1, 1)
        with b.if_(eq(s1, NUM_ROOTS, imm=True)):
            b.li(s1, 0)
        # Iterative eval of the list at a0 with an explicit depth fuse.
        b.li(s4, 0)                       # descent fuse
        walk = b.new_label("eval")
        done = b.new_label("eval_done")
        b.label(walk)
        b.beq(a0, zero, done)             # nil
        b.lw(t1, a0, 0)                   # tag
        b.lw(t2, a0, 4)                   # value
        with b.if_(eq(t1, TAG_INT, imm=True)):
            b.add(s2, s2, t2)
        with b.if_(eq(t1, TAG_SYM, imm=True)):
            b.slli(t3, t2, 1)
            b.xor(s2, s2, t3)
        with b.if_(eq(t1, TAG_WEIGHT, imm=True)):
            b.srli(t3, t2, 2)
            b.sub(s2, s2, t3)
        with b.if_(eq(t1, TAG_CONS, imm=True)):
            b.addi(s4, s4, 1)
            with b.if_(eq(s4, 8, imm=True)):
                b.j(done)                 # fuse blown: stop descending
            b.move(a0, t2)                # descend into the sublist
            b.j(walk)
        b.lw(a0, a0, 8)                   # next cell
        b.j(walk)
        b.label(done)
    b.halt()
    return b.build()
