"""go stand-in: board evaluation with hard data-dependent branches.

Passes over a 21x21 board comparing freshly loaded, continuously evolving
cell values: the branches are load branches with little value or history
structure, reproducing go's role in the paper as the hardest benchmark —
the poorest load-branch accuracy (Figure 5b) and the smallest ARVI gain
among the gainers (Figure 6).  The board is mutated every pass so neither
values nor history converge.
"""

from __future__ import annotations

from repro.isa import AsmBuilder, eqz, ge, gt, lt
from repro.isa.program import Program
from repro.isa.regs import (
    s0, s1, s2, s3, s4, s5, s6, t0, t1, t2, t3, t4, t5, t6, t7, t9,
)
from repro.workloads.common import rng_for, scaled

SIZE = 21  # board edge (cells are words)


def build(scale: float = 1.0, seed: int = 1) -> Program:
    passes = scaled(5, scale)
    rng = rng_for(seed, "go-board")
    board = [rng.randrange(0, 8) for _ in range(SIZE * SIZE)]

    b = AsmBuilder("go")
    b.data_word("board", *board)

    row_bytes = 4 * SIZE

    def evaluation_pass(threshold: int, mutate_shift: int) -> None:
        """One board sweep; distinct copies widen the static footprint."""
        with b.for_range(s1, 1, SIZE - 1):          # row
            # s3 = &board[row][0]
            b.li(t0, row_bytes)
            b.mult(t1, s1, t0)
            b.add(s3, s0, t1)
            with b.for_range(s2, 1, SIZE - 1):      # column
                b.slli(t0, s2, 2)
                b.add(t0, s3, t0)
                b.lw(t1, t0, 0)                     # cell
                b.lw(t2, t0, 4)                     # east
                b.lw(t3, t0, -4)                    # west
                b.lw(t4, t0, row_bytes)             # south
                b.lw(t5, t0, -row_bytes)            # north
                # Empty-point test (noisy bias).
                with b.if_(eqz(t1)):
                    b.addi(s4, s4, 1)
                # Neighbour comparisons: essentially value noise.
                with b.if_(gt(t2, t3)):
                    b.add(s5, s5, t2)
                with b.if_(lt(t4, t5)):
                    b.sub(s5, s5, t4)
                # Influence accumulation and threshold test.
                b.add(t6, t2, t3)
                b.add(t6, t6, t4)
                b.add(t6, t6, t5)
                with b.if_(ge(t6, threshold, imm=True)):
                    b.addi(s6, s6, 1)
                    # Mutate the cell so later passes see fresh values.
                    b.srli(t7, t6, mutate_shift)
                    b.add(t7, t7, t1)
                    b.andi(t7, t7, 7)
                    b.sw(t7, t0, 0)
    b.label("main")
    b.la(s0, "board")
    b.li(s4, 0)
    b.li(s5, 0)
    b.li(s6, 0)
    with b.for_range(t9, 0, passes):
        evaluation_pass(threshold=12, mutate_shift=1)
        evaluation_pass(threshold=16, mutate_shift=2)
        evaluation_pass(threshold=9, mutate_shift=3)
        b.la(s0, "board")
    b.halt()
    return b.build()
