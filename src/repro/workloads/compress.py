"""compress stand-in: LZW-style dictionary compression.

The inner loop hashes (prefix, byte) pairs into an open-addressed
dictionary and branches on probe hit / empty / collision — data-dependent
branches whose operands come from recent loads, the classic
load-evaluate-branch pattern the paper highlights for SPEC95int.  The
input is a seeded, phrase-repeating byte stream, so dictionary hits have
exploitable structure (paper Figure 6: ARVI lifts compress from about
90.5% to 93%).
"""

from __future__ import annotations

from repro.isa import AsmBuilder, eq, eqz
from repro.isa.program import Program
from repro.isa.regs import (
    a0, k0, k1, s0, s1, s2, s3, s4, s5, t0, t1, t2, t3, t4, t5,
)
from repro.workloads.common import rng_for, scaled, skewed_bytes

INPUT_BYTES = 2048
TABLE_ENTRIES = 8192  # power of two; bounds distinct (prefix, byte) keys
PROBE_STEP = 7


def build(scale: float = 1.0, seed: int = 1) -> Program:
    passes = scaled(3, scale)
    rng = rng_for(seed, "compress-input")
    data = skewed_bytes(rng, INPUT_BYTES)

    b = AsmBuilder("compress")
    b.data_word("input", *data)
    b.data_space("tkey", TABLE_ENTRIES)
    b.data_space("tcode", TABLE_ENTRIES)

    b.label("main")
    b.la(s0, "input")
    b.la(k0, "tkey")
    b.la(k1, "tcode")
    b.li(s3, 256)           # next dictionary code
    b.li(s4, 0)             # output checksum
    with b.for_range(s5, 0, passes):
        b.li(s2, 0)         # prefix
        with b.for_range(s1, 0, INPUT_BYTES):
            # c = input[i]
            b.slli(t0, s1, 2)
            b.add(t0, t0, s0)
            b.lw(t1, t0, 0)
            # key = (prefix << 8) | c ; never zero because c >= 1
            b.slli(t2, s2, 8)
            b.or_(a0, t2, t1)
            # h = (key ^ (key >> 7)) & (TABLE_ENTRIES - 1)
            b.srli(t2, a0, 7)
            b.xor(t2, t2, a0)
            b.andi(t2, t2, TABLE_ENTRIES - 1)
            probe_top = b.new_label("probe")
            done = b.new_label("byte_done")
            b.label(probe_top)
            # e = tkey[h]
            b.slli(t3, t2, 2)
            b.add(t4, t3, k0)
            b.lw(t5, t4, 0)
            with b.if_(eq(t5, a0)):
                # Dictionary hit: prefix = tcode[h] & 0xff.
                b.add(t4, t3, k1)
                b.lw(s2, t4, 0)
                b.andi(s2, s2, 0xFF)
                b.j(done)
            with b.if_(eqz(t5)):
                # Empty slot: insert, emit prefix, restart with byte.
                b.sw(a0, t4, 0)
                b.add(t4, t3, k1)
                b.sw(s3, t4, 0)
                b.addi(s3, s3, 1)
                b.add(s4, s4, s2)      # emit(prefix)
                b.andi(s2, t1, 0xFF)   # prefix = c
                b.j(done)
            # Collision: linear reprobe.
            b.addi(t2, t2, PROBE_STEP)
            b.andi(t2, t2, TABLE_ENTRIES - 1)
            b.j(probe_top)
            b.label(done)
            # Fold the emitted stream into a checksum.
            b.slli(t2, s4, 1)
            b.xor(s4, s4, t2)
    b.halt()
    return b.build()
