"""Wrong-path instruction synthesis (DESIGN.md §2.2, ``wrongpath`` mode).

On a mispredicted branch a real machine keeps fetching down the predicted
(wrong) path until the branch resolves; those instructions rename, occupy
the ROB/DDT, touch the caches and are then squashed.  The timing engine is
oracle-driven and only ever sees correct-path instructions, so this module
*synthesizes* the wrong-path stream: :class:`WrongPathCore` runs the
functional interpreter (:func:`repro.pipeline.functional.execute_instruction`)
down the wrong target against a copy of the register file and a
copy-on-write view of memory.  Architectural state is never mutated — the
copies absorb every write, and the whole episode is discarded when the
engine restores its checkpoint
(:meth:`~repro.pipeline.engine.PipelineEngine._run_wrong_path`).

Wrong-path control flow follows *predictions*, not data: at a conditional
branch the machine has no outcome yet, so the fetcher asks the engine's
``predict`` callback (the level-1 predictor, with speculative history
update) which way to go.  The stream ends at the first event a frontend
cannot fetch past: a pc outside the program, a HALT, or an architectural
fault (wrong-path addresses are frequently garbage — real hardware squashes
the faulting access rather than trapping).
"""

from __future__ import annotations

from typing import Callable

from repro.pipeline.functional import (
    _DISPATCH,
    DynInst,
    ExecutionError,
)
from repro.isa.program import Program


class WrongPathCore:
    """Speculative fetch source: interprets down the wrong path.

    Implements the same state interface :func:`execute_instruction`
    expects (``registers``, memory accessors, ``halted``).  The register
    file is a private copy of the architectural one; memory is
    copy-on-write: wrong-path stores land in a byte overlay (so younger
    wrong-path loads see them — store forwarding continues down the wrong
    path) and the backing bytearray is never written.  Bounds and
    alignment checks match :class:`~repro.pipeline.functional.FunctionalCore`
    exactly, so a garbage wrong-path address raises the same
    :class:`ExecutionError`.  ``step()`` returns one wrong-path
    :class:`DynInst` at a time, or ``None`` once the wrong path cannot be
    fetched further.
    """

    def __init__(self, program: Program, registers, memory, start_pc: int,
                 predict: Callable[[int], bool]) -> None:
        self.program = program
        self.registers = list(registers)
        self._base = memory
        self._overlay: dict[int, int] = {}
        self.pc = start_pc
        self.predict = predict
        self.halted = False
        self.fetched = 0
        self.faulted = False
        self._decoded = program.decoded().insts

    # -- memory interface for execute_instruction ---------------------------

    def _check_addr(self, addr: int, size: int, *, aligned: int) -> None:
        if addr < 0 or addr + size > len(self._base):
            raise ExecutionError(
                f"pc={self.pc}: memory access out of range: {addr:#x}")
        if aligned > 1 and addr % aligned:
            raise ExecutionError(
                f"pc={self.pc}: unaligned {size}-byte access at {addr:#x}")

    def _byte(self, addr: int) -> int:
        overlay = self._overlay
        return overlay[addr] if addr in overlay else self._base[addr]

    def load_word(self, addr: int) -> int:
        self._check_addr(addr, 4, aligned=4)
        if self._overlay:
            return (self._byte(addr) | self._byte(addr + 1) << 8
                    | self._byte(addr + 2) << 16 | self._byte(addr + 3) << 24)
        return int.from_bytes(self._base[addr:addr + 4], "little")

    def store_word(self, addr: int, value: int) -> None:
        self._check_addr(addr, 4, aligned=4)
        value &= 0xFFFFFFFF
        overlay = self._overlay
        for offset in range(4):
            overlay[addr + offset] = value >> (8 * offset) & 0xFF

    def load_byte(self, addr: int, *, signed: bool) -> int:
        self._check_addr(addr, 1, aligned=1)
        byte = self._byte(addr)
        if signed and byte >= 0x80:
            return byte - 0x100
        return byte

    def store_byte(self, addr: int, value: int) -> None:
        self._check_addr(addr, 1, aligned=1)
        self._overlay[addr] = value & 0xFF

    # -- stepping -----------------------------------------------------------

    def step(self) -> DynInst | None:
        """Fetch and speculatively execute one wrong-path instruction.

        Returns ``None`` when the wrong path ends: pc left the program,
        a HALT was fetched, or the instruction faulted.
        """
        pc = self.pc
        decoded = self._decoded
        if self.halted or not 0 <= pc < len(decoded):
            return None
        d = decoded[pc]
        if d.is_halt:
            # A speculative HALT stalls fetch; it never retires.
            return None
        dyn = DynInst(self.fetched, pc, d.inst)
        if d.is_cond_branch:
            # No outcome exists yet: record the data-determined direction
            # for observability, but *fetch* follows the prediction.
            _DISPATCH[d.op](self, dyn)
            predicted = bool(self.predict(pc))
            dyn.next_pc = d.target if predicted else pc + 1
        else:
            try:
                _DISPATCH[d.op](self, dyn)
            except ExecutionError:
                self.faulted = True
                return None
        self.fetched += 1
        self.pc = dyn.next_pc
        return dyn
