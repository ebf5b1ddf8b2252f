"""Wrong-path instruction synthesis (DESIGN.md §2.2, ``wrongpath`` mode).

On a mispredicted branch a real machine keeps fetching down the predicted
(wrong) path until the branch resolves; those instructions rename, occupy
the ROB/DDT, touch the caches and are then squashed.  The timing engine is
oracle-driven and only ever sees correct-path instructions, so this module
*synthesizes* the wrong-path stream: :class:`WrongPathCore` steps down
the wrong target through the functional core's opcode handlers
(``repro.pipeline.functional._DISPATCH``) against a copy of the register
file and a copy-on-write view of memory.  Architectural state is never
mutated — the copies absorb every write and are dropped once the episode
is stored; the engine squashes what it renamed when it restores its
checkpoint (:meth:`~repro.pipeline.engine.PipelineEngine._run_wrong_path`).

Wrong-path control flow follows *predictions*, not data: at a conditional
branch the machine has no outcome yet, so the fetcher asks the engine's
``predict`` callback (the level-1 predictor, with speculative history
update) which way to go.  The stream ends at the first event a frontend
cannot fetch past: a pc outside the program, a HALT, or an architectural
fault (wrong-path addresses are frequently garbage — real hardware squashes
the faulting access rather than trapping).

The stream after dynamic branch *j* is the same in every configuration
of a workload, up to its length (the *prefix property*, DESIGN.md §2.2):
the registers and memory at *j* are architectural, the level-1 gskew
that steers it trains in program order in every predictor kind and has
its speculative history restored after each episode, the wrong target of
a mispredicted branch depends only on the branch's outcome, and the
episode's first fetch line is the branch's own.  So
:class:`EpisodeStore` keeps each synthesized episode — its pcs, its
memory touches and whether the stream ended — and every point of the
workload reads the prefix it needs instead of interpreting the stream
again.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Callable

from repro.pipeline.functional import (
    _DISPATCH,
    DynInst,
    ExecutionError,
)
from repro.isa.program import Program


class WrongPathCore:
    """Speculative fetch source: interprets down the wrong path.

    :meth:`step` dispatches through the functional core's ``_DISPATCH``
    table, so this class implements the state interface its handlers
    expect (``registers``, memory accessors, ``halted``).  The register
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

    # -- memory interface for the _DISPATCH handlers ------------------------

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


class EpisodeStore:
    """One workload's wrong-path episodes, keyed by the branch's ``seq``.

    The first engine that mispredicts branch *j* synthesizes the episode
    with a :class:`WrongPathCore`, up to its ``wrongpath_fetch_limit``
    or to the end of the stream (:meth:`fill`); every other engine of
    the workload reads the prefix it needs (:meth:`get`, :meth:`prefix`,
    :meth:`pollute`).  An episode cut at a smaller limit than a reader
    needs is filled again.

    The episodes live in three flat columns, not in objects per
    instruction: the pcs, and in episode order the memory touches — the
    byte address of every new I-fetch line and of every load, each with
    ``position << 1 | is_load``.  An entry is ``(offset of its first pc,
    length, offset of its first touch, end of its touches, ended)``.  A
    store assumes one program and one I-fetch line size (:meth:`bind`).
    """

    def __init__(self) -> None:
        self._episodes: dict[int, tuple[int, int, int, int, bool]] = {}
        self._pcs = array("I")
        self._touch_at = array("I")
        self._touch_addr = array("I")
        self._owner: tuple | None = None

    def __len__(self) -> int:
        return len(self._episodes)

    def bind(self, program: Program, line_bytes: int) -> None:
        """Tie the store to the program and fetch line its episodes assume."""
        if self._owner is None:
            self._owner = (program, line_bytes)
        elif self._owner[0] is not program or self._owner[1] != line_bytes:
            raise ValueError(
                f"an episode store of {self._owner[0].name!r} with "
                f"{self._owner[1]}-byte fetch lines cannot serve "
                f"{program.name!r} with {line_bytes}-byte lines")

    def get(self, seq: int, need: int) -> tuple | None:
        """Branch ``seq``'s episode if it holds ``need`` instructions or
        ended sooner; None if it must be (re)filled."""
        entry = self._episodes.get(seq)
        if entry is None or (entry[1] < need and not entry[4]):
            return None
        return entry

    def fill(self, seq: int, core: WrongPathCore, limit: int,
             first_line: int, line_mask: int) -> tuple:
        """Synthesize branch ``seq``'s episode, up to ``limit`` steps.

        ``first_line`` is the fetch line the episode starts from (the
        branch's own).  The caller restores whatever ``core``'s
        ``predict`` callback changed.
        """
        pcs = self._pcs
        touch_at = self._touch_at
        touch_addr = self._touch_addr
        decoded = core.program.decoded().insts
        start = len(pcs)
        touch_start = len(touch_at)
        last_line = first_line
        ended = False
        position = 0
        while position < limit:
            wp = core.step()
            if wp is None:
                ended = True
                break
            byte_pc = decoded[wp.pc].byte_pc
            line = byte_pc & line_mask
            if line != last_line:
                last_line = line
                touch_at.append(position << 1)
                touch_addr.append(byte_pc)
            if wp.is_load and wp.addr is not None:
                touch_at.append(position << 1 | 1)
                touch_addr.append(wp.addr)
            pcs.append(wp.pc)
            position += 1
        entry = (start, position, touch_start, len(touch_at), ended)
        self._episodes[seq] = entry
        return entry

    def prefix(self, entry: tuple, need: int) -> array:
        """The pcs of the episode's first ``need`` instructions (or all)."""
        start, length = entry[0], entry[1]
        return self._pcs[start:start + (need if need < length else length)]

    def pollute(self, entry: tuple, fetched: int, memory) -> int:
        """Replay the memory touches of the first ``fetched`` instructions,
        in episode order, as wrong-path accesses; returns the loads."""
        touch_start, touch_end = entry[2], entry[3]
        stop = bisect_left(self._touch_at, fetched << 1, touch_start,
                           touch_end)
        fetch_line = memory.instruction_latency
        load = memory.data_latency
        loads = 0
        for at, addr in zip(self._touch_at[touch_start:stop],
                            self._touch_addr[touch_start:stop]):
            if at & 1:
                load(addr, wrong_path=True)
                loads += 1
            else:
                fetch_line(addr, wrong_path=True)
        return loads
