"""Trace-record/replay for the committed instruction stream.

In ``redirect`` mode the functional path is configuration-independent:
every timing point of a (benchmark, scale, seed) sweeps the *same*
committed :class:`~repro.pipeline.functional.DynInst` stream through a
different machine.  Re-interpreting the program per point is pure waste,
so this module records the stream once for the compiled replay kernel
(:mod:`repro.pipeline.kernel`) to replay everywhere:

* :class:`TraceRecorder` runs the functional core once and captures the
  committed stream into a :class:`CommittedTrace` — a compact *columnar*
  form (parallel arrays of decoded PC indices, results, bit-packed branch
  outcomes, load/store effective addresses and store values), not a list
  of per-instruction objects.  A trace never leaves its process: pool
  workers record their own.

Invariants (DESIGN.md §8):

* **Bit-for-bit replay** — a kernel replay's ``SimulationResult`` equals
  the live-core run exactly.  Every committed-stream fact the timing
  model reads is recorded: ``pc``, ``result``, ``taken``, ``next_pc``,
  ``addr``, ``store_value``.  Column *presence* is a pure opcode
  property (``DecodedInst.has_result``, ``is_load``/``is_store``/
  ``is_cond_branch``), so no per-instruction presence flags are stored;
  ``next_pc`` is the following instruction's PC (the stream is the
  committed architectural order), stored explicitly only for the final
  instruction.
* **Operand values are not recorded** — observers that need them must
  drive the live engine.
* **Redirect only** — wrong-path synthesis reads live architectural
  state (registers/memory at the mispredicted branch), which a trace
  does not carry; the kernel refuses ``wrongpath`` configurations.
* A trace is valid for budgets up to its recorded ``max_instructions``;
  replaying past a budget-truncated recording raises
  :class:`TraceError` rather than silently diverging.
"""

from __future__ import annotations

from array import array

from repro.isa.program import Program
from repro.pipeline.functional import DEFAULT_MAX_INSTRUCTIONS, FunctionalCore

#: 4-byte unsigned array typecode ('L' is 8 bytes on LP64 platforms).
_U32 = "I" if array("I").itemsize == 4 else "L"


class TraceError(RuntimeError):
    """A trace is mismatched with its program, or exhausted."""


class CommittedTrace:
    """Columnar recording of one committed instruction stream.

    Parallel columns (see module docstring for the presence rules):

    * ``pcs`` — one entry per committed instruction (decoded PC index);
    * ``results`` — one entry per result-producing instruction;
    * ``taken_bits`` — one bit per conditional branch, LSB-first;
    * ``addrs`` — one entry per load or store (effective address);
    * ``store_values`` — one entry per store.
    """

    __slots__ = (
        "program_name", "static_length", "entry", "length", "pcs",
        "results", "taken_bits", "branch_count", "addrs", "store_values",
        "final_next_pc", "halted", "max_instructions", "_lowered_cache",
    )

    def __init__(self, *, program_name: str, static_length: int, entry: int,
                 pcs: array, results: array, taken_bits: bytes,
                 branch_count: int, addrs: array, store_values: array,
                 final_next_pc: int, halted: bool,
                 max_instructions: int) -> None:
        self.program_name = program_name
        self.static_length = static_length
        self.entry = entry
        self.length = len(pcs)
        self.pcs = pcs
        self.results = results
        self.taken_bits = taken_bits
        self.branch_count = branch_count
        self.addrs = addrs
        self.store_values = store_values
        self.final_next_pc = final_next_pc
        self.halted = halted
        self.max_instructions = max_instructions
        # Lowered form (pipeline.kernel.LoweredTrace), built once per
        # (trace, program) pair and shared by every replay of this trace.
        self._lowered_cache = None

    # -- validation ----------------------------------------------------------

    def validate_for(self, program: Program) -> None:
        """Check this trace was recorded from (an equal build of) ``program``."""
        if (self.program_name != program.name
                or self.static_length != len(program.instructions)
                or self.entry != program.entry):
            raise TraceError(
                f"trace of {self.program_name!r} "
                f"({self.static_length} instructions, entry "
                f"{self.entry}) does not match program {program.name!r} "
                f"({len(program.instructions)} instructions, entry "
                f"{program.entry})")


class TraceRecorder:
    """Runs the functional core once, capturing the committed stream."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.core = FunctionalCore(program)

    def record(self, max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
               ) -> CommittedTrace:
        """Execute to HALT (or the budget) and return the columnar trace."""
        core = self.core
        if core.instruction_count:
            raise TraceError("TraceRecorder instances are single-use")
        pcs = array(_U32)
        results = array(_U32)
        addrs = array(_U32)
        store_values = array(_U32)
        taken_bits = bytearray()
        branch_count = 0
        final_next_pc = self.program.entry
        pcs_append = pcs.append
        results_append = results.append
        addrs_append = addrs.append
        for dyn in core.run(max_instructions):
            pcs_append(dyn.pc)
            result = dyn.result
            if result is not None:
                results_append(result)
            taken = dyn.taken
            if taken is not None:
                if branch_count & 7 == 0:
                    taken_bits.append(0)
                if taken:
                    taken_bits[branch_count >> 3] |= 1 << (branch_count & 7)
                branch_count += 1
            addr = dyn.addr
            if addr is not None:
                addrs_append(addr)
                value = dyn.store_value
                if value is not None:
                    store_values.append(value)
            final_next_pc = dyn.next_pc
        return CommittedTrace(
            program_name=self.program.name,
            static_length=len(self.program.instructions),
            entry=self.program.entry,
            pcs=pcs, results=results, taken_bits=bytes(taken_bits),
            branch_count=branch_count, addrs=addrs,
            store_values=store_values, final_next_pc=final_next_pc,
            halted=core.halted, max_instructions=max_instructions,
        )


def record_trace(program: Program,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                 ) -> CommittedTrace:
    """One-call convenience: record ``program``'s committed stream."""
    return TraceRecorder(program).record(max_instructions)
