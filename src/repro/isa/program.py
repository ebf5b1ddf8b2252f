"""Program container: assembled instructions plus an initialized data image.

Memory layout (byte addresses):

* text: instructions are indexed by PC (one per word, byte address pc*4);
* data: words placed by the builder starting at ``DATA_BASE``;
* stack: ``$sp`` is initialized to ``STACK_TOP`` and grows down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import Instruction, disassemble

DATA_BASE = 0x0001_0000
STACK_TOP = 0x000F_FF00
DEFAULT_MEMORY_BYTES = 0x0010_0000  # 1 MiB


@dataclass
class Program:
    """An assembled program ready for functional execution."""

    instructions: list[Instruction]
    labels: dict[str, int] = field(default_factory=dict)
    data_words: dict[int, int] = field(default_factory=dict)
    data_labels: dict[str, int] = field(default_factory=dict)
    entry: int = 0
    memory_bytes: int = DEFAULT_MEMORY_BYTES
    name: str = "program"
    # Lazily built derived views (excluded from eq/repr): the pre-decoded
    # instruction table and the pristine initial-memory image template.
    _decoded: object = field(default=None, init=False, repr=False,
                             compare=False)
    _memory_image: bytes | None = field(default=None, init=False,
                                        repr=False, compare=False)

    def __post_init__(self) -> None:
        for addr in self.data_words:
            if addr % 4 != 0:
                raise ValueError(f"unaligned data word at {addr:#x}")
            if not 0 <= addr < self.memory_bytes:
                raise ValueError(f"data word outside memory at {addr:#x}")
        for inst in self.instructions:
            if inst.is_control and isinstance(inst.target, str):
                raise ValueError(
                    f"unresolved label {inst.target!r} in {disassemble(inst)}"
                )

    def __len__(self) -> int:
        return len(self.instructions)

    def decoded(self):
        """The flat pre-decoded per-PC table (built once, then cached)."""
        if self._decoded is None:
            from repro.isa.decoded import DecodedProgram
            self._decoded = DecodedProgram(self.instructions)
        return self._decoded

    def initial_memory(self) -> bytearray:
        """Build the initial memory image (little-endian words).

        The pristine image is rendered once and copied per call — every
        simulation point on a shared program gets a fresh image without
        re-walking the data-word dict.
        """
        if self._memory_image is None:
            mem = bytearray(self.memory_bytes)
            for addr, word in self.data_words.items():
                mem[addr:addr + 4] = (word & 0xFFFFFFFF).to_bytes(4, "little")
            self._memory_image = bytes(mem)
        return bytearray(self._memory_image)

    def listing(self) -> str:
        """Human-readable disassembly listing with labels."""
        by_pc: dict[int, list[str]] = {}
        for label, pc in self.labels.items():
            by_pc.setdefault(pc, []).append(label)
        lines = []
        for pc, inst in enumerate(self.instructions):
            for label in by_pc.get(pc, ()):
                lines.append(f"{label}:")
            lines.append(f"  {pc:5d}: {disassemble(inst)}")
        return "\n".join(lines)
