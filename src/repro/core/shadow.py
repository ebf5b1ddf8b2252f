"""Shadow structures feeding the ARVI hash units (paper Sections 4.3-4.4).

To avoid extra register-file ports, ARVI keeps:

* a **shadow register file** holding only the low 11 bits of each physical
  register's *committed* value (updates trail the real file by a cycle —
  we model that by writing at commit);
* a **shadow map table** holding the low 3 bits of the *logical* register
  id mapped to each physical register, written at rename; logical ids are
  used for the path tag because physical assignments vary run to run.
"""

from __future__ import annotations


class ShadowRegisterFile:
    """Low-order committed value bits per physical register."""

    def __init__(self, num_phys_regs: int, value_bits: int = 11) -> None:
        if value_bits < 1:
            raise ValueError("value_bits must be positive")
        self.num_phys_regs = num_phys_regs
        self.value_bits = value_bits
        self._mask = (1 << value_bits) - 1
        self._values = [0] * num_phys_regs

    def write(self, preg: int, value: int) -> None:
        """Record the committed value of ``preg`` (low bits only)."""
        self._values[preg] = value & self._mask

    def read(self, preg: int) -> int:
        return self._values[preg]

    @property
    def storage_bits(self) -> int:
        """Paper sizing: 72 pregs x 11 bits = 792 bits on a 21264."""
        return self.num_phys_regs * self.value_bits


class ShadowMapTable:
    """Low-order logical register id per physical register."""

    def __init__(self, num_phys_regs: int, id_bits: int = 3) -> None:
        if id_bits < 1:
            raise ValueError("id_bits must be positive")
        self.num_phys_regs = num_phys_regs
        self.id_bits = id_bits
        self._mask = (1 << id_bits) - 1
        self._ids = [0] * num_phys_regs

    def record(self, preg: int, logical: int) -> None:
        """Record the mapping at rename time."""
        self._ids[preg] = logical & self._mask

    def logical_id(self, preg: int) -> int:
        return self._ids[preg]

    def snapshot(self) -> list[int]:
        """Checkpoint of every mapping (branch-recovery support)."""
        return list(self._ids)

    def restore(self, snapshot: list[int]) -> None:
        if len(snapshot) != self.num_phys_regs:
            raise ValueError("shadow map snapshot size mismatch")
        self._ids = list(snapshot)

    @property
    def storage_bits(self) -> int:
        """Paper sizing: 32 logical regs -> 96 bits of 3-bit ids per 32."""
        return self.num_phys_regs * self.id_bits
