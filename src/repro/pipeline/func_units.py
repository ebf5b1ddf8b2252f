"""Functional unit pools for the cycle-accounting issue model.

Each pool holds ``count`` servers as a min-heap of next-free cycles.  An
instruction requesting issue at ``earliest`` receives the first cycle at
which both it and a server are ready.  ``occupancy`` is how long a server
stays busy per operation: 1 for pipelined units (a new op can start every
cycle), equal to the full latency for unpipelined units (the divider).
"""

from __future__ import annotations

import heapq

from repro.pipeline.config import MachineConfig


class FunctionalUnitPool:
    """A pool of identical servers with a shared dispatch heap."""

    def __init__(self, name: str, count: int) -> None:
        if count < 1:
            raise ValueError(f"{name}: need at least one unit")
        self.name = name
        self.count = count
        self._free_at = [0] * count
        heapq.heapify(self._free_at)
        self.operations = 0
        self.busy_cycles = 0

    def issue(self, earliest: int, occupancy: int = 1) -> int:
        """Claim a server; returns the actual start cycle (>= earliest)."""
        server_free = heapq.heappop(self._free_at)
        start = earliest if earliest >= server_free else server_free
        heapq.heappush(self._free_at, start + occupancy)
        self.operations += 1
        self.busy_cycles += occupancy
        return start


class FunctionalUnits:
    """The paper's Table 2 execution resources."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.int_alu = FunctionalUnitPool("int-alu", config.int_alus)
        self.int_muldiv = FunctionalUnitPool("int-muldiv", config.int_muldiv)
        self.fp_alu = FunctionalUnitPool("fp-alu", config.fp_alus)
        self.fp_muldiv = FunctionalUnitPool("fp-muldiv", config.fp_muldiv)
        self.dcache_port = FunctionalUnitPool("dcache-port", config.dcache_ports)
