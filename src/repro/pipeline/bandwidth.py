"""Per-cycle bandwidth limiter for monotone pipeline stages.

Fetch and commit consume their slots in program order, so requests arrive
with nondecreasing earliest-cycles and a simple (cycle, used) cursor
suffices — no per-cycle table is needed.
"""

from __future__ import annotations


class BandwidthLimiter:
    """Allocates up to ``width`` slots per cycle to monotone requests."""

    def __init__(self, width: int) -> None:
        if width < 1:
            raise ValueError("width must be positive")
        self.width = width
        self._cycle = 0
        self._used = 0

    def schedule(self, earliest: int) -> int:
        """Return the first cycle >= earliest with a free slot, claiming it.

        Raises if ``earliest`` moves backwards past an already-full cycle,
        which would indicate a non-monotone caller.
        """
        if earliest > self._cycle:
            self._cycle = earliest
            self._used = 0
        elif earliest < self._cycle:
            # An older cycle was requested: slots there are gone; serve from
            # the current cursor instead (in-order stages can only wait).
            pass
        if self._used >= self.width:
            self._cycle += 1
            self._used = 0
        self._used += 1
        return self._cycle
