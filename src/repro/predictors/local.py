"""Two-level local-history predictor (Yeh & Patt [36], PAg-style).

A per-branch history table records each branch's own recent outcomes; the
pattern indexes a shared table of 2-bit counters.  Local history captures
per-branch periodic patterns (short loops) that global history dilutes —
one of the classic alternatives the paper's related-work section cites.
"""

from __future__ import annotations

from repro.predictors.base import BranchPredictor, SaturatingCounterTable


class LocalHistoryPredictor(BranchPredictor):
    def __init__(self, history_entries: int = 1024,
                 history_bits: int = 10,
                 pattern_entries: int | None = None) -> None:
        if history_bits < 1:
            raise ValueError("history_bits must be positive")
        self.history_entries = history_entries
        self.history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._histories = [0] * history_entries
        self.patterns = SaturatingCounterTable(
            pattern_entries or (1 << history_bits), 2)

    def _history_of(self, pc: int) -> int:
        return self._histories[pc % self.history_entries]

    def predict(self, pc: int) -> bool:
        return self.patterns.is_high(self._history_of(pc))

    def update(self, pc: int, taken: bool) -> None:
        slot = pc % self.history_entries
        pattern = self._histories[slot]
        self.patterns.nudge(pattern, taken)
        self._histories[slot] = ((pattern << 1) | int(taken)) \
            & self._history_mask

    def history_state(self) -> tuple[int, ...]:
        return tuple(self._histories)

    def restore_history(self, state) -> None:
        self._histories = list(state)

    def speculate(self, pc: int, taken: bool) -> None:
        slot = pc % self.history_entries
        self._histories[slot] = ((self._histories[slot] << 1) | int(taken)) \
            & self._history_mask

    @property
    def storage_bits(self) -> int:
        return (self.history_entries * self.history_bits
                + self.patterns.storage_bits)
