"""Gshare predictor: PC XOR global history into 2-bit counters."""

from __future__ import annotations

from repro.predictors.base import (
    BranchPredictor,
    GlobalHistory,
    SaturatingCounterTable,
)


class GsharePredictor(BranchPredictor):
    def __init__(self, entries: int = 4096,
                 history_bits: int | None = None) -> None:
        index_bits = entries.bit_length() - 1
        if 1 << index_bits != entries:
            raise ValueError("entries must be a power of two")
        self.index_bits = index_bits
        self.table = SaturatingCounterTable(entries, 2)
        self.history = GlobalHistory(history_bits or index_bits)

    def _index(self, pc: int) -> int:
        return (pc ^ self.history.low(self.index_bits)) % self.table.entries

    def predict(self, pc: int) -> bool:
        return self.table.is_high(self._index(pc))

    def update(self, pc: int, taken: bool) -> None:
        self.table.nudge(self._index(pc), taken)
        self.history.push(taken)

    def history_state(self) -> int:
        return self.history.value

    def restore_history(self, state: int) -> None:
        self.history.value = state

    def speculate(self, pc: int, taken: bool) -> None:
        self.history.push(taken)

    @property
    def storage_bits(self) -> int:
        return self.table.storage_bits + self.history.bits
