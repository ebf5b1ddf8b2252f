"""Bi-Mode predictor (Lee, Chen & Mudge [21]).

Destructive aliasing in a shared counter table mixes branches of opposite
bias.  Bi-Mode splits the pattern table into a taken-leaning and a
not-taken-leaning half, both indexed by PC XOR global history; a bimodal
*choice* table indexed by PC alone selects which direction table to
believe.  Only the selected direction table is updated (plus the choice
table, except when it disagreed but the outcome matched the selection) —
the partial update rule from the paper.
"""

from __future__ import annotations

from repro.predictors.base import (
    BranchPredictor,
    GlobalHistory,
    SaturatingCounterTable,
)


class BiModePredictor(BranchPredictor):
    def __init__(self, direction_entries: int = 4096,
                 choice_entries: int = 4096,
                 history_bits: int | None = None) -> None:
        index_bits = direction_entries.bit_length() - 1
        if 1 << index_bits != direction_entries:
            raise ValueError("direction_entries must be a power of two")
        self.index_bits = index_bits
        self.taken_table = SaturatingCounterTable(direction_entries, 2,
                                                  initial=2)
        self.not_taken_table = SaturatingCounterTable(direction_entries, 2,
                                                      initial=1)
        self.choice = SaturatingCounterTable(choice_entries, 2)
        self.history = GlobalHistory(history_bits or index_bits)

    def _direction_index(self, pc: int) -> int:
        return (pc ^ self.history.low(self.index_bits)) \
            % self.taken_table.entries

    def _components(self, pc: int) -> tuple[bool, int, bool]:
        """(choice-says-taken-table, direction index, prediction)."""
        use_taken_table = self.choice.is_high(pc)
        index = self._direction_index(pc)
        table = self.taken_table if use_taken_table else self.not_taken_table
        return use_taken_table, index, table.is_high(index)

    def predict(self, pc: int) -> bool:
        return self._components(pc)[2]

    def update(self, pc: int, taken: bool) -> None:
        use_taken_table, index, prediction = self._components(pc)
        # Partial update: the unselected direction table is never touched.
        table = self.taken_table if use_taken_table else self.not_taken_table
        table.nudge(index, taken)
        # Choice table: update toward the outcome unless it disagreed with
        # the outcome while the selected table still predicted correctly.
        if not (prediction == taken and use_taken_table != taken):
            self.choice.nudge(pc, taken)
        self.history.push(taken)

    def history_state(self) -> int:
        return self.history.value

    def restore_history(self, state: int) -> None:
        self.history.value = state

    def speculate(self, pc: int, taken: bool) -> None:
        self.history.push(taken)

    @property
    def storage_bits(self) -> int:
        return (self.taken_table.storage_bits
                + self.not_taken_table.storage_bits
                + self.choice.storage_bits + self.history.bits)
