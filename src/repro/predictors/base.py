"""Branch predictor interfaces and shared building blocks."""

from __future__ import annotations

from abc import ABC, abstractmethod


class BranchPredictor(ABC):
    """Direction predictor for conditional branches.

    The timing engine calls :meth:`predict` at fetch and :meth:`update`
    with the resolved outcome in commit order.  History-based predictors
    maintain their global history inside :meth:`update`; in the engine's
    ``redirect`` speculation mode only correct-path instructions are
    materialized, which corresponds to speculative history with perfect
    repair (DESIGN.md §2.6).  In ``wrongpath`` mode the repair is explicit
    checkpoint hardware: the engine snapshots history via
    :meth:`history_state` at a mispredicted branch, lets wrong-path
    branches corrupt it through :meth:`speculate`, and restores it with
    :meth:`restore_history` when the branch resolves.
    """

    @abstractmethod
    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""

    @abstractmethod
    def update(self, pc: int, taken: bool) -> None:
        """Train with the resolved outcome."""

    # -- speculative history (wrong-path modelling) ---------------------------

    def history_state(self):
        """Opaque checkpoint of speculative history (None if stateless)."""
        return None

    def restore_history(self, state) -> None:
        """Restore a :meth:`history_state` checkpoint; default no-op."""

    def speculate(self, pc: int, taken: bool) -> None:
        """Speculatively shift a *predicted* outcome into the history.

        Called for wrong-path branches only; counters never train here
        (they train at commit, which wrong-path instructions never
        reach).  Default no-op for history-less predictors.
        """

    @property
    def storage_bits(self) -> int:
        """Hardware budget; subclasses override."""
        return 0


class SaturatingCounterTable:
    """A table of n-bit saturating up/down counters."""

    def __init__(self, entries: int, bits: int = 2,
                 initial: int | None = None) -> None:
        if entries < 1 or bits < 1:
            raise ValueError("entries and bits must be positive")
        self.entries = entries
        self.bits = bits
        self.maximum = (1 << bits) - 1
        self._half = (self.maximum + 1) // 2
        start = initial if initial is not None else 1 << (bits - 1)
        self._counters = [start] * entries

    def __getitem__(self, index: int) -> int:
        return self._counters[index % self.entries]

    def is_high(self, index: int) -> bool:
        """Counter in the upper half (predict taken)."""
        return self._counters[index % self.entries] >= self._half

    def nudge(self, index: int, up: bool) -> None:
        slot = index % self.entries
        value = self._counters[slot]
        if up:
            if value < self.maximum:
                self._counters[slot] = value + 1
        elif value > 0:
            self._counters[slot] = value - 1

    def reset(self, index: int, value: int = 0) -> None:
        self._counters[index % self.entries] = value

    @property
    def storage_bits(self) -> int:
        return self.entries * self.bits


class GlobalHistory:
    """Global branch-outcome shift register."""

    def __init__(self, bits: int) -> None:
        if bits < 1:
            raise ValueError("history bits must be positive")
        self.bits = bits
        self._mask = (1 << bits) - 1
        self.value = 0

    def push(self, taken: bool) -> None:
        self.value = ((self.value << 1) | int(taken)) & self._mask

    def low(self, bits: int) -> int:
        return self.value & ((1 << bits) - 1)
