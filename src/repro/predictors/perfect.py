"""Oracle predictor: always right.  Upper-bounds IPC in ablations."""

from __future__ import annotations

from repro.predictors.base import BranchPredictor


class PerfectPredictor(BranchPredictor):
    """The engine feeds the actual outcome through ``set_outcome``."""

    def __init__(self) -> None:
        self._next_outcome = False

    def set_outcome(self, taken: bool) -> None:
        self._next_outcome = taken

    def predict(self, pc: int) -> bool:
        return self._next_outcome

    def update(self, pc: int, taken: bool) -> None:
        pass
