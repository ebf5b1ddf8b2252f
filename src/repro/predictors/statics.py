"""Static baseline predictors (sanity anchors for tests and ablations)."""

from __future__ import annotations

from repro.predictors.base import BranchPredictor


class AlwaysTaken(BranchPredictor):
    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        pass


class AlwaysNotTaken(BranchPredictor):
    def predict(self, pc: int) -> bool:
        return False

    def update(self, pc: int, taken: bool) -> None:
        pass


class BackwardTaken(BranchPredictor):
    """BTFN heuristic: backward branches (targets below PC) predict taken.

    Needs the branch target, so it keeps a small learned table of branch
    directions observed at decode: the engine supplies ``set_target``.
    """

    def __init__(self) -> None:
        self._backward: dict[int, bool] = {}

    def set_target(self, pc: int, target: int) -> None:
        self._backward[pc] = target <= pc

    def predict(self, pc: int) -> bool:
        return self._backward.get(pc, False)

    def update(self, pc: int, taken: bool) -> None:
        pass
