"""Bimodal predictor: per-PC 2-bit saturating counters."""

from __future__ import annotations

from repro.predictors.base import BranchPredictor, SaturatingCounterTable


class BimodalPredictor(BranchPredictor):
    """Classic Smith predictor; also the BIM bank inside 2Bc-gskew."""

    def __init__(self, entries: int = 4096, counter_bits: int = 2) -> None:
        self.table = SaturatingCounterTable(entries, counter_bits)

    def predict(self, pc: int) -> bool:
        return self.table.is_high(pc)

    def update(self, pc: int, taken: bool) -> None:
        self.table.nudge(pc, taken)

    @property
    def storage_bits(self) -> int:
        return self.table.storage_bits
