"""2Bc-gskew hybrid predictor (Seznec et al., the Alpha EV8 design [26]).

Four banks of 2-bit counters:

* **BIM** — bimodal, indexed by PC;
* **G0 / G1** — gskew banks indexed by *different* hashes of (PC, global
  history), G1 with a longer history than G0;
* **META** — chooses between the bimodal prediction and the e-gskew
  majority vote of (BIM, G0, G1).

The partial update rule follows the EV8 paper: on a correct prediction
only the banks that contributed are strengthened; on a misprediction all
three direction banks train toward the outcome.  META trains only when
the bimodal and e-gskew predictions disagree.

The paper instantiates this twice: a 4 KB level-1 (1 KB per bank, single
cycle) and a 32 KB level-2 (8 KB per bank, multi-cycle).
"""

from __future__ import annotations

from repro.predictors.base import (
    BranchPredictor,
    GlobalHistory,
    SaturatingCounterTable,
)

_HISTORY_REG_BITS = 32


def _rotate(value: int, amount: int, bits: int) -> int:
    amount %= bits
    mask = (1 << bits) - 1
    return ((value << amount) | (value >> (bits - amount))) & mask


class TwoBcGskew(BranchPredictor):
    """The 2Bc-gskew hybrid; ``bank_entries`` counters per bank."""

    def __init__(self, bank_entries: int = 4096,
                 g0_history: int | None = None,
                 g1_history: int | None = None) -> None:
        index_bits = bank_entries.bit_length() - 1
        if 1 << index_bits != bank_entries:
            raise ValueError("bank_entries must be a power of two")
        self.index_bits = index_bits
        self.bank_entries = bank_entries
        self.bim = SaturatingCounterTable(bank_entries, 2)
        self.g0 = SaturatingCounterTable(bank_entries, 2)
        self.g1 = SaturatingCounterTable(bank_entries, 2)
        self.meta = SaturatingCounterTable(bank_entries, 2)
        self.g0_history = g0_history if g0_history is not None else max(
            1, index_bits - 4)
        self.g1_history = g1_history if g1_history is not None else min(
            _HISTORY_REG_BITS, index_bits + 4)
        self.history = GlobalHistory(_HISTORY_REG_BITS)
        # Precomputed index-hash constants (the hot path computes these
        # four indices twice per branch: once to predict, once to train).
        self._index_mask = (1 << index_bits) - 1
        self._g0_hist_mask = (1 << self.g0_history) - 1
        self._g1_hist_mask = (1 << self.g1_history) - 1
        # Memoized indices for the predict->train pair: the engine trains
        # each branch with the same (pc, history) it predicted with, so
        # the second computation is a pure replay.
        self._indices_key: tuple[int, int] | None = None
        self._indices_value: tuple[int, int, int, int] = (0, 0, 0, 0)

    # -- indexing -------------------------------------------------------------

    def _skew_index(self, pc: int, hist_mask: int, variant: int) -> int:
        """Per-bank skewing hash over (PC, history & hist_mask)."""
        bits = self.index_bits
        mask = self._index_mask
        folded = self.history.value & hist_mask
        while folded >> bits:
            folded = (folded & mask) ^ (folded >> bits)
        skew = _rotate(folded, variant * 3 + 1, bits)
        return (pc ^ skew ^ (pc >> (bits - variant))) & mask

    def _indices(self, pc: int) -> tuple[int, int, int, int]:
        hist = self.history.value
        key = (pc, hist)
        if key == self._indices_key:
            return self._indices_value
        mask = self._index_mask
        value = (
            pc & mask,
            self._skew_index(pc, self._g0_hist_mask, 1),
            self._skew_index(pc, self._g1_hist_mask, 2),
            (pc ^ ((hist & self._g0_hist_mask) << 1)) & mask,
        )
        self._indices_key = key
        self._indices_value = value
        return value

    # -- prediction -------------------------------------------------------------

    def component_predictions(self, pc: int) -> tuple[bool, bool, bool, bool]:
        """(bimodal, e-gskew majority, meta-prefers-eskew, final)."""
        bim_idx, g0_idx, g1_idx, meta_idx = self._indices(pc)
        bim = self.bim.is_high(bim_idx)
        g0 = self.g0.is_high(g0_idx)
        g1 = self.g1.is_high(g1_idx)
        eskew = (bim + g0 + g1) >= 2
        use_eskew = self.meta.is_high(meta_idx)
        final = eskew if use_eskew else bim
        return bim, eskew, use_eskew, final

    def predict(self, pc: int) -> bool:
        return self.component_predictions(pc)[3]

    # -- update --------------------------------------------------------------------

    def update(self, pc: int, taken: bool) -> None:
        bim_idx, g0_idx, g1_idx, meta_idx = self._indices(pc)
        bim = self.bim.is_high(bim_idx)
        g0 = self.g0.is_high(g0_idx)
        g1 = self.g1.is_high(g1_idx)
        eskew = (bim + g0 + g1) >= 2
        use_eskew = self.meta.is_high(meta_idx)
        final = eskew if use_eskew else bim

        if bim != eskew:
            # META trains toward whichever component was right.
            self.meta.nudge(meta_idx, eskew == taken)

        if final == taken:
            if use_eskew:
                # Partial update: strengthen only agreeing banks.
                if bim == taken:
                    self.bim.nudge(bim_idx, taken)
                if g0 == taken:
                    self.g0.nudge(g0_idx, taken)
                if g1 == taken:
                    self.g1.nudge(g1_idx, taken)
            else:
                self.bim.nudge(bim_idx, taken)
        else:
            # Misprediction: retrain all direction banks.
            self.bim.nudge(bim_idx, taken)
            self.g0.nudge(g0_idx, taken)
            self.g1.nudge(g1_idx, taken)

        self.history.push(taken)

    # -- speculative history (wrong-path modelling) ---------------------------

    def history_state(self) -> int:
        return self.history.value

    def restore_history(self, state: int) -> None:
        self.history.value = state

    def speculate(self, pc: int, taken: bool) -> None:
        self.history.push(taken)

    @property
    def storage_bits(self) -> int:
        return (self.bim.storage_bits + self.g0.storage_bits
                + self.g1.storage_bits + self.meta.storage_bits
                + self.history.bits)


def level1_gskew() -> TwoBcGskew:
    """The paper's 4 KB level-1 predictor (1 KB = 4096 counters per bank)."""
    return TwoBcGskew(bank_entries=4096)


def level2_gskew() -> TwoBcGskew:
    """The paper's 32 KB level-2 hybrid (8 KB = 32768 counters per bank)."""
    return TwoBcGskew(bank_entries=32768)
