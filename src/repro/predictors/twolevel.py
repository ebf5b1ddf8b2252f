"""Two-level overriding predictor composite (paper Section 5).

In every configuration a fast (1-cycle) 4 KB 2Bc-gskew level-1 predictor
steers fetch immediately.  A larger level-2 predictor delivers its
prediction ``latency`` cycles later:

* **hybrid L2** — a 32 KB 2Bc-gskew; if it disagrees with level 1 its
  prediction is used (fetch restarts from the branch: an override bubble);
* **ARVI L2** — the level-1 prediction stands unless the confidence
  estimator marks the branch difficult *and* the BVIT hits, in which case
  ARVI's prediction is used.

The timing consequences (override bubbles, full mispredict redirects) are
applied by the engine; this module owns the decision and training logic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.arvi import ARVIPrediction, ARVIPredictor, ARVIRequest
from repro.predictors.base import BranchPredictor
from repro.predictors.confidence import ConfidenceEstimator


class LevelTwoKind(enum.Enum):
    NONE = "none"           # single-level (ablation)
    HYBRID = "hybrid"       # 32 KB 2Bc-gskew
    ARVI = "arvi"           # ARVI over the DDT/RSE


@dataclass(slots=True)
class TwoLevelDecision:
    """Outcome of the level-1 + level-2 interplay for one branch."""

    l1_pred: bool
    l2_pred: bool | None
    final_pred: bool
    used_l2: bool            # level-2 prediction was selected
    override: bool           # ...and it differed from level 1 (fetch bubble)
    confident: bool | None   # confidence verdict (ARVI configurations)
    arvi: ARVIPrediction | None


class TwoLevelPredictor:
    """Composite of level-1 gskew + (hybrid | ARVI | nothing) level 2."""

    def __init__(self, level1: BranchPredictor, kind: LevelTwoKind,
                 *, level2_hybrid: BranchPredictor | None = None,
                 arvi: ARVIPredictor | None = None,
                 confidence: ConfidenceEstimator | None = None,
                 latency: int = 0) -> None:
        self.level1 = level1
        self.kind = kind
        self.level2_hybrid = level2_hybrid
        self.arvi = arvi
        self.confidence = confidence
        self.latency = latency
        if kind is LevelTwoKind.HYBRID and level2_hybrid is None:
            raise ValueError("hybrid level 2 requires a level2_hybrid predictor")
        if kind is LevelTwoKind.ARVI and (arvi is None or confidence is None):
            raise ValueError("ARVI level 2 requires arvi and confidence")

    # -- decision ----------------------------------------------------------------

    def decide(self, pc: int,
               arvi_request: ARVIRequest | None = None) -> TwoLevelDecision:
        l1_pred = self.level1.predict(pc)

        if self.kind is LevelTwoKind.NONE:
            return TwoLevelDecision(
                l1_pred=l1_pred, l2_pred=None, final_pred=l1_pred,
                used_l2=False, override=False, confident=None, arvi=None)

        if self.kind is LevelTwoKind.HYBRID:
            l2_pred = self.level2_hybrid.predict(pc)
            used = l2_pred != l1_pred
            return TwoLevelDecision(
                l1_pred=l1_pred, l2_pred=l2_pred,
                final_pred=l2_pred if used else l1_pred,
                used_l2=used, override=used, confident=None, arvi=None)

        # ARVI level 2.
        if arvi_request is None:
            raise ValueError("ARVI decision requires an ARVIRequest")
        confident = self.confidence.is_confident(pc)
        prediction = self.arvi.predict(arvi_request)
        use_arvi = (not confident) and prediction.hit
        final = prediction.taken if use_arvi else l1_pred
        return TwoLevelDecision(
            l1_pred=l1_pred, l2_pred=prediction.taken, final_pred=final,
            used_l2=use_arvi, override=use_arvi and final != l1_pred,
            confident=confident, arvi=prediction)

    # -- speculative history (wrong-path modelling) -------------------------------

    def history_state(self) -> tuple:
        """Checkpoint every component's speculative history."""
        return (
            self.level1.history_state(),
            self.level2_hybrid.history_state()
            if self.level2_hybrid is not None else None,
            self.confidence.history_state()
            if self.confidence is not None else None,
        )

    def restore_history(self, state: tuple) -> None:
        l1_state, l2_state, conf_state = state
        self.level1.restore_history(l1_state)
        if self.level2_hybrid is not None:
            self.level2_hybrid.restore_history(l2_state)
        if self.confidence is not None:
            self.confidence.restore_history(conf_state)

    def speculate(self, pc: int, taken: bool) -> None:
        """Shift a wrong-path branch's predicted outcome into histories.

        Repaired by :meth:`restore_history` at branch resolution — the
        explicit checkpoint repair replacing the §2.6 idealization.
        """
        self.level1.speculate(pc, taken)
        if self.level2_hybrid is not None:
            self.level2_hybrid.speculate(pc, taken)

    # -- training ----------------------------------------------------------------

    def train(self, pc: int, decision: TwoLevelDecision, taken: bool) -> None:
        """Commit-order training of every component."""
        self.level1.update(pc, taken)
        if self.kind is LevelTwoKind.HYBRID:
            self.level2_hybrid.update(pc, taken)
        elif self.kind is LevelTwoKind.ARVI:
            self.confidence.update(pc, decision.l1_pred == taken, taken)
            self.arvi.update(decision.arvi, taken,
                             hard_branch=not decision.confident)
