"""Branch predictors: baselines, the 2Bc-gskew hybrid, and composites."""

from repro.predictors.base import (
    BranchPredictor,
    GlobalHistory,
    SaturatingCounterTable,
)
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.bimode import BiModePredictor
from repro.predictors.confidence import ConfidenceEstimator
from repro.predictors.gshare import GsharePredictor
from repro.predictors.local import LocalHistoryPredictor
from repro.predictors.gskew import TwoBcGskew, level1_gskew, level2_gskew
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.statics import AlwaysNotTaken, AlwaysTaken, BackwardTaken
from repro.predictors.twolevel import (
    LevelTwoKind,
    TwoLevelDecision,
    TwoLevelPredictor,
)

__all__ = [
    "AlwaysNotTaken",
    "AlwaysTaken",
    "BackwardTaken",
    "BiModePredictor",
    "BimodalPredictor",
    "BranchPredictor",
    "ConfidenceEstimator",
    "GlobalHistory",
    "GsharePredictor",
    "LevelTwoKind",
    "LocalHistoryPredictor",
    "ReturnAddressStack",
    "SaturatingCounterTable",
    "TwoBcGskew",
    "TwoLevelDecision",
    "TwoLevelPredictor",
    "level1_gskew",
    "level2_gskew",
]
