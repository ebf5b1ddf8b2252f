"""Two-level overriding composite tests."""

import pytest

from repro.core.arvi import (
    ARVIConfig,
    ARVIPredictor,
    ARVIRequest,
    RegisterView,
)
from repro.predictors.confidence import ConfidenceEstimator
from repro.predictors.gskew import TwoBcGskew
from repro.predictors.statics import AlwaysNotTaken, AlwaysTaken
from repro.predictors.twolevel import LevelTwoKind, TwoLevelPredictor
from repro.predictors.ras import ReturnAddressStack


def arvi_request(value=3):
    return ARVIRequest(
        pc=10,
        regset=[RegisterView(preg=1, logical=1, available=True, value=value)],
        branch_token=20, oldest_chain_token=18)


class TestConstruction:
    def test_hybrid_requires_level2(self):
        with pytest.raises(ValueError):
            TwoLevelPredictor(AlwaysTaken(), LevelTwoKind.HYBRID)

    def test_arvi_requires_components(self):
        with pytest.raises(ValueError):
            TwoLevelPredictor(AlwaysTaken(), LevelTwoKind.ARVI)


class TestNoneKind:
    def test_level1_passthrough(self):
        composite = TwoLevelPredictor(AlwaysTaken(), LevelTwoKind.NONE)
        decision = composite.decide(5)
        assert decision.final_pred is True
        assert not decision.used_l2
        assert not decision.override


class TestHybridKind:
    def test_l2_overrides_on_disagreement(self):
        composite = TwoLevelPredictor(
            AlwaysTaken(), LevelTwoKind.HYBRID,
            level2_hybrid=AlwaysNotTaken(), latency=2)
        decision = composite.decide(5)
        assert decision.l1_pred is True
        assert decision.l2_pred is False
        assert decision.final_pred is False
        assert decision.override

    def test_no_override_on_agreement(self):
        composite = TwoLevelPredictor(
            AlwaysTaken(), LevelTwoKind.HYBRID,
            level2_hybrid=AlwaysTaken())
        decision = composite.decide(5)
        assert not decision.override

    def test_training_updates_both_levels(self):
        l1 = TwoBcGskew(64)
        l2 = TwoBcGskew(256)
        composite = TwoLevelPredictor(l1, LevelTwoKind.HYBRID,
                                      level2_hybrid=l2)
        for _ in range(6):
            decision = composite.decide(5)
            composite.train(5, decision, taken=False)
        assert l1.predict(5) is False
        assert l2.predict(5) is False


class TestArviKind:
    def build(self, threshold=2):
        return TwoLevelPredictor(
            AlwaysTaken(), LevelTwoKind.ARVI,
            arvi=ARVIPredictor(ARVIConfig(allocate_only_hard=False)),
            confidence=ConfidenceEstimator(entries=1, history_bits=1,
                                           threshold=threshold),
            latency=6)

    def test_requires_request(self):
        composite = self.build()
        with pytest.raises(ValueError):
            composite.decide(5)

    def test_arvi_used_when_unconfident_and_hit(self):
        composite = self.build()
        # Train the ARVI entry (value=3 -> not taken).
        for _ in range(3):
            decision = composite.decide(10, arvi_request())
            composite.train(10, decision, taken=False)
        decision = composite.decide(10, arvi_request())
        assert decision.l2_pred is False
        assert decision.used_l2
        assert decision.final_pred is False
        assert decision.override        # L1 says taken

    def test_arvi_not_used_when_confident(self):
        composite = self.build(threshold=2)
        # L1 (always-taken) is correct repeatedly -> confidence builds;
        # ARVI entry also trains toward taken.
        for _ in range(5):
            decision = composite.decide(10, arvi_request())
            composite.train(10, decision, taken=True)
        decision = composite.decide(10, arvi_request())
        assert decision.confident
        assert not decision.used_l2

    def test_bvit_miss_falls_back_to_l1(self):
        composite = self.build()
        decision = composite.decide(10, arvi_request())
        assert decision.arvi is not None and not decision.arvi.hit
        assert decision.final_pred is True  # L1


class TestReturnAddressStack:
    def test_push_pop_matching(self):
        ras = ReturnAddressStack(4)
        ras.push(100)
        ras.push(200)
        assert ras.pop(200)
        assert ras.pop(100)
        assert ras.accuracy == 1.0

    def test_underflow_counts_as_wrong(self):
        ras = ReturnAddressStack(4)
        assert not ras.pop(5)
        assert ras.underflows == 1

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(2)
        ras.push(1)
        ras.push(2)
        ras.push(3)       # evicts 1
        assert ras.overflows == 1
        assert ras.pop(3)
        assert ras.pop(2)
        assert not ras.pop(1)

    def test_depth_validated(self):
        with pytest.raises(ValueError):
            ReturnAddressStack(0)
