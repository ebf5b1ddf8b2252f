"""Tests for bimodal, gshare and static predictors."""

import pytest

from repro.predictors.base import (
    GlobalHistory,
    SaturatingCounterTable,
)
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.statics import AlwaysNotTaken, AlwaysTaken, BackwardTaken


class TestSaturatingCounterTable:
    def test_initializes_weakly(self):
        table = SaturatingCounterTable(4, 2)
        assert table[0] == 2  # weakly taken

    def test_nudge_saturates(self):
        table = SaturatingCounterTable(4, 2)
        for _ in range(10):
            table.nudge(0, up=True)
        assert table[0] == 3
        for _ in range(10):
            table.nudge(0, up=False)
        assert table[0] == 0

    def test_is_high_threshold(self):
        table = SaturatingCounterTable(4, 2, initial=1)
        assert not table.is_high(0)
        table.nudge(0, up=True)
        assert table.is_high(0)

    def test_index_wraps(self):
        table = SaturatingCounterTable(4, 2)
        table.nudge(5, up=True)
        assert table[1] == 3 - 0  # same slot as index 5

    def test_reset(self):
        table = SaturatingCounterTable(4, 4)
        table.reset(2, 0)
        assert table[2] == 0

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            SaturatingCounterTable(0, 2)


class TestGlobalHistory:
    def test_shifts_in_outcomes(self):
        history = GlobalHistory(4)
        for taken in (True, False, True, True):
            history.push(taken)
        assert history.value == 0b1011

    def test_bounded_width(self):
        history = GlobalHistory(3)
        for _ in range(10):
            history.push(True)
        assert history.value == 0b111

    def test_low_bits(self):
        history = GlobalHistory(8)
        for taken in (True, True, False):
            history.push(taken)
        assert history.low(2) == 0b10


class TestBimodal:
    def test_learns_bias(self):
        predictor = BimodalPredictor(64)
        for _ in range(4):
            predictor.update(10, True)
        assert predictor.predict(10) is True
        for _ in range(4):
            predictor.update(10, False)
        assert predictor.predict(10) is False

    def test_hysteresis(self):
        predictor = BimodalPredictor(64)
        for _ in range(4):
            predictor.update(10, True)
        predictor.update(10, False)      # one blip
        assert predictor.predict(10) is True

    def test_cannot_learn_alternation(self):
        """The classic bimodal failure mode: T/N alternation."""
        predictor = BimodalPredictor(64)
        correct = 0
        outcome = True
        for _ in range(100):
            if predictor.predict(10) == outcome:
                correct += 1
            predictor.update(10, outcome)
            outcome = not outcome
        assert correct <= 60

    def test_storage(self):
        assert BimodalPredictor(4096).storage_bits == 8192


class TestGshare:
    def test_learns_alternation_via_history(self):
        predictor = GsharePredictor(256)
        outcome = True
        correct = 0
        for i in range(200):
            if predictor.predict(10) == outcome:
                correct += 1
            predictor.update(10, outcome)
            outcome = not outcome
        # After warm-up, history disambiguates the two contexts.
        assert correct > 150

    def test_learns_short_loop_pattern(self):
        """Period-4 loop: 3 taken, 1 not-taken."""
        predictor = GsharePredictor(1024)
        pattern = [True, True, True, False]
        correct = 0
        for i in range(400):
            outcome = pattern[i % 4]
            if predictor.predict(20) == outcome:
                correct += 1
            predictor.update(20, outcome)
        assert correct / 400 > 0.9

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            GsharePredictor(1000)


class TestStatics:
    def test_always_taken(self):
        predictor = AlwaysTaken()
        assert predictor.predict(1) is True
        predictor.update(1, False)  # no-op
        assert predictor.predict(1) is True

    def test_always_not_taken(self):
        assert AlwaysNotTaken().predict(1) is False

    def test_backward_taken_uses_target(self):
        predictor = BackwardTaken()
        predictor.set_target(pc=10, target=2)    # backward
        predictor.set_target(pc=20, target=30)   # forward
        assert predictor.predict(10) is True
        assert predictor.predict(20) is False
        assert predictor.predict(99) is False    # unseen
