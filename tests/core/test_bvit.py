"""BVIT tests: tag matching, training, Heil-style replacement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bvit import BVIT


class TestLookupAndUpdate:
    def test_miss_returns_none(self):
        assert BVIT(16, 2).lookup(3, 1, 1) is None

    def test_allocate_then_hit(self):
        bvit = BVIT(16, 2)
        bvit.update(3, id_tag=1, depth_tag=2, taken=True)
        assert bvit.lookup(3, 1, 2) is True

    def test_tags_must_both_match(self):
        bvit = BVIT(16, 2)
        bvit.update(3, id_tag=1, depth_tag=2, taken=True)
        assert bvit.lookup(3, 1, 3) is None   # depth differs
        assert bvit.lookup(3, 2, 2) is None   # id differs

    def test_counter_trains_toward_outcome(self):
        bvit = BVIT(16, 2)
        bvit.update(0, 0, 0, taken=True)      # counter = 2
        bvit.update(0, 0, 0, taken=False)     # counter = 1
        assert bvit.lookup(0, 0, 0) is False
        bvit.update(0, 0, 0, taken=True)
        assert bvit.lookup(0, 0, 0) is True

    def test_counter_saturates(self):
        bvit = BVIT(16, 2)
        for _ in range(10):
            bvit.update(0, 0, 0, taken=True)
        # A single not-taken cannot flip a saturated counter.
        bvit.update(0, 0, 0, taken=False)
        assert bvit.lookup(0, 0, 0) is True

    def test_index_wraps_modulo_sets(self):
        bvit = BVIT(16, 2)
        bvit.update(16 + 3, 0, 0, taken=True)
        assert bvit.lookup(3, 0, 0) is True

    def test_allocate_gating(self):
        bvit = BVIT(16, 2)
        bvit.update(0, 0, 0, taken=True, allocate=False)
        assert bvit.lookup(0, 0, 0) is None
        assert bvit.occupancy() == 0

    def test_update_existing_even_without_allocate(self):
        bvit = BVIT(16, 2)
        bvit.update(0, 0, 0, taken=False)
        bvit.update(0, 0, 0, taken=False, allocate=False)
        assert bvit.lookup(0, 0, 0) is False


class TestReplacement:
    def test_set_fills_all_ways(self):
        bvit = BVIT(sets=4, ways=2)
        bvit.update(0, 1, 0, taken=True)
        bvit.update(0, 2, 0, taken=True)
        assert bvit.occupancy() == 2
        assert bvit.lookup(0, 1, 0) is True
        assert bvit.lookup(0, 2, 0) is True

    def test_low_performance_entry_evicted_first(self):
        bvit = BVIT(sets=1, ways=2)
        bvit.update(0, 1, 0, taken=True)
        bvit.update(0, 2, 0, taken=True)
        # Entry (1,0) predicts well; entry (2,0) mispredicts repeatedly.
        for _ in range(4):
            bvit.update(0, 1, 0, taken=True)       # correct -> perf up
            bvit.update(0, 2, 0, taken=False)      # counter swings -> perf down
            bvit.update(0, 2, 0, taken=True)
        # A new entry must displace the low-perf one.
        bvit.update(0, 3, 0, taken=True)
        assert bvit.lookup(0, 1, 0) is True         # survivor
        assert bvit.lookup(0, 3, 0) is True         # newcomer
        assert bvit.lookup(0, 2, 0) is None         # victim
        assert bvit.occupancy() == 2

    def test_eviction_only_within_set(self):
        bvit = BVIT(sets=2, ways=1)
        bvit.update(0, 1, 0, taken=True)
        bvit.update(1, 1, 0, taken=True)   # different set
        assert bvit.occupancy() == 2


class TestSizing:
    def test_entry_bits(self):
        bvit = BVIT(2048, 4)
        assert bvit.entry_bits == 3 + 5 + 3 + 2
        assert bvit.storage_bits == 2048 * 4 * 13

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            BVIT(0, 4)
        with pytest.raises(ValueError):
            BVIT(4, 0)


class TestProperties:
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                              st.integers(0, 31), st.booleans()),
                    max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, updates):
        bvit = BVIT(sets=4, ways=2)
        for index, id_tag, depth, taken in updates:
            bvit.update(index, id_tag, depth, taken)
        assert bvit.occupancy() <= 4 * 2
        for bucket in bvit._table:
            assert len(bucket) <= 2

    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_prediction_follows_majority_after_training(self, outcomes):
        bvit = BVIT(4, 1)
        for taken in outcomes:
            bvit.update(0, 0, 0, taken)
        # After a long uniform tail the counter must match it.
        for taken in [outcomes[-1]] * 3:
            bvit.update(0, 0, 0, taken)
        assert bvit.lookup(0, 0, 0) is outcomes[-1]
