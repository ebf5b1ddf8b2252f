"""ARVI predictor tests: keys, classification, training, ablation flags."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arvi import (
    ARVIConfig,
    ARVIPredictor,
    ARVIRequest,
    RegisterView,
    ValueMode,
)


def view(preg, logical, available=True, value=0):
    return RegisterView(preg=preg, logical=logical,
                        available=available, value=value)


def request(pc=100, regset=None, branch_token=50, oldest=45):
    return ARVIRequest(pc=pc, regset=regset or [],
                       branch_token=branch_token, oldest_chain_token=oldest)


class TestKeyFormation:
    def test_index_uses_available_values_only(self):
        arvi = ARVIPredictor()
        with_pending = request(regset=[view(1, 1, value=5),
                                       view(2, 2, available=False, value=9)])
        without = request(regset=[view(1, 1, value=5)])
        # The pending register contributes nothing to the index.
        assert arvi.keys(with_pending)[0] == arvi.keys(without)[0]

    def test_id_tag_covers_all_set_members(self):
        arvi = ARVIPredictor()
        r1 = request(regset=[view(1, 1), view(2, 2, available=False)])
        r2 = request(regset=[view(1, 1)])
        assert arvi.keys(r1)[1] != arvi.keys(r2)[1]

    def test_depth_tag_from_tokens(self):
        arvi = ARVIPredictor()
        assert arvi.keys(request(branch_token=50, oldest=45))[2] == 5
        assert arvi.keys(request(branch_token=50, oldest=None))[2] == 0

    def test_ablation_flags_zero_tags(self):
        arvi = ARVIPredictor(ARVIConfig(use_id_tag=False,
                                        use_depth_tag=False))
        _, id_tag, depth = arvi.keys(
            request(regset=[view(1, 7)], branch_token=50, oldest=10))
        assert id_tag == 0
        assert depth == 0

    def test_different_values_different_entries(self):
        arvi = ARVIPredictor()
        k1 = arvi.keys(request(regset=[view(1, 1, value=10)]))
        k2 = arvi.keys(request(regset=[view(1, 1, value=11)]))
        assert k1[0] != k2[0]


class TestClassification:
    def test_all_available_is_calculated(self):
        arvi = ARVIPredictor()
        pred = arvi.predict(request(regset=[view(1, 1), view(2, 2)]))
        assert not pred.is_load_branch

    def test_any_pending_is_load_branch(self):
        arvi = ARVIPredictor()
        pred = arvi.predict(request(
            regset=[view(1, 1), view(2, 2, available=False)]))
        assert pred.is_load_branch

    def test_empty_set_is_calculated(self):
        arvi = ARVIPredictor()
        pred = arvi.predict(request(regset=[]))
        assert not pred.is_load_branch


class TestPredictTrainLoop:
    def test_learns_value_conditioned_outcome(self):
        """Same PC, two key values with opposite outcomes: both learned."""
        arvi = ARVIPredictor(ARVIConfig(allocate_only_hard=False))
        taken_req = request(regset=[view(1, 1, value=7)])
        nottaken_req = request(regset=[view(1, 1, value=8)])
        for _ in range(3):
            arvi.update(arvi.predict(taken_req), True)
            arvi.update(arvi.predict(nottaken_req), False)
        assert arvi.predict(taken_req).taken is True
        assert arvi.predict(nottaken_req).taken is False

    def test_depth_disambiguates_iterations(self):
        """Same PC and values, different chain spans: separate entries
        (the paper's loop-iteration disambiguation)."""
        arvi = ARVIPredictor(ARVIConfig(allocate_only_hard=False))
        iter1 = request(regset=[view(1, 1, value=7)],
                        branch_token=100, oldest=95)
        iter2 = request(regset=[view(1, 1, value=7)],
                        branch_token=100, oldest=90)
        for _ in range(3):
            arvi.update(arvi.predict(iter1), False)
            arvi.update(arvi.predict(iter2), True)
        assert arvi.predict(iter1).taken is False
        assert arvi.predict(iter2).taken is True

    def test_allocation_gated_on_hard_branch(self):
        arvi = ARVIPredictor(ARVIConfig(allocate_only_hard=True))
        req = request(regset=[view(1, 1, value=3)])
        arvi.update(arvi.predict(req), True, hard_branch=False)
        assert arvi.predict(req).taken is None      # not allocated
        arvi.update(arvi.predict(req), True, hard_branch=True)
        assert arvi.predict(req).taken is True

    def test_miss_prediction_is_none(self):
        arvi = ARVIPredictor()
        pred = arvi.predict(request(regset=[view(1, 1, value=3)]))
        assert pred.taken is None
        assert not pred.hit

    @given(st.lists(st.tuples(st.integers(0, 3), st.booleans()),
                    min_size=8, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_no_crash_on_random_streams(self, events):
        arvi = ARVIPredictor(ARVIConfig(sets=8, ways=2,
                                        allocate_only_hard=False))
        for key, taken in events:
            req = request(regset=[view(1, 1, value=key)])
            arvi.update(arvi.predict(req), taken)
        assert arvi.bvit.occupancy() <= 8 * 2


class TestValueModeEnum:
    def test_paper_names(self):
        assert ValueMode.CURRENT.value == "current value"
        assert ValueMode.LOAD_BACK.value == "load back"
        assert ValueMode.PERFECT.value == "perfect value"


class TestSizing:
    def test_storage_composition(self):
        arvi = ARVIPredictor()
        assert arvi.storage_bits() == arvi.bvit.storage_bits
        assert arvi.storage_bits(100, 50) == arvi.bvit.storage_bits + 150
