"""The DDT cross-check harness (the engine's checkpoint restore is tested
in tests/pipeline/test_speculation.py)."""

import pytest

from repro.core.ddt import CrossCheckedDDT, DDTCrossCheckError

FIGURE1_PROGRAM = [
    (1, (2,)),
    (4, (1, 3)),
    (5, (4, 1)),
    (6, (5, 4)),
    (7, (1,)),
    (8, (4, 7)),
]


class TestCrossCheckedDDT:
    def build(self):
        ddt = CrossCheckedDDT(num_regs=10, num_entries=9)
        tokens = [ddt.allocate(dest, srcs) for dest, srcs in FIGURE1_PROGRAM]
        return ddt, tokens

    def test_mirrors_allocate_and_queries(self):
        ddt, tokens = self.build()
        assert ddt.chain_tokens(8) == {tokens[0], tokens[1], tokens[4],
                                       tokens[5]}
        assert ddt.in_flight == 6
        assert ddt.next_token == tokens[-1] + 1
        assert ddt.oldest_chain_token(8) == tokens[0]
        ddt.verify_chains()

    def test_mirrors_commit_and_rollback(self):
        ddt, tokens = self.build()
        assert ddt.commit_oldest() == tokens[0]
        squashed = ddt.rollback_to(tokens[2])
        assert squashed == [tokens[5], tokens[4], tokens[3]]
        assert ddt.rollback_checks == 1
        # Allocation continues cleanly after a checked rollback.
        token = ddt.allocate(6, (5,))
        assert token in ddt.chain_tokens(6)
        ddt.verify_chains()

    def test_divergence_is_detected(self):
        ddt, tokens = self.build()
        # Sabotage the reference: silently drop a valid bit.
        ddt.reference.valid &= ~1
        with pytest.raises(DDTCrossCheckError):
            ddt.verify_chains()

    def test_rollback_squash_mismatch_is_detected(self):
        ddt, tokens = self.build()
        ddt.reference.rollback_to(tokens[3])  # reference secretly ahead
        with pytest.raises(DDTCrossCheckError):
            ddt.rollback_to(tokens[2])
