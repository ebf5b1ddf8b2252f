"""RSE tests, including the paper's Figure 3 worked example."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ddt import DDT
from repro.core.rse import ChainInfoTable, RSEArray

# Paper Figure 3 program (same as Figure 1, with load marking):
#   entry 0: load p1 <- (p2)      loads mark nothing
#   entry 1: add  p4 <- p1 + p3
#   entry 2: or   p5 <- p4 or p1
#   entry 3: sub  p6 <- p5 - p4
#   entry 4: add  p7 <- p1 + 1
#   entry 5: add  p8 <- p4 + p7
FIGURE3_PROGRAM = [
    (1, (2,), True),
    (4, (1, 3), False),
    (5, (4, 1), False),
    (6, (5, 4), False),
    (7, (1,), False),
    (8, (4, 7), False),
]


def figure3_state():
    ddt = DDT(num_regs=10, num_entries=9)
    rse = RSEArray(num_regs=10, num_entries=9)
    chains = ChainInfoTable()
    for dest, srcs, is_load in FIGURE3_PROGRAM:
        token = ddt.allocate(dest, srcs)
        entry = ddt.entry_of_token(token)
        rse.insert(entry, dest, srcs, is_load=is_load)
        chains.insert(token, dest, srcs, is_load=is_load)
    return ddt, rse, chains


class TestPaperFigure3:
    def test_register_set_is_p1_p3(self):
        """The branch ``beq p8, 0`` resolves to the leaf set {p1, p3}."""
        ddt, rse, _ = figure3_state()
        enable = ddt.chain_mask(8)
        assert rse.extract(enable, branch_srcs=(8,)) == {1, 3}

    def test_chain_info_table_agrees(self):
        ddt, _, chains = figure3_state()
        tokens = ddt.chain_tokens(8)
        assert chains.extract(tokens, branch_srcs=(8,)) == {1, 3}

    def test_intermediate_registers_eliminated(self):
        """p4 and p7 are excluded: their values derive from p1 and p3."""
        ddt, rse, _ = figure3_state()
        result = rse.extract(ddt.chain_mask(8), branch_srcs=(8,))
        assert 4 not in result
        assert 7 not in result
        assert 8 not in result

    def test_cell_markings(self):
        _, rse, _ = figure3_state()
        # Load entry (0) is intentionally unmarked.
        for reg in range(10):
            assert rse.cell(reg, 0) == ""
        # add p4 <- p1 + p3 at entry 1.
        assert rse.cell(1, 1) == "S"
        assert rse.cell(3, 1) == "S"
        assert rse.cell(4, 1) == "T"

    def test_storage_sizing(self):
        rse = RSEArray(num_regs=72, num_entries=80)
        assert rse.storage_bits == 2 * 72 * 80


class TestRSESemantics:
    def test_committed_operand_is_its_own_leaf(self):
        """A branch whose operand chain is empty uses the operand itself."""
        rse = RSEArray(4, 4)
        assert rse.extract(0, branch_srcs=(2,)) == {2}

    def test_pending_load_dest_stays_in_set(self):
        """A load's destination is a leaf: chains terminate at loads."""
        ddt = DDT(8, 8)
        rse = RSEArray(8, 8)
        t_load = ddt.allocate(1, (2,))
        rse.insert(ddt.entry_of_token(t_load), 1, (2,), is_load=True)
        t_add = ddt.allocate(3, (1,))
        rse.insert(ddt.entry_of_token(t_add), 3, (1,), is_load=False)
        result = rse.extract(ddt.chain_mask(3), branch_srcs=(3,))
        assert result == {1}  # the load's dest; 3 is produced in-chain

    def test_load_address_register_not_included(self):
        """Loads mark no sources: the base-address register is excluded."""
        ddt = DDT(8, 8)
        rse = RSEArray(8, 8)
        token = ddt.allocate(1, (2,))
        rse.insert(ddt.entry_of_token(token), 1, (2,), is_load=True)
        result = rse.extract(ddt.chain_mask(1), branch_srcs=(1,))
        assert 2 not in result
        assert result == {1}

    def test_entry_reuse_clears_marks(self):
        rse = RSEArray(4, 2)
        rse.insert(0, 1, (2,), is_load=False)
        rse.insert(0, 3, (1,), is_load=False)  # reuse entry 0
        assert rse.cell(2, 0) == ""
        assert rse.cell(1, 0) == "S"
        assert rse.cell(3, 0) == "T"


class TestChainInfoTable:
    def test_discard_removes_metadata(self):
        chains = ChainInfoTable()
        chains.insert(0, 1, (2,), is_load=False)
        assert len(chains) == 1
        chains.discard(0)
        assert len(chains) == 0
        chains.discard(0)  # idempotent

    def test_info_roundtrip(self):
        chains = ChainInfoTable()
        chains.insert(5, 1, (2, 3), is_load=True)
        assert chains.info(5) == (1, (2, 3), True)


# -- Equivalence: bit-plane RSE vs token-keyed table ----------------------


@st.composite
def rse_programs(draw):
    num_regs = draw(st.integers(3, 8))
    length = draw(st.integers(1, 12))
    program = []
    for _ in range(length):
        dest = draw(st.one_of(st.none(), st.integers(1, num_regs - 1)))
        srcs = tuple(draw(st.lists(
            st.integers(0, num_regs - 1), max_size=2)))
        is_load = draw(st.booleans())
        program.append((dest, srcs, is_load))
    branch_srcs = tuple(draw(st.lists(
        st.integers(0, num_regs - 1), min_size=1, max_size=2)))
    return num_regs, program, branch_srcs


class TestEquivalence:
    @given(rse_programs())
    @settings(max_examples=150, deadline=None)
    def test_array_matches_table(self, case):
        num_regs, program, branch_srcs = case
        ddt = DDT(num_regs, len(program) + 1)
        rse = RSEArray(num_regs, len(program) + 1)
        chains = ChainInfoTable()
        for dest, srcs, is_load in program:
            token = ddt.allocate(dest, srcs)
            rse.insert(ddt.entry_of_token(token), dest, srcs, is_load=is_load)
            chains.insert(token, dest, srcs, is_load=is_load)
        mask = ddt.chain_mask(*branch_srcs)
        tokens = ddt.chain_tokens(*branch_srcs)
        assert (rse.extract(mask, branch_srcs)
                == chains.extract(tokens, branch_srcs))
