"""Tests for the rename map."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.rename import RenameError, RenameMap


class TestRenameMap:
    def test_identity_initial_mapping(self):
        rename = RenameMap(64)
        for logical in range(32):
            assert rename.lookup(logical) == logical

    def test_rename_allocates_fresh_register(self):
        rename = RenameMap(64)
        new, displaced = rename.rename_dest(5)
        assert new not in range(32)
        assert displaced == 5
        assert rename.lookup(5) == new

    def test_release_recycles(self):
        rename = RenameMap(34)
        new1, displaced1 = rename.rename_dest(1)
        new2, displaced2 = rename.rename_dest(2)
        assert rename.free_count == 0
        rename.release(displaced1)
        new3, _ = rename.rename_dest(3)
        assert new3 == displaced1

    def test_underflow_raises(self):
        rename = RenameMap(33)
        rename.rename_dest(0)
        with pytest.raises(RenameError):
            rename.rename_dest(1)

    def test_snapshot_restore(self):
        rename = RenameMap(64)
        snapshot = rename.snapshot()
        new1, _ = rename.rename_dest(3)
        new2, _ = rename.rename_dest(4)
        rename.restore(snapshot, [new1, new2])
        assert rename.lookup(3) == 3
        assert rename.lookup(4) == 4
        assert rename.free_count == 32

    def test_restore_validates_snapshot(self):
        rename = RenameMap(64)
        with pytest.raises(RenameError):
            rename.restore((1, 2, 3), [])

    def test_too_few_physical_registers(self):
        with pytest.raises(ValueError):
            RenameMap(16)

    @given(st.lists(st.integers(0, 31), max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_live_registers_always_distinct(self, dests):
        """No two logical registers may map to the same physical one."""
        rename = RenameMap(32 + 64)
        displaced_queue = []
        for logical in dests:
            if rename.free_count == 0:
                rename.release(displaced_queue.pop(0))
            _, displaced = rename.rename_dest(logical)
            displaced_queue.append(displaced)
            live = rename.live_physical_registers()
            assert len(live) == 32
