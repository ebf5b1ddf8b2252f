"""Wrong-path synthesis: copy-on-write memory and the speculative fetch
source."""

import pytest

from repro.isa import AsmBuilder, nez
from repro.isa.regs import s0, t0, t1, t2, zero
from repro.pipeline.functional import ExecutionError, FunctionalCore
from repro.speculation.wrongpath import WrongPathCore


def memory_view(base):
    """A wrong-path core over ``base`` memory (its program is one HALT)."""
    b = AsmBuilder("wp-memory")
    b.label("main")
    b.halt()
    return WrongPathCore(b.build(), [0] * 32, base, 0, lambda pc: False)


class TestCowMemory:
    def test_word_read_through_and_overlay(self):
        base = bytearray(64)
        base[8:12] = (0x11223344).to_bytes(4, "little")
        view = memory_view(base)
        assert view.load_word(8) == 0x11223344
        view.store_word(8, 0xDEADBEEF)
        assert view.load_word(8) == 0xDEADBEEF
        assert base[8:12] == (0x11223344).to_bytes(4, "little")

    def test_byte_overlay_mixes_into_word_read(self):
        base = bytearray(64)
        base[4:8] = (0xAABBCCDD).to_bytes(4, "little")
        view = memory_view(base)
        view.store_byte(5, 0x00)
        assert view.load_word(4) == 0xAABB00DD
        assert view.load_byte(5, signed=False) == 0
        assert base[4:8] == (0xAABBCCDD).to_bytes(4, "little")

    def test_signed_byte_semantics_match_core(self):
        base = bytearray(8)
        base[3] = 0x80
        view = memory_view(base)
        assert view.load_byte(3, signed=True) == -128
        assert view.load_byte(3, signed=False) == 0x80

    def test_bounds_and_alignment_fault(self):
        view = memory_view(bytearray(16))
        with pytest.raises(ExecutionError):
            view.load_word(16)
        with pytest.raises(ExecutionError):
            view.load_word(2)
        with pytest.raises(ExecutionError):
            view.store_word(-4, 1)


def wrong_path_core(builder, start_pc, predict=lambda pc: False):
    program = builder.build()
    core = FunctionalCore(program)
    return WrongPathCore(program, core.registers, core.memory,
                         start_pc, predict), core


class TestWrongPathCore:
    def test_streams_instructions_from_wrong_target(self):
        b = AsmBuilder("wp")
        b.label("main")
        b.addi(t0, zero, 1)
        b.addi(t1, zero, 2)
        b.addi(t2, zero, 3)
        b.halt()
        wp, _core = wrong_path_core(b, start_pc=1)
        first = wp.step()
        second = wp.step()
        assert [first.pc, second.pc] == [1, 2]
        assert wp.step() is None  # HALT stops speculative fetch
        assert wp.fetched == 2

    def test_registers_start_as_a_copy_of_the_architectural_file(self):
        b = AsmBuilder("wp-regs")
        b.label("main")
        b.halt()
        base = list(range(32))
        wp = WrongPathCore(b.build(), base, bytearray(16), 0,
                           lambda pc: False)
        assert wp.registers == base
        assert wp.registers is not base

    def test_register_writes_stay_in_the_copy(self):
        b = AsmBuilder("wp-write")
        b.label("main")
        b.addi(t0, zero, 99)
        b.addi(t1, t0, 1)         # reads the wrong-path t0
        b.halt()
        wp, core = wrong_path_core(b, start_pc=0)
        wp.step()
        second = wp.step()
        assert second.result == 100
        assert wp.registers[t0] == 99
        assert core.registers[t0] == 0

    def test_architectural_state_never_mutates(self):
        b = AsmBuilder("wp-store")
        b.data_space("buf", 4)
        b.label("main")
        b.la(s0, "buf")
        b.addi(t0, zero, 77)
        b.sw(t0, s0, 0)
        b.lw(t1, s0, 0)
        b.halt()
        program = b.build()
        core = FunctionalCore(program)
        core.step()  # execute `la` so s0 holds the buffer address
        snapshot_regs = list(core.registers)
        snapshot_mem = bytes(core.memory)
        wp = WrongPathCore(program, core.registers, core.memory,
                           core.pc, lambda pc: False)
        stream = []
        while True:
            dyn = wp.step()
            if dyn is None:
                break
            stream.append(dyn)
        # The wrong-path store forwarded to the wrong-path load...
        load = next(dyn for dyn in stream if dyn.is_load)
        assert load.result == 77
        # ...but architectural state is untouched.
        assert core.registers == snapshot_regs
        assert bytes(core.memory) == snapshot_mem

    def test_branches_follow_the_prediction_not_the_data(self):
        b = AsmBuilder("wp-branch")
        b.label("main")
        b.addi(t0, zero, 1)       # t0 != 0: the branch is data-taken
        with b.while_(nez(t0)):
            b.addi(t0, t0, -1)
        b.addi(t1, zero, 9)
        b.halt()
        program = b.build()
        core = FunctionalCore(program)
        core.run_to_completion()

        branch_pc = next(pc for pc, inst in enumerate(program.instructions)
                         if inst.is_cond_branch)
        asked = []

        def predict(pc):
            asked.append(pc)
            return False  # predict not-taken regardless of the data

        wp = WrongPathCore(program, [1] * 32, core.memory, branch_pc, predict)
        dyn = wp.step()
        assert asked == [branch_pc]
        assert dyn.next_pc == branch_pc + 1  # fell through as predicted
        assert wp.pc == branch_pc + 1

    def test_fault_ends_the_stream(self):
        b = AsmBuilder("wp-fault")
        b.label("main")
        b.lui(t0, 0x7FFF)         # t0 = huge address
        b.lw(t1, t0, 0)           # faults: out of memory range
        b.addi(t2, zero, 1)
        b.halt()
        wp, _ = wrong_path_core(b, start_pc=0)
        assert wp.step() is not None   # lui
        assert wp.step() is None       # faulting load ends the wrong path
        assert wp.faulted
        assert wp.step() is None       # and it stays ended

    def test_pc_leaving_program_ends_the_stream(self):
        b = AsmBuilder("wp-end")
        b.label("main")
        b.addi(t0, zero, 1)
        b.halt()
        wp, _ = wrong_path_core(b, start_pc=500)
        assert wp.step() is None
