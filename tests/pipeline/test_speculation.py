"""Engine integration of the speculation subsystem (DESIGN.md §2.2-§2.3).

The headline property: under ``speculation="wrongpath"`` the engine
actually drives ``FastDDT.rollback_to`` on its live DDT, and a
hardware-faithful reference DDT fed the *same* in-engine script (every
allocate/commit/rollback the engine issues) agrees with it after every
squash — the §2.3 cross-check, promoted from synthetic unit-test scripts
to the real pipeline.
"""

from types import SimpleNamespace

import pytest

from repro.core.ddt import CrossCheckedDDT, FastDDT
from repro.experiments.plan import ExperimentPoint
from repro.experiments.runner import run_point
from repro.pipeline.config import machine_for_depth
from repro.isa import AsmBuilder
from repro.isa.regs import s0, s1, t0, t1, t2, zero
from repro.pipeline.engine import PipelineEngine, build_predictor, simulate
from repro.pipeline.functional import FunctionalCore
from repro.predictors.twolevel import LevelTwoKind
from tests.conftest import build_memory_loop, unpredictable_branch_program

SCALE = 0.05
WARMUP = 500


def lcg_program(iterations=200):
    """Effectively random branches: guarantees mispredictions."""
    return unpredictable_branch_program(iterations)


class TestWrongPathMode:
    def test_acceptance_m88ksim_hybrid_depth20(self):
        """The ISSUE acceptance point: wrong-path work and in-engine
        rollbacks on the m88ksim hybrid (baseline) config at depth 20."""
        result = run_point(
            ExperimentPoint("m88ksim", "baseline", 20,
                            speculation="wrongpath"),
            scale=SCALE, warmup=WARMUP)
        assert result.speculation == "wrongpath"
        assert result.wrong_path_instructions > 0
        assert result.rollbacks > 0
        assert result.squashed_tokens == result.wrong_path_instructions

    def test_wrong_path_pollutes_the_memory_hierarchy(self):
        result = simulate(lcg_program(), machine_for_depth(
            20, speculation="wrongpath"), LevelTwoKind.HYBRID)
        memory = result.memory
        assert memory.wrong_path_l1i_accesses > 0
        assert result.wrong_path_branches > 0
        # Demand counters keep counting independently of pollution.
        assert memory.l1i_hits + memory.l1i_misses > 0

    def test_wrong_path_loads_access_the_dcache(self):
        # Loads on both sides of an unpredictable branch, so every
        # mispredict sends the wrong path straight into a load.
        from repro.isa import AsmBuilder, nez
        from repro.isa.regs import s0, s1, t0, t1, t2, t3

        b = AsmBuilder("wp-loads")
        b.data_word("table", *range(16))
        b.label("main")
        b.la(s0, "table")
        b.li(s1, 12345)
        with b.for_range(t0, 0, 200):
            b.li(t1, 1103515245)
            b.mult(s1, s1, t1)
            b.addi(s1, s1, 12345)
            b.srli(t2, s1, 16)
            b.andi(t2, t2, 1)
            with b.if_(nez(t2)):
                b.lw(t3, s0, 0)
            b.lw(t3, s0, 4)
        b.halt()
        result = simulate(b.build(), machine_for_depth(
            20, speculation="wrongpath"), LevelTwoKind.HYBRID)
        assert result.wrong_path_loads > 0
        assert result.memory.wrong_path_l1d_accesses >= result.wrong_path_loads

    def test_architectural_results_unaffected_by_wrong_path(self):
        """Same committed instruction stream in both modes: speculation
        changes timing/pollution, never architectural behaviour."""
        program = lcg_program()
        redirect = simulate(program, machine_for_depth(20),
                            LevelTwoKind.HYBRID)
        wrongpath = simulate(program, machine_for_depth(
            20, speculation="wrongpath"), LevelTwoKind.HYBRID)
        assert wrongpath.total_instructions == redirect.total_instructions
        assert wrongpath.cond_branches == redirect.cond_branches
        assert wrongpath.loads == redirect.loads
        assert wrongpath.stores == redirect.stores

    def test_deterministic(self):
        program = lcg_program()
        config = machine_for_depth(20, speculation="wrongpath")
        first = simulate(program, config, LevelTwoKind.HYBRID)
        second = simulate(program, config, LevelTwoKind.HYBRID)
        assert first == second

    def test_arvi_configuration_supports_wrongpath(self):
        result = simulate(build_memory_loop(32), machine_for_depth(
            20, speculation="wrongpath"), LevelTwoKind.ARVI)
        assert result.total_instructions > 0
        assert result.speculation == "wrongpath"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="speculation"):
            machine_for_depth(20, speculation="sideways")


def preg_partition(engine):
    """The engine's physical registers, each listed once per place it is
    held: mapped, free, or displaced by an in-flight instruction (freed
    when that instruction commits)."""
    displaced = [entry[4] for entry in engine._retire_queue
                 if entry[4] is not None]
    return sorted(engine.rename_map + list(engine.free_list) + displaced)


class TestWrongPathRecovery:
    """Around every episode the engine restores what the wrong path wrote."""

    @pytest.mark.parametrize("kind", [LevelTwoKind.HYBRID, LevelTwoKind.ARVI])
    def test_every_episode_restores_its_checkpoint(self, kind):
        config = machine_for_depth(20, speculation="wrongpath")
        engine = PipelineEngine(lcg_program(), config,
                                build_predictor(kind, config))
        every_preg = list(range(config.num_phys_regs))
        run_episode = engine._run_wrong_path
        taken_counts = []

        def state():
            return (engine.rename_map[:], engine.shadow_map.snapshot(),
                    [engine.shadow_values.read(preg)
                     for preg in every_preg],
                    engine.predictor.history_state(), engine.ddt.in_flight,
                    engine._last_fetch_line)

        def checked_episode(*args):
            result = engine.result
            before = state()
            free_before = list(engine.free_list)
            fetched_before = result.wrong_path_instructions
            squashed_before = result.squashed_tokens
            assert preg_partition(engine) == every_preg
            run_episode(*args)
            assert state() == before
            # The episode took its registers from the head of the free
            # list and gave them back to its tail in allocation order.
            free_after = list(engine.free_list)
            taken = ((len(free_before) - free_after.index(free_before[0]))
                     % len(free_before) if free_before else 0)
            assert free_after == free_before[taken:] + free_before[:taken]
            fetched = result.wrong_path_instructions - fetched_before
            assert taken <= fetched
            assert result.squashed_tokens - squashed_before == fetched
            assert preg_partition(engine) == every_preg
            taken_counts.append(taken)

        engine._run_wrong_path = checked_episode
        result = engine.run()
        assert len(taken_counts) >= result.rollbacks > 0
        assert max(taken_counts) >= 2  # the restore order was exercised
        assert result.squashed_tokens == result.wrong_path_instructions

    def test_workload_run_keeps_every_preg(self):
        """A whole wrongpath run on a workload leaks no register and
        holds none twice."""
        from repro.workloads import get_program
        config = machine_for_depth(20, speculation="wrongpath")
        engine = PipelineEngine(get_program("li", scale=SCALE), config,
                                build_predictor(LevelTwoKind.ARVI, config))
        result = engine.run()
        assert result.rollbacks > 0
        assert preg_partition(engine) == list(range(config.num_phys_regs))


class TestRenameCapacity:
    """``MachineConfig.num_phys_regs`` leaves the free list room for every
    rename, so nothing checks it: at each episode it holds more than the
    episode's ``need`` (the mispredicted branch holds a DDT entry but no
    register), the main loop never pops it empty, and the run ends with
    every register held exactly once."""

    @pytest.mark.parametrize("rob", [8, 16, 33])
    @pytest.mark.parametrize("kind", [LevelTwoKind.HYBRID, LevelTwoKind.ARVI])
    def test_free_list_covers_every_episode(self, kind, rob):
        from repro.workloads import get_program
        config = machine_for_depth(20, speculation="wrongpath",
                                   rob_entries=rob)
        for workload in ("li", "go", "m88ksim"):
            engine = PipelineEngine(get_program(workload, scale=0.02),
                                    config, build_predictor(kind, config))
            prefix = engine.episodes.prefix
            needs = []

            def checked_prefix(entry, need):
                assert len(engine.free_list) > need
                needs.append(need)
                return prefix(entry, need)

            engine.episodes.prefix = checked_prefix
            result = engine.run(4_000)
            assert len(needs) > 0 and result.rollbacks > 0
            assert preg_partition(engine) == list(
                range(config.num_phys_regs))


def episode_engine():
    """A fresh wrongpath engine on a program whose branch (pc 1) falls
    through to three instructions, the first writing no register, and
    whose taken target is HALT."""
    b = AsmBuilder("wp-episode")
    b.label("main")
    b.addi(t0, zero, 1)
    b.bne(t0, zero, "skip")
    b.add(zero, s0, s1)
    b.addi(t1, zero, 2)
    b.addi(t2, zero, 3)
    b.label("skip")
    b.halt()
    config = machine_for_depth(20, speculation="wrongpath")
    return PipelineEngine(b.build(), config,
                          build_predictor(LevelTwoKind.HYBRID, config))


def run_episode(engine, *, predicted_taken):
    """One wrong-path episode for the branch at pc 1, run directly on the
    engine before anything is in flight, down the predicted direction."""
    core = FunctionalCore(engine.program)
    core.step()
    branch = core.step()
    engine._run_wrong_path(branch, SimpleNamespace(final_pred=predicted_taken),
                           0, 10, engine.ddt.next_token - 1)


class TestWrongPathEpisode:
    """Single episodes, driven directly (the restore the whole-run test
    above checks around every episode of a real run)."""

    def test_episode_squashes_its_ddt_and_chain_entries(self):
        engine = episode_engine()
        free_before = list(engine.free_list)
        run_episode(engine, predicted_taken=False)
        result = engine.result
        assert result.wrong_path_instructions == 3
        assert (result.rollbacks, result.squashed_tokens) == (1, 3)
        assert engine.ddt.in_flight == 0
        assert len(engine.chains) == 0
        assert engine.rename_map == list(range(32))
        # Two registers were renamed; they return to the tail in order.
        assert list(engine.free_list) == free_before[2:] + free_before[:2]

    def test_episode_that_fetches_nothing_is_a_clean_noop(self):
        engine = episode_engine()
        free_before = list(engine.free_list)
        history_before = engine.predictor.history_state()
        run_episode(engine, predicted_taken=True)  # straight into HALT
        result = engine.result
        assert result.wrong_path_instructions == 0
        assert (result.rollbacks, result.squashed_tokens) == (1, 0)
        assert engine.rename_map == list(range(32))
        assert list(engine.free_list) == free_before
        assert engine.predictor.history_state() == history_before

    def test_fetch_limit_caps_every_episode(self):
        limit = 2
        config = machine_for_depth(20, speculation="wrongpath",
                                   wrongpath_fetch_limit=limit)
        engine = PipelineEngine(lcg_program(), config,
                                build_predictor(LevelTwoKind.HYBRID, config))
        run_episode_ = engine._run_wrong_path
        fetched = []

        def counted_episode(*args):
            before = engine.result.wrong_path_instructions
            run_episode_(*args)
            fetched.append(engine.result.wrong_path_instructions - before)

        engine._run_wrong_path = counted_episode
        engine.run()
        assert fetched and max(fetched) == limit

    def test_redirect_mode_never_runs_an_episode(self):
        engines = {}
        for mode in ("redirect", "wrongpath"):
            config = machine_for_depth(20, speculation=mode)
            engine = PipelineEngine(
                lcg_program(), config,
                build_predictor(LevelTwoKind.HYBRID, config))
            episodes = []
            engine._run_wrong_path = lambda *args, log=episodes: log.append(
                args)
            engine.run()
            engines[mode] = episodes
        assert engines["redirect"] == []
        assert engines["wrongpath"]


class TestInEngineRollbackCrossCheck:
    """Satellite: the in-engine DDT script, cross-checked bit-for-bit."""

    def run_checked(self, program, kind=LevelTwoKind.HYBRID):
        config = machine_for_depth(20, speculation="wrongpath")
        predictor = build_predictor(kind, config)
        engine = PipelineEngine(program, config, predictor,
                                ddt_cross_check=True)
        result = engine.run()
        return engine, result

    def test_reference_ddt_agrees_after_every_squash(self):
        engine, result = self.run_checked(lcg_program())
        # The run completing at all means every mirrored allocate/commit/
        # rollback agreed (divergence raises DDTCrossCheckError); make
        # sure the property was actually exercised, then re-verify the
        # final chain state explicitly.
        assert result.rollbacks > 0
        assert engine.ddt.rollback_checks == result.rollbacks
        assert engine.ddt.operations > result.total_instructions
        engine.ddt.verify_chains()

    def test_cross_check_flag_selects_the_checked_ddt(self):
        config = machine_for_depth(20, speculation="wrongpath")
        for checked, ddt_type in ((True, CrossCheckedDDT), (False, FastDDT)):
            engine = PipelineEngine(
                lcg_program(), config,
                build_predictor(LevelTwoKind.HYBRID, config),
                ddt_cross_check=checked)
            assert type(engine.ddt) is ddt_type

    def test_cross_check_matches_unchecked_run(self):
        program = lcg_program()
        _engine, checked = self.run_checked(program)
        unchecked = simulate(program, machine_for_depth(
            20, speculation="wrongpath"), LevelTwoKind.HYBRID)
        assert checked == unchecked

    def test_cross_check_with_arvi_level2(self):
        engine, result = self.run_checked(build_memory_loop(48),
                                          kind=LevelTwoKind.ARVI)
        assert engine.ddt.rollback_checks == result.rollbacks
        engine.ddt.verify_chains()


class TestRedirectModeUntouched:
    def test_default_machine_is_redirect(self):
        assert machine_for_depth(20).speculation == "redirect"

    def test_redirect_reports_zero_wrong_path_activity(self):
        result = simulate(lcg_program(), machine_for_depth(20),
                          LevelTwoKind.HYBRID)
        assert result.speculation == "redirect"
        assert result.wrong_path_instructions == 0
        assert result.rollbacks == 0
        assert result.wrong_path_fills == 0
