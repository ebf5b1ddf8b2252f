"""Tests for the Section 3 applications of dependence tracking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.applications.chain_length import (
    ChainLengthObserver,
    ChainLengthStats,
    TrailingDependentsCounter,
)
from repro.applications.criticality import CriticalityObserver
from repro.applications.decoupled import BexExtractor
from repro.applications.scheduling import (
    DagNode,
    compare_policies,
    random_dag,
    simulate_issue,
    trailing_dependents,
)
from repro.applications.smt_fetch import ThreadModel, simulate_smt
from repro.applications.smt_fetch import compare_policies as smt_compare
from repro.applications.value_pred import (
    LastValuePredictor,
    run_selective_value_prediction,
)
from repro.core.ddt import FastDDT
from repro.pipeline.engine import PipelineEngine, build_predictor
from repro.predictors.twolevel import LevelTwoKind
from tests.conftest import build_memory_loop


class TestTrailingDependentsCounter:
    def test_counts_direct_and_transitive_dependents(self):
        ddt = FastDDT(8, 8)
        counter = TrailingDependentsCounter(ddt)
        t_a = ddt.allocate(1, ())
        counter.on_allocate(t_a, 1, ())
        t_b = ddt.allocate(2, (1,))
        counter.on_allocate(t_b, 2, (1,))
        t_c = ddt.allocate(3, (2,))
        counter.on_allocate(t_c, 3, (2,))
        assert counter.dependents(t_a) == 2   # b and c (transitively)
        assert counter.dependents(t_b) == 1
        assert counter.dependents(t_c) == 0

    def test_retire_removes(self):
        ddt = FastDDT(8, 8)
        counter = TrailingDependentsCounter(ddt)
        token = ddt.allocate(1, ())
        counter.on_allocate(token, 1, ())
        assert counter.on_retire(token) == 0
        assert counter.dependents(token) == 0

    def test_longest_chains_ranking(self):
        ddt = FastDDT(8, 8)
        counter = TrailingDependentsCounter(ddt)
        tokens = []
        # Serial chain through register 1: first instruction has the most
        # trailing dependents.
        for _ in range(4):
            token = ddt.allocate(1, (1,))
            counter.on_allocate(token, 1, (1,))
            tokens.append(token)
        ranked = counter.longest_chains(top=2)
        assert ranked[0][0] == tokens[0]
        assert ranked[0][1] == 3


class TestChainLengthStats:
    def test_mean_and_percentile(self):
        stats = ChainLengthStats()
        for length in (0, 2, 2, 4):
            stats.record(length, is_load=False, is_branch=False)
        assert stats.mean() == 2.0
        assert stats.percentile(0.5) == 2
        assert stats.percentile(1.0) == 4

    def test_class_histograms(self):
        stats = ChainLengthStats()
        stats.record(3, is_load=True, is_branch=False)
        stats.record(5, is_load=False, is_branch=True)
        assert stats.mean_for(stats.load_histogram) == 3
        assert stats.mean_for(stats.branch_histogram) == 5

    def test_observer_collects_from_engine(self, tiny_machine):
        observer = ChainLengthObserver()
        predictor = build_predictor(LevelTwoKind.HYBRID, tiny_machine)
        PipelineEngine(build_memory_loop(32), tiny_machine, predictor,
                       observers=[observer]).run()
        assert observer.stats.samples > 100
        assert observer.stats.mean() >= 0


class TestScheduling:
    def test_trailing_dependents_simple_chain(self):
        nodes = [DagNode(0, ()), DagNode(1, (0,)), DagNode(2, (1,))]
        assert trailing_dependents(nodes) == [2, 1, 0]

    def test_diamond(self):
        nodes = [DagNode(0, ()), DagNode(1, (0,)), DagNode(2, (0,)),
                 DagNode(3, (1, 2))]
        assert trailing_dependents(nodes) == [3, 1, 1, 0]

    def test_simulate_issue_serial_chain(self):
        nodes = [DagNode(0, (), 2), DagNode(1, (0,), 2), DagNode(2, (1,), 2)]
        result = simulate_issue(nodes, width=4)
        assert result.makespan == 6  # fully serial

    def test_all_parallel_bounded_by_width(self):
        nodes = [DagNode(i, (), 1) for i in range(8)]
        result = simulate_issue(nodes, width=2)
        # 8 ops at 2 per cycle: last pair issues at cycle 3, finishes at 4.
        assert result.makespan == 4

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            simulate_issue([DagNode(0, ())], policy="magic")

    def test_chain_priority_not_worse_on_skewed_dags(self):
        wins = ties = losses = 0
        for seed in range(8):
            makespans = compare_policies(size=150, width=2, seed=seed)
            if makespans["chain-priority"] < makespans["oldest-first"]:
                wins += 1
            elif makespans["chain-priority"] == makespans["oldest-first"]:
                ties += 1
            else:
                losses += 1
        assert wins + ties >= losses

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_all_policies_complete_all_nodes(self, seed):
        nodes = random_dag(60, seed=seed)
        for policy in ("oldest-first", "chain-priority", "random"):
            result = simulate_issue(nodes, policy=policy, seed=seed)
            assert sorted(result.issue_order) == list(range(60))


class TestSMTFetch:
    def test_policies_run(self):
        throughputs = smt_compare(cycles=500)
        assert set(throughputs) == {"round-robin", "icount", "chain"}
        assert all(v > 0 for v in throughputs.values())

    def test_serialness_validated(self):
        with pytest.raises(ValueError):
            ThreadModel("bad", serialness=1.5)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            simulate_smt([ThreadModel("a", 0.5)], policy="magic")

    def test_chain_policy_prefers_parallel_threads(self):
        threads = [ThreadModel("serial", serialness=0.95),
                   ThreadModel("parallel", serialness=0.05)]
        result = simulate_smt(threads, cycles=1500, policy="chain", seed=3)
        assert (result.per_thread_completed["parallel"]
                > result.per_thread_completed["serial"])


class TestValuePrediction:
    def test_last_value_predictor(self):
        predictor = LastValuePredictor()
        assert predictor.predict_and_train(1, 5) is False
        assert predictor.predict_and_train(1, 5) is True
        assert predictor.predict_and_train(1, 6) is False
        assert predictor.accuracy == pytest.approx(1 / 3)

    def test_selection_report(self):
        report = run_selective_value_prediction(
            build_memory_loop(32), threshold=2, max_instructions=20_000)
        assert 0 < report.selected_sites <= report.total_sites
        assert 0 < report.coverage <= 1.0
        assert 0 <= report.selected_accuracy <= 1.0

    def test_higher_threshold_selects_fewer(self):
        program = build_memory_loop(32)
        low = run_selective_value_prediction(program, threshold=1)
        high = run_selective_value_prediction(program, threshold=6)
        assert high.selected_sites <= low.selected_sites


class TestCriticalityAndBex:
    def test_criticality_observer(self, tiny_machine):
        observer = CriticalityObserver(slack_threshold=2, chain_threshold=4)
        predictor = build_predictor(LevelTwoKind.HYBRID, tiny_machine)
        PipelineEngine(build_memory_loop(64), tiny_machine, predictor,
                       observers=[observer]).run()
        stats = observer.stats
        assert stats.records > 100
        assert 0 <= stats.precision <= 1
        assert 0 <= stats.recall <= 1
        assert "critical" in observer.report()

    def test_bex_extractor(self, tiny_machine):
        extractor = BexExtractor(max_chain=8)
        predictor = build_predictor(LevelTwoKind.HYBRID, tiny_machine)
        PipelineEngine(build_memory_loop(64), tiny_machine, predictor,
                       observers=[extractor]).run()
        report = extractor.report
        assert report.branches > 0
        assert 0 <= report.decoupleable_fraction <= 1
        assert report.mean_chain_length() >= 0
