"""Experiment harness tests (small scale — structure, not paper numbers)."""

import pytest

from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.report import (
    arithmetic_mean,
    format_table,
    geometric_mean,
)
from repro.experiments.runner import (
    CONFIGURATIONS,
    ExperimentPoint,
    run_point,
    run_suite,
)
from repro.experiments.tables import (
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    storage_summary,
)

SMALL = dict(scale=0.05, warmup=500)


class TestRunner:
    def test_run_point_baseline(self):
        result = run_point(ExperimentPoint("li", "baseline", 20), **SMALL)
        assert result.configuration == "baseline"
        assert result.pipeline_depth == 20
        assert result.instructions > 0

    def test_run_point_arvi_modes(self):
        for configuration in ("current", "load back", "perfect"):
            result = run_point(
                ExperimentPoint("vortex", configuration, 20), **SMALL)
            assert result.arvi_lookups > 0

    def test_unknown_configuration_rejected(self):
        with pytest.raises(ValueError):
            run_point(ExperimentPoint("li", "magic", 20), **SMALL)

    def test_run_suite_grid(self):
        results = run_suite(configurations=("baseline", "current"),
                            depths=(20,), benchmarks=("li", "vortex"),
                            **SMALL)
        assert len(results) == 4
        assert ("li", "current", 20) in results


class TestFigure5:
    def test_structure(self):
        data = run_figure5(depths=(20,), benchmarks=("li", "vortex"),
                           **SMALL)
        assert ("li", 20) in data.load_rates
        assert 0 <= data.load_rates[("li", 20)] <= 1
        assert 0 <= data.calc_accuracy["li"] <= 1
        # Figure 5(b) is the shallowest machine run, whatever order the
        # depths are given in.
        deep_first = run_figure5(depths=(40, 20),
                                 benchmarks=("li", "vortex"), **SMALL)
        assert deep_first.calc_accuracy == data.calc_accuracy
        assert deep_first.load_accuracy == data.load_accuracy

    def test_render_contains_benchmarks(self):
        data = run_figure5(depths=(20,), benchmarks=("li", "vortex"),
                           **SMALL)
        # Rendering requires all benchmarks; restrict to the two we ran.
        rows = [[bench, data.load_accuracy[bench],
                 data.calc_accuracy[bench]]
                for bench in ("li", "vortex")]
        text = format_table(["benchmark", "load", "calc"], rows)
        assert "li" in text and "vortex" in text


class TestFigure6:
    def test_structure_and_normalization(self):
        data = run_figure6(20, benchmarks=("li",), **SMALL)
        assert data.normalized_ipc("li", "baseline") == pytest.approx(1.0)
        for configuration in CONFIGURATIONS:
            assert data.accuracy("li", configuration) > 0.3
        assert data.mean_normalized_ipc("current") > 0.3

    def test_render(self):
        data = run_figure6(20, benchmarks=("li",), **SMALL)
        text = data.render()
        assert "prediction accuracy" in text
        assert "normalized IPC" in text
        assert "average" in text


class TestTables:
    def test_table1_lists_access_steps(self):
        text = render_table1()
        assert "RSE" in text and "BVIT" in text

    def test_table2_has_machine_parameters(self):
        text = render_table2()
        assert "ROB entries" in text and "256" in text

    def test_table3_lists_benchmarks(self):
        text = render_table3()
        for name in ("gcc", "compress", "m88ksim", "vortex"):
            assert name in text

    def test_table4_latencies(self):
        text = render_table4()
        assert "Level-2 ARVI" in text and "18" in text

    def test_storage_summary_includes_paper_sizing(self):
        text = storage_summary()
        assert "5760 bits" in text
        assert "792 bits" in text


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 2.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.500" in text

    def test_means(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert geometric_mean([1.0, 4.0]) == 2.0
        assert arithmetic_mean([]) == 0.0
        assert geometric_mean([]) == 0.0
