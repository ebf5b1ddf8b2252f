"""Experiment harness tests (small scale — structure, not paper numbers)."""

import pytest

from repro.experiments.aggregate import build_views
from repro.experiments.plan import build_plan
from repro.experiments.report import (
    arithmetic_mean,
    format_table,
    render_figure5,
    render_figure6,
)
from repro.experiments.runner import (
    CONFIGURATIONS,
    ExperimentPoint,
    run_point,
    run_suite,
)
from repro.experiments.scheduler import run_plan
from repro.experiments.tables import (
    render_all,
    render_speculation_modes,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    storage_summary,
)
from repro.workloads.registry import BENCHMARKS

SMALL = dict(scale=0.05, warmup=500)


def views(configurations, depths, benchmarks) -> dict:
    """The figure views of a small grid."""
    results = run_plan(build_plan(configurations, depths, benchmarks,
                                  **SMALL), jobs=1, use_cache=False)
    return build_views(results, views=("figure5", "figure6")).views


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
        view = views(("current",), (20,), ("li", "vortex"))["figure5"]
        assert 0 <= view["load_rates"]["li"]["20"] <= 1
        assert 0 <= view["accuracy"]["li"]["calculated"] <= 1
        # Figure 5(b) is the shallowest machine run, whatever order the
        # depths are given in.
        deep_first = views(("current",), (40, 20),
                           ("li", "vortex"))["figure5"]
        assert deep_first["accuracy"] == view["accuracy"]

    def test_render_contains_benchmarks(self):
        """A slice renders: only the benchmarks and depths it ran."""
        text = render_figure5(
            views(("current",), (20,), ("li", "vortex"))["figure5"])
        assert "li" in text and "vortex" in text and "gcc" not in text
        assert "20-cycle" in text and "40-cycle" not in text
        assert "(20-stage)" in text


class TestFigure6:
    def test_structure_and_normalization(self):
        view = views(CONFIGURATIONS, (20,), ("li",))["figure6"]
        cells = view["depths"]["20"]["li"]
        assert cells["baseline"]["normalized_ipc"] == pytest.approx(1.0)
        for configuration in CONFIGURATIONS:
            assert cells[configuration]["accuracy"] > 0.3
        assert view["mean_normalized_ipc"]["20"]["current"] > 0.3

    def test_render(self):
        text = render_figure6(
            views(("baseline", "current"), (20,), ("li",))["figure6"], 20)
        assert "prediction accuracy" in text
        assert "normalized IPC" in text
        assert "average" in text
        # Only the configurations that ran get a column.
        assert "arvi current" in text and "arvi perfect" not in text


class TestTables:
    def test_table1_lists_access_steps(self):
        text = render_table1()
        assert "RSE" in text and "BVIT" in text

    def test_table2_has_machine_parameters(self):
        text = render_table2()
        assert "ROB entries" in text and "256" in text
        assert "4 ALUs" in text

    def test_table3_lists_benchmarks(self):
        text = render_table3()
        for name in BENCHMARKS:
            assert name in text

    def test_table4_latencies(self):
        """Paper Table 4: ARVI 6/12/18 cycles, the hybrid 2/4/6."""
        rows = {line[:14].strip(): line.split()[-3:]
                for line in render_table4().splitlines()}
        assert rows["Level-2 ARVI"] == ["6", "12", "18"]
        assert rows["Level-2 hybrid"] == ["2", "4", "6"]

    def test_storage_summary_includes_paper_sizing(self):
        text = storage_summary()
        assert "5760 bits" in text
        assert "792 bits" in text

    def test_render_all_regenerates_every_artifact(self):
        """One entry per renderer; ``reproduce`` writes each as a file."""
        assert render_all() == {
            "table1_arvi_access": render_table1(),
            "table2_machine": render_table2(),
            "table3_benchmarks": render_table3(),
            "table4_latencies": render_table4(),
            "section2_sizing": storage_summary(),
            "speculation_modes": render_speculation_modes(),
        }


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 2.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.500" in text

    def test_means(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert arithmetic_mean([]) == 0.0
