"""The paper's Figure 6 shape, checked in tier-1.

Section 5's headline claims over the ``figure6`` view of the depth-20
slice of the grid (8 workloads x 4 configurations = 32 points at scale
0.03, a few seconds serial): ARVI ``current`` beats the 2Bc-gskew
baseline on mean IPC, m88ksim is among the top two gainers, oracle
(``perfect``) values never trail ``current`` by more than one point of
IPC gain, and ARVI predicts more accurately than the baseline.  The
scale is passed explicitly, so ``REPRO_SCALE`` does not apply.  The
same grid checks that :class:`~repro.experiments.figure6.Figure6Data`
renders the view's numbers, bit for bit.
"""

import statistics

import pytest

from repro.experiments.aggregate import ViewAggregator, build_views
from repro.experiments.figure6 import Figure6Data
from repro.experiments.plan import CONFIGURATIONS, build_plan
from repro.experiments.report import arithmetic_mean
from repro.experiments.scheduler import run_plan
from repro.workloads.registry import BENCHMARKS

DEPTH = 20


@pytest.fixture(scope="module")
def grid():
    """The depth-20 results and the figure6 view their run's sink built."""
    plan = build_plan(CONFIGURATIONS, (DEPTH,), BENCHMARKS, scale=0.03,
                      warmup=1000)
    sink = ViewAggregator()
    results = run_plan(plan, jobs=1, use_cache=False, backend="serial",
                       sink=sink)
    assert len(results) == len(plan) == 32
    sink.mark_done()
    return results, sink.snapshot().views["figure6"]


@pytest.fixture(scope="module")
def figure6(grid):
    _, view = grid
    return (view["depths"][str(DEPTH)],
            view["mean_normalized_ipc"][str(DEPTH)])


def test_current_beats_baseline_on_mean_ipc(figure6):
    _, means = figure6
    assert means["current"] > means["baseline"]


def test_m88ksim_is_a_top_two_gainer(figure6):
    benches, _ = figure6
    gains = {bench: configs["current"]["normalized_ipc"]
             for bench, configs in benches.items()}
    assert "m88ksim" in sorted(gains, key=gains.get)[-2:], gains


def test_perfect_is_within_a_point_of_current(figure6):
    _, means = figure6
    assert means["perfect"] * 100 >= means["current"] * 100 - 1.0, means


def test_arvi_accuracy_beats_baseline(figure6):
    benches, _ = figure6
    accuracy = {config: statistics.fmean(
        configs[config]["accuracy"] for configs in benches.values())
        for config in ("baseline", "current")}
    assert accuracy["current"] > accuracy["baseline"], accuracy


def test_figure6_data_renders_the_view_means(grid):
    """Figure6Data's means are the view's means, which equal the plain
    mean of per-benchmark IPC ratios in sorted-benchmark order — the
    rendered Figure 6 numbers did not move when it moved onto the view."""
    results, view = grid
    data = Figure6Data(DEPTH, build_views(results).views["figure6"])
    ipc = {(point.benchmark, point.configuration): result.ipc
           for point, result in results.items()}
    for config in CONFIGURATIONS:
        direct = arithmetic_mean([
            ipc[(bench, config)] / ipc[(bench, "baseline")]
            for bench in sorted(BENCHMARKS)])
        assert data.mean_normalized_ipc(config) \
            == view["mean_normalized_ipc"][str(DEPTH)][config] == direct
