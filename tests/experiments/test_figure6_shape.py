"""The paper's claims on the depth-20 slice of the grid, in tier-1.

The depth-20 grid (8 workloads x 4 configurations = 32 points at scale
0.03, a few seconds serial) through :mod:`repro.experiments.claims`:
every Section 5 claim at depth 20 holds — ARVI ``current`` beats the
2Bc-gskew baseline on mean IPC and on accuracy, m88ksim is among the top
two gainers, load back lies between current and perfect, and the Figure
5 load vs calculated split — and the claims that need depth 40 or 60
are not evaluated.  The scale is passed explicitly, so ``REPRO_SCALE``
does not apply.  The same grid checks that the rendered Figure 6 shows
the view's numbers and that ``reproduce`` writes every artifact.
"""

import pathlib

import pytest

from repro.experiments import __main__ as command
from repro.experiments.aggregate import (
    ViewAggregator,
    build_views,
    canonical_json,
)
from repro.experiments.claims import (
    CLAIMS,
    HOLDS,
    M88KSIM,
    NOT_EVALUATED,
    evaluate,
)
from repro.experiments.plan import CONFIGURATIONS, build_plan
from repro.experiments.report import arithmetic_mean, render_figure6
from repro.experiments.scheduler import run_plan
from repro.experiments.tables import render_all
from repro.workloads.registry import BENCHMARKS

DEPTH = 20
SCALE, WARMUP = 0.03, 1000


@pytest.fixture(scope="module")
def grid():
    """The depth-20 results and the views their run's sink built."""
    plan = build_plan(CONFIGURATIONS, (DEPTH,), BENCHMARKS, scale=SCALE,
                      warmup=WARMUP)
    sink = ViewAggregator()
    results = run_plan(plan, jobs=1, use_cache=False, backend="serial",
                       sink=sink)
    assert len(results) == len(plan) == 32
    sink.mark_done()
    return results, sink.snapshot().views


@pytest.fixture(scope="module")
def outcomes(grid):
    _, views = grid
    return {outcome.claim: outcome
            for outcome in evaluate(views["figure5"], views["figure6"])}


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.label)
def test_depth20_claims(outcomes, claim):
    """Claims on depth 20 alone hold, the rest are not evaluated.  The
    m88ksim case study is evaluated, but its accuracy thresholds hold
    from scale 0.3 up: at 0.03 m88ksim measures ~2.3k instructions
    (DESIGN.md §2.7)."""
    outcome = outcomes[claim]
    if claim.depth not in (None, DEPTH) or "depth 60" in claim.name:
        assert outcome.status == NOT_EVALUATED
    elif claim.section == M88KSIM:
        assert outcome.status != NOT_EVALUATED
    else:
        assert outcome.status == HOLDS, outcome.detail


def test_figure6_renders_the_view_means(grid):
    """The view's means equal the plain mean of per-benchmark IPC ratios
    in sorted-benchmark order, and the rendered average row shows them."""
    results, views = grid
    means = views["figure6"]["mean_normalized_ipc"][str(DEPTH)]
    ipc = {(point.benchmark, point.configuration): result.ipc
           for point, result in results.items()}
    for config in CONFIGURATIONS:
        assert means[config] == arithmetic_mean([
            ipc[(bench, config)] / ipc[(bench, "baseline")]
            for bench in sorted(BENCHMARKS)])
    average = next(line for line in render_figure6(views["figure6"], DEPTH)
                   .splitlines() if line.startswith("average"))
    assert average.split()[1:] == [f"{means[config]:.3f}"
                                   for config in CONFIGURATIONS]


def test_reproduce_writes_every_artifact(grid, tmp_path):
    """``reproduce``'s writer over the grid plus two ``li`` wrong-path
    points: every file exists, and ``views.json`` is the canonical JSON
    of the redirect figure views and the speculation view of both
    modes."""
    results, _ = grid
    wrongpath = run_plan(
        build_plan(("baseline", "current"), (DEPTH,), ("li",), scale=SCALE,
                   warmup=WARMUP, speculation="wrongpath"),
        jobs=1, use_cache=False)
    combined = {**results, **wrongpath}
    outcomes = command.write_artifacts(combined, tmp_path)

    expected = {"figure5.txt", f"figure6_depth{DEPTH}.txt",
                "speculation_table.txt", "views.json", "claims.txt",
                *(f"{name}.txt" for name in render_all())}
    assert {path.name for path in tmp_path.iterdir()} == expected
    figures = build_views(results, views=("figure5", "figure6")).views
    speculation = build_views(
        {point: result for point, result in combined.items()
         if point.configuration in ("baseline", "current")},
        views=("speculation",)).views["speculation"]
    assert (tmp_path / "views.json").read_text() == canonical_json(
        {**figures, "speculation": speculation}) + "\n"
    assert len(speculation["rows"]) == 16 + 2     # both modes
    assert [outcome.claim for outcome in outcomes] == list(CLAIMS)
    assert (tmp_path / f"figure6_depth{DEPTH}.txt").read_text() \
        == render_figure6(figures["figure6"], DEPTH) + "\n"


def test_reproduce_command(tmp_path, monkeypatch, capsys):
    """The command over a two-point stand-in plan: no claim is
    evaluated, so none is broken and it exits 0; under ``REPRO_OBS=1``
    it prints the run's ledger directory."""
    monkeypatch.setattr(command, "paper_plan", lambda: build_plan(
        ("baseline", "current"), (DEPTH,), ("li",), scale=0.01, warmup=50))
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert command.main(["reproduce", "--out", str(tmp_path)]) == 0
    ledger = capsys.readouterr().out.split("ledger: ")[1].splitlines()[0]
    assert (pathlib.Path(ledger) / "ledger.jsonl").is_file()
    assert (tmp_path / "claims.txt").is_file()
