"""Regenerate the paper: ``python -m repro.experiments reproduce [--out DIR]``.

One plan — the 96-point Figure 6 grid and the 48 ``wrongpath``
``baseline``/``current`` points of the speculation table — runs once
through :func:`~repro.experiments.scheduler.run_plan`; scale, warmup,
jobs and the cache come from the ``REPRO_*`` settings.  Into ``DIR``
(default ``results/paper/``) go Figure 5, Figure 6 per depth, every
:func:`~repro.experiments.tables.render_all` table, the speculation
table, ``views.json`` (the views every file renders) and ``claims.txt``.
A broken claim exits 1.  Under ``REPRO_OBS=1`` the ledger directory is
printed.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro import obs, settings
from repro.experiments import claims
from repro.experiments.aggregate import build_views, canonical_json
from repro.experiments.plan import (
    CONFIGURATIONS,
    ExperimentPlan,
    build_plan,
    plan_from_points,
)
from repro.experiments.report import render_figure5, render_figure6
from repro.experiments.scheduler import ProgressEvent, run_plan
from repro.experiments.tables import render_all
from repro.pipeline.config import PIPELINE_DEPTHS
from repro.workloads.registry import BENCHMARKS

#: The configurations of the speculation table.
SPECULATION_CONFIGS = ("baseline", "current")


def paper_plan() -> ExperimentPlan:
    """The Figure 6 grid and the wrong-path speculation table, as one plan."""
    grid = build_plan(CONFIGURATIONS, PIPELINE_DEPTHS, BENCHMARKS)
    wrongpath = build_plan(SPECULATION_CONFIGS, PIPELINE_DEPTHS, BENCHMARKS,
                           speculation="wrongpath")
    return plan_from_points([*grid, *wrongpath])


def write_artifacts(results: dict,
                    out: pathlib.Path) -> list[claims.Outcome]:
    """Render every artifact of ``results`` into ``out``; the claims.

    The figure views take the ``redirect`` results, the speculation view
    every ``baseline``/``current`` result of both modes."""
    redirect = {point: result for point, result in results.items()
                if point.speculation == "redirect"}
    views = dict(build_views(redirect, views=("figure5", "figure6")).views)
    views["speculation"] = build_views(
        {point: result for point, result in results.items()
         if point.configuration in SPECULATION_CONFIGS},
        views=("speculation",)).views["speculation"]
    outcomes = claims.evaluate(views["figure5"], views["figure6"])
    files = {
        "figure5.txt": render_figure5(views["figure5"]),
        **{f"figure6_depth{depth}.txt":
           render_figure6(views["figure6"], int(depth))
           for depth in views["figure6"]["depths"]},
        **{f"{name}.txt": text for name, text in render_all().items()},
        "speculation_table.txt": views["speculation"]["rendered"],
        "views.json": canonical_json(views),
        "claims.txt": claims.render_report(outcomes, views["figure6"]),
    }
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text + "\n")
    return outcomes


def _progress(event: ProgressEvent) -> None:
    point = event.point
    print(f"[{event.completed}/{event.total}] {point.benchmark}/"
          f"{point.configuration}/{point.pipeline_depth}/"
          f"{point.speculation} ({event.source}, {event.elapsed:.1f}s)",
          flush=True)


def reproduce(out: pathlib.Path) -> int:
    """Run the paper plan, write its artifacts; 1 if a claim is broken."""
    telemetry = (obs.start_run(label="reproduce")
                 if settings.current().obs else None)
    try:
        results = run_plan(paper_plan(), progress=_progress)
    finally:
        if telemetry is not None:
            obs.close_run(telemetry)
            print(f"ledger: {telemetry.run_dir}")
    outcomes = write_artifacts(results, out)
    print(f"\nartifacts in {out}\n")
    print((out / "claims.txt").read_text(), end="")
    broken = [outcome for outcome in outcomes
              if outcome.status == claims.BROKEN]
    for outcome in broken:
        print(f"BROKEN: {outcome.claim.label} ({outcome.detail})",
              file=sys.stderr)
    return 1 if broken else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures, tables and claims.")
    command = parser.add_subparsers(dest="command", required=True) \
        .add_parser("reproduce", help="run the paper plan once and write "
                                      "its artifacts")
    command.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="output directory (default: results/paper/)")
    args = parser.parse_args(argv)
    return reproduce(args.out or settings.results_dir("paper"))


if __name__ == "__main__":
    sys.exit(main())
