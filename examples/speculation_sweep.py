#!/usr/bin/env python3
"""Speculation-mode depth sweep: redirect vs. materialized wrong path.

Runs the m88ksim hybrid and ARVI(current) configurations at 20/40/60
stages in *both* speculation modes, as one plan, and prints the
``speculation`` view's table — how much speculative work a mispredicted
branch wastes, and what it does to the caches, as the pipeline deepens
(cf. Mittal's survey, arXiv:1804.00261, on wrong-path effects being
first-order).

Each mode has its own cache keys, so warm re-runs replay instantly; set
``REPRO_CACHE=0`` to force recomputation.  ``REPRO_SCALE`` / ``REPRO_JOBS``
are honoured as everywhere else (CI's ``reproduce`` job runs this script
at scale 0.3).

Run:  python examples/speculation_sweep.py
"""

from repro.experiments import build_plan, plan_from_points, run_plan
from repro.experiments.aggregate import build_views
from repro.pipeline.config import PIPELINE_DEPTHS
from repro.speculation import SPECULATION_MODES

BENCHMARKS = ("m88ksim",)
CONFIGURATIONS = ("baseline", "current")


def main() -> None:
    plan = plan_from_points(
        point for mode in SPECULATION_MODES
        for point in build_plan(CONFIGURATIONS, PIPELINE_DEPTHS, BENCHMARKS,
                                speculation=mode))
    results = run_plan(plan, progress=lambda e: print(
        f"  [{e.completed}/{e.total}] {e.point.benchmark}/"
        f"{e.point.configuration}/{e.point.pipeline_depth}/"
        f"{e.point.speculation} ({e.source}, {e.elapsed:.1f}s)"))
    print()
    print(build_views(results, views=("speculation",))
          .views["speculation"]["rendered"])
    print("\nExpected shape: deeper pipelines resolve branches later, so")
    print("each misprediction drags more wrong-path instructions through")
    print("the frontend and leaves more speculative fills in the caches.")


if __name__ == "__main__":
    main()
