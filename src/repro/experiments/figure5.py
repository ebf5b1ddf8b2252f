"""Paper Figure 5: calculated vs load branches under ARVI current value.

* Figure 5(a): fraction of conditional branches that are *load branches*
  (dependence chain terminating in a pending load) per benchmark, for the
  20/40/60-stage machines.  The paper observes a large fraction that grows
  slightly with pipeline depth.
* Figure 5(b): prediction accuracy of calculated vs load branches on the
  shallowest machine run (20-stage) — calculated branches predict better
  everywhere.

Both panels read the ``figure5`` view (:mod:`repro.experiments.aggregate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.aggregate import build_views
from repro.experiments.cache import ResultCache
from repro.experiments.plan import ExperimentPoint, plan_from_points
from repro.experiments.report import format_table
from repro.experiments.scheduler import ProgressCallback, run_plan
from repro.pipeline.config import PIPELINE_DEPTHS
from repro.workloads.registry import BENCHMARKS


@dataclass
class Figure5Data:
    load_rates: dict[tuple[str, int], float] = field(default_factory=dict)
    calc_accuracy: dict[str, float] = field(default_factory=dict)
    load_accuracy: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_view(cls, view: dict) -> "Figure5Data":
        """Figure 5 from a ``figure5`` view body."""
        return cls(
            load_rates={(bench, int(depth)): rate
                        for bench, rates in view["load_rates"].items()
                        for depth, rate in rates.items()},
            calc_accuracy={bench: split["calculated"]
                           for bench, split in view["accuracy"].items()},
            load_accuracy={bench: split["load"]
                           for bench, split in view["accuracy"].items()})

    def figure5a_rows(self):
        return [
            [bench] + [self.load_rates[(bench, depth)]
                       for depth in PIPELINE_DEPTHS]
            for bench in BENCHMARKS
        ]

    def figure5b_rows(self):
        return [
            [bench, self.load_accuracy[bench], self.calc_accuracy[bench]]
            for bench in BENCHMARKS
        ]

    def render(self) -> str:
        fig_a = format_table(
            ["benchmark", "20-cycle", "40-cycle", "60-cycle"],
            self.figure5a_rows(),
            title="Figure 5(a): fraction of load branches")
        depth = min(depth for _, depth in self.load_rates)
        fig_b = format_table(
            ["benchmark", "load branch", "calc branch"],
            self.figure5b_rows(),
            title=f"Figure 5(b): prediction accuracy by class "
                  f"({depth}-stage)")
        return f"{fig_a}\n\n{fig_b}"


def run_figure5(*, scale: float | None = None, warmup: int | None = None,
                depths=PIPELINE_DEPTHS, benchmarks=BENCHMARKS,
                jobs: int | None = None, cache: ResultCache | None = None,
                use_cache: bool = True,
                progress: ProgressCallback | None = None,
                sink=None) -> Figure5Data:
    plan = plan_from_points(
        ExperimentPoint(benchmark, "current", depth).resolve(
            scale=scale, warmup=warmup)
        for benchmark in benchmarks
        for depth in depths)
    results = run_plan(plan, jobs=jobs, cache=cache, use_cache=use_cache,
                       progress=progress, sink=sink)
    view = build_views(results, views=("figure5",)).views["figure5"]
    return Figure5Data.from_view(view)
