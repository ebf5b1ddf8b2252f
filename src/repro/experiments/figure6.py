"""Paper Figure 6: prediction accuracy and normalized IPC, 4 configs x 3 depths.

For each pipeline depth (20/40/60), the paper plots per benchmark:

* (a,c,e) prediction accuracy of the two-level 2Bc-gskew baseline and the
  three ARVI configurations (current value / load back / perfect value);
* (b,d,f) IPC normalized to the two-level baseline, with the suite
  average as the headline (paper: +12.6% at 20 stages for current value,
  +15.6% at 60 stages).

Every series and mean is read from the ``figure6`` view
(:mod:`repro.experiments.aggregate`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.aggregate import build_views
from repro.experiments.cache import ResultCache
from repro.experiments.plan import build_plan
from repro.experiments.report import format_table
from repro.experiments.runner import CONFIGURATIONS
from repro.experiments.scheduler import ProgressCallback, run_plan
from repro.workloads.registry import BENCHMARKS


@dataclass
class Figure6Data:
    """One depth of Figure 6 over a ``figure6`` view body."""

    depth: int
    view: dict

    # -- series ------------------------------------------------------------

    def _cells(self) -> dict:
        return self.view["depths"][str(self.depth)]

    def accuracy(self, benchmark: str, configuration: str) -> float:
        return self._cells()[benchmark][configuration]["accuracy"]

    def normalized_ipc(self, benchmark: str, configuration: str) -> float:
        return self._cells()[benchmark][configuration]["normalized_ipc"]

    def benchmarks(self) -> list[str]:
        return sorted(self._cells())

    def mean_normalized_ipc(self, configuration: str) -> float:
        return self.view["mean_normalized_ipc"][str(self.depth)][
            configuration]

    def mean_ipc_gain_percent(self, configuration: str) -> float:
        return 100.0 * (self.mean_normalized_ipc(configuration) - 1.0)

    # -- rendering ----------------------------------------------------------

    def accuracy_rows(self):
        return [
            [bench] + [self.accuracy(bench, config)
                       for config in CONFIGURATIONS]
            for bench in self.benchmarks()
        ]

    def ipc_rows(self):
        rows = [
            [bench] + [self.normalized_ipc(bench, config)
                       for config in CONFIGURATIONS]
            for bench in self.benchmarks()
        ]
        rows.append(["average"] + [self.mean_normalized_ipc(config)
                                   for config in CONFIGURATIONS])
        return rows

    def render(self) -> str:
        headers = ["benchmark", "2-level gskew", "arvi current",
                   "arvi load back", "arvi perfect"]
        acc = format_table(
            headers, self.accuracy_rows(),
            title=f"Figure 6: prediction accuracy, {self.depth}-stage",
            float_format="{:.4f}")
        ipc = format_table(
            headers, self.ipc_rows(),
            title=f"Figure 6: normalized IPC, {self.depth}-stage")
        return f"{acc}\n\n{ipc}"


def run_figure6(depth: int, *, scale: float | None = None,
                warmup: int | None = None,
                benchmarks=BENCHMARKS,
                configurations=CONFIGURATIONS,
                jobs: int | None = None, cache: ResultCache | None = None,
                use_cache: bool = True,
                progress: ProgressCallback | None = None,
                sink=None) -> Figure6Data:
    plan = build_plan(configurations, (depth,), benchmarks, scale=scale,
                      warmup=warmup)
    results = run_plan(plan, jobs=jobs, cache=cache, use_cache=use_cache,
                       progress=progress, sink=sink)
    view = build_views(results, views=("figure6",)).views["figure6"]
    return Figure6Data(depth, view)
