#!/usr/bin/env python3
"""History-based predictors vs ARVI (the paper's Section 7 context).

The paper argues that history and path predictors are reaching the
limit of their input information.  This runs bimodal, gshare, a
local-history two-level predictor [36], Bi-Mode [21] and 2Bc-gskew [26]
as single-level predictors, then two-level ARVI, and asserts that ARVI's
value information beats every history organization.  An extension
study, not a paper artifact; ``REPRO_SCALE`` / ``REPRO_WARMUP`` set the
windows.

Run:  python examples/related_predictors.py
"""

from repro.experiments import arithmetic_mean, format_table, run_suite
from repro.pipeline.config import machine_for_depth
from repro.pipeline.engine import PipelineEngine
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.bimode import BiModePredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.gskew import TwoBcGskew
from repro.predictors.local import LocalHistoryPredictor
from repro.predictors.twolevel import LevelTwoKind, TwoLevelPredictor
from repro.settings import current
from repro.workloads.registry import get_program

SUITE = ("compress", "go", "li", "m88ksim", "perl")

SINGLE_LEVEL = (
    ("bimodal", lambda: BimodalPredictor(16384)),
    ("gshare", lambda: GsharePredictor(16384)),
    ("local 2-level", lambda: LocalHistoryPredictor(4096, 12)),
    ("bi-mode", lambda: BiModePredictor(8192)),
    ("2Bc-gskew", lambda: TwoBcGskew(8192)),
)


def main() -> None:
    knobs = current()
    config = machine_for_depth(20)
    rows = []
    for label, factory in SINGLE_LEVEL:
        accuracies = []
        for name in SUITE:
            predictor = TwoLevelPredictor(factory(), LevelTwoKind.NONE)
            engine = PipelineEngine(
                get_program(name, scale=knobs.scale), config, predictor,
                warmup_instructions=knobs.warmup)
            accuracies.append(engine.run().prediction_accuracy)
        rows.append([label, *accuracies, arithmetic_mean(accuracies)])
    grid = run_suite(configurations=("current",), benchmarks=SUITE)
    accuracies = [grid[(name, "current", 20)].prediction_accuracy
                  for name in SUITE]
    rows.append(["2-level ARVI", *accuracies, arithmetic_mean(accuracies)])
    print(format_table(
        ["predictor", *SUITE, "mean"], rows,
        title="Prediction accuracy: history-based baselines vs ARVI "
              "(20-stage)", float_format="{:.4f}"))

    means = {row[0]: row[-1] for row in rows}
    history = [mean for name, mean in means.items() if name != "2-level ARVI"]
    # ARVI's value information leads every history organization.
    assert means["2-level ARVI"] > max(history), means
    assert means["2Bc-gskew"] >= means["bimodal"], means
    print("\nall related-predictor checks hold")


if __name__ == "__main__":
    main()
