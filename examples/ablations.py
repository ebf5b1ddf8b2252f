#!/usr/bin/env python3
"""Ablations of the ARVI design choices (DESIGN.md §5), with checks.

Depth tag (Section 4.5): m88ksim predicts worse without it.  Id tag
(Section 4.4): never hurts much on average.  BVIT allocation filtering
and the confidence threshold: reported only.  BVIT geometry:
direct-mapped does no better than 4-way.  Chain-length-aware issue
scheduling (Section 3): at least as good as oldest-first.  An extension
study, not a paper artifact; ``REPRO_SCALE`` / ``REPRO_WARMUP`` set the
windows, and the depth-tag check needs scale 0.3 or more.

Run:  python examples/ablations.py
"""

from repro.applications.scheduling import compare_policies
from repro.core.arvi import ARVIConfig, ValueMode
from repro.experiments import (
    ExperimentPoint,
    format_table,
    run_point,
    run_suite,
)
from repro.pipeline.config import machine_for_depth
from repro.pipeline.engine import PipelineEngine, build_predictor
from repro.predictors.confidence import ConfidenceEstimator
from repro.predictors.twolevel import LevelTwoKind
from repro.settings import current
from repro.workloads.registry import get_program

ABLATION_BENCHMARKS = ("m88ksim", "li", "compress")


def accuracies(arvi_config=None) -> dict[str, float]:
    """ARVI current-value accuracy per ablation benchmark, 20-stage."""
    grid = run_suite(configurations=("current",),
                     benchmarks=ABLATION_BENCHMARKS, arvi_config=arvi_config)
    return {name: grid[(name, "current", 20)].prediction_accuracy
            for name in ABLATION_BENCHMARKS}


def compare(title: str, label: str, variant: ARVIConfig) -> list[list]:
    """Default ARVI vs ``variant`` on every ablation benchmark."""
    default, other = accuracies(), accuracies(variant)
    rows = [[name, default[name], other[name]]
            for name in ABLATION_BENCHMARKS]
    print(format_table(["benchmark", "default", label], rows, title=title,
                       float_format="{:.4f}"), end="\n\n")
    return rows


def with_confidence(threshold: int):
    """m88ksim with a custom confidence estimator.  The experiment
    service does not key on the estimator, so build the engine here."""
    knobs = current()
    config = machine_for_depth(20)
    predictor = build_predictor(LevelTwoKind.ARVI, config)
    predictor.confidence = ConfidenceEstimator(threshold=threshold)
    return PipelineEngine(get_program("m88ksim", scale=knobs.scale), config,
                          predictor, value_mode=ValueMode.CURRENT,
                          warmup_instructions=knobs.warmup).run()


def main() -> None:
    rows = compare("Ablation: chain-depth tag (Section 4.5)",
                   "without depth tag", ARVIConfig(use_depth_tag=False))
    by_name = {row[0]: row for row in rows}
    assert by_name["m88ksim"][1] > by_name["m88ksim"][2], by_name["m88ksim"]

    rows = compare("Ablation: register-set id tag (Section 4.4)",
                   "without id tag", ARVIConfig(use_id_tag=False))
    mean_with = sum(row[1] for row in rows) / len(rows)
    mean_without = sum(row[2] for row in rows) / len(rows)
    assert mean_with >= mean_without - 0.01, (mean_with, mean_without)

    compare("Ablation: BVIT allocation filtering (Section 5)",
            "open allocation", ARVIConfig(allocate_only_hard=False))

    rows = []
    for threshold in (4, 8, 14):
        result = with_confidence(threshold)
        rows.append([threshold, result.prediction_accuracy, result.ipc])
    print(format_table(["threshold", "accuracy", "IPC"], rows,
                       title="Ablation: confidence threshold (m88ksim)",
                       float_format="{:.4f}"), end="\n\n")

    geometry = {}
    for sets, ways in ((256, 4), (1024, 4), (2048, 4), (2048, 1)):
        result = run_point(ExperimentPoint("m88ksim", "current", 20),
                           arvi_config=ARVIConfig(
                               sets=sets, ways=ways,
                               index_bits=max(4, sets.bit_length() - 1)))
        geometry[f"{sets}x{ways}"] = [result.prediction_accuracy,
                                      result.bvit_hit_rate]
    print(format_table(["geometry", "accuracy", "BVIT hit rate"],
                       [[name, *row] for name, row in geometry.items()],
                       title="Ablation: BVIT geometry (m88ksim)",
                       float_format="{:.4f}"), end="\n\n")
    assert geometry["2048x4"][0] >= geometry["2048x1"][0] - 0.005, geometry

    rows = []
    for seed in range(6):
        makespans = compare_policies(size=240, width=2, seed=seed)
        rows.append([seed, makespans["oldest-first"],
                     makespans["chain-priority"], makespans["random"]])
    print(format_table(["seed", "oldest-first", "chain-priority", "random"],
                       rows, title="Ablation: chain-length-aware issue "
                                   "scheduling (Section 3)"))
    assert sum(row[2] for row in rows) <= sum(row[1] for row in rows), rows
    print("\nall ablation checks hold")


if __name__ == "__main__":
    main()
