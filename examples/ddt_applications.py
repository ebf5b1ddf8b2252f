#!/usr/bin/env python3
"""The Section 3 applications of on-line dependence tracking, in one tour.

Runs the ``li`` workload with every observer attached, then exercises the
standalone application models:

1. chain-length statistics (the per-row DDT counters);
2. criticality detection via chain length vs measured slack;
3. branch-decoupled (BEX) chain extraction;
4. selective value prediction site selection;
5. chain-length-aware issue scheduling;
6. SMT fetch policies (ICOUNT vs chain metrics).

Run:  python examples/ddt_applications.py
"""

from repro.applications import (
    BexExtractor,
    ChainLengthObserver,
    CriticalityObserver,
    run_selective_value_prediction,
)
from repro.applications.scheduling import compare_policies as sched_policies
from repro.applications.smt_fetch import compare_policies as smt_policies
from repro.pipeline.config import machine_for_depth
from repro.pipeline.engine import PipelineEngine, build_predictor
from repro.predictors.twolevel import LevelTwoKind
from repro.workloads.registry import get_program


def main() -> None:
    program = get_program("li", scale=0.4)
    machine = machine_for_depth(20)

    chains = ChainLengthObserver()
    criticality = CriticalityObserver()
    bex = BexExtractor(max_chain=8)
    predictor = build_predictor(LevelTwoKind.HYBRID, machine)
    engine = PipelineEngine(program, machine, predictor,
                            observers=[chains, criticality, bex])
    result = engine.run()
    print(f"ran li: {result.total_instructions} instructions, "
          f"IPC {result.ipc:.3f}\n")

    print("1. dependence chain lengths (DDT row counters)")
    stats = chains.stats
    print(f"   mean chain {stats.mean():.2f}, "
          f"median {stats.percentile(0.5)}, "
          f"p90 {stats.percentile(0.9)}; "
          f"loads {stats.mean_for(stats.load_histogram):.2f}, "
          f"branches {stats.mean_for(stats.branch_histogram):.2f}\n")

    print("2. criticality detection (chain length vs commit slack)")
    print(f"   {criticality.report()}\n")

    print("3. branch-decoupled execution (BEX) chain extraction")
    report = bex.report
    print(f"   {report.branches} branches, mean chain "
          f"{report.mean_chain_length():.2f}, "
          f"{100 * report.decoupleable_fraction:.0f}% decoupleable "
          f"(chain <= 8)\n")

    print("4. selective value prediction (Calder-style selection)")
    selection = run_selective_value_prediction(program, threshold=3,
                                               max_instructions=60_000)
    print(f"   {selection.selected_sites}/{selection.total_sites} sites "
          f"selected, {100 * selection.coverage:.0f}% dynamic coverage; "
          f"last-value accuracy {selection.selected_accuracy:.3f} on "
          f"selected vs {selection.overall_accuracy:.3f} overall\n")

    print("5. chain-length-aware issue scheduling (makespans, width 2)")
    print(f"   {sched_policies(size=240, width=2, seed=1)}\n")

    print("6. SMT fetch policies (throughput, 4 threads)")
    throughputs = smt_policies(cycles=3000)
    for policy, value in throughputs.items():
        print(f"   {policy:12s} {value:.3f} instructions/cycle")


if __name__ == "__main__":
    main()
