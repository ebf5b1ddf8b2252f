"""Trace acquisition: which recording a redirect point replays.

The mechanics of recording and replaying a committed instruction stream
live in :mod:`repro.pipeline.trace`; this module decides *which*
recording a point of the experiment service replays.  Whether a point
replays at all is :attr:`~repro.experiments.plan.ExperimentPoint.replays`
(every ``redirect`` point; ``wrongpath`` points keep the live core).

* :func:`record_workload` — one functional run of a workload identity
  (benchmark, scale, seed);
* :class:`SharedTraces` — the per-batch/per-sweep pool that records
  each identity once and hands the recording to all of its redirect
  points.

Changing this module never changes a simulation outcome (kernel == live
bit for bit, enforced by the equality suite), so like the rest of the
experiment harness it is excluded from the result-cache fingerprint.
"""

from __future__ import annotations

from collections import Counter

from repro import obs
from repro.experiments.plan import ExperimentPoint
from repro.pipeline.functional import DEFAULT_MAX_INSTRUCTIONS
from repro.pipeline.trace import CommittedTrace, TraceRecorder
from repro.workloads.registry import get_program


def record_workload(benchmark: str, scale: float, seed: int,
                    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                    ) -> CommittedTrace:
    """Record a workload's committed trace (one functional run)."""
    program = get_program(benchmark, scale=scale, seed=seed)
    with obs.span("record", kind="phase", attrs={
            "phase": "record", "benchmark": benchmark}):
        return TraceRecorder(program).record(max_instructions)


def _workload_key(point: ExperimentPoint) -> tuple[str, float | None, int]:
    return (point.benchmark, point.scale, point.seed)


class SharedTraces:
    """Per-batch (or per-serial-sweep) committed-trace pool.

    ``get`` returns the trace an :func:`~repro.experiments.runner.
    execute_point` call should replay — None for a point that does not
    :attr:`~repro.experiments.plan.ExperimentPoint.replays`.  A trace
    is recorded at most once per workload identity and dropped from the
    pool as soon as its last consumer has fetched it, bounding memory
    across long serial sweeps.
    """

    def __init__(self, points) -> None:
        self._remaining = Counter(_workload_key(point) for point in points
                                  if point.replays)
        self._traces: dict[tuple, CommittedTrace] = {}

    def get(self, point: ExperimentPoint) -> CommittedTrace | None:
        if not point.replays:
            return None
        key = _workload_key(point)
        remaining = self._remaining[key]
        self._remaining[key] = remaining - 1
        trace = self._traces.get(key)
        if trace is None:
            trace = record_workload(point.benchmark, point.scale, point.seed)
        if remaining > 1:
            self._traces[key] = trace
        else:
            self._traces.pop(key, None)
        return trace
