"""Trace acquisition policy: when the experiment service records a trace.

The mechanics of recording and replaying a committed instruction stream
live in :mod:`repro.pipeline.trace`; this module decides *when* the
experiment service uses them:

* ``REPRO_TRACE`` (:attr:`repro.settings.Settings.trace`, default on)
  shares one in-memory recording across the redirect points of a worker
  batch or serial sweep; ``REPRO_TRACE=0`` disables replay entirely.
* :func:`amortized_workloads` — the one trace-amortization rule.
  Recording costs one functional run, so a trace is only recorded when
  it will amortize: at least two redirect points of the same workload
  identity (benchmark, scale, seed).  Wrong-path points always keep the
  live core — wrong-path synthesis reads live architectural state.
* :class:`SharedTraces` — the per-batch/per-sweep pool that applies the
  rule.

A redirect point with a trace replays through the compiled kernel
(:mod:`repro.pipeline.kernel`); without one it runs on the live engine.
Changing this module never changes a simulation outcome (kernel == live
bit for bit, enforced by the equality suite), so like the rest of the
experiment harness it is excluded from the result-cache fingerprint.
"""

from __future__ import annotations

from collections import Counter

from repro import obs, settings
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


def _redirect_counts(points) -> Counter:
    return Counter(_workload_key(point) for point in points
                   if point.speculation == "redirect")


def amortized_workloads(points) -> list[tuple[str, float | None, int]]:
    """Workload identities whose committed trace is worth recording.

    The one place the amortization rule lives: record when at least two
    ``redirect`` points share a (benchmark, scale, seed) identity; never
    with ``REPRO_TRACE=0``.  First-appearance order.
    """
    if not settings.current().trace:
        return []
    return [key for key, count in _redirect_counts(points).items()
            if count >= 2]


class SharedTraces:
    """Per-batch (or per-serial-sweep) committed-trace pool.

    ``get`` returns the trace an :func:`~repro.experiments.runner.
    execute_point` call should replay, or None for a live run.  A trace
    is recorded at most once per workload identity and dropped from the
    pool as soon as its last consumer has fetched it, bounding memory
    across long serial sweeps.
    """

    def __init__(self, points) -> None:
        points = list(points)
        self._record = amortized_workloads(points)
        self._remaining = _redirect_counts(points)
        self._traces: dict[tuple, CommittedTrace] = {}

    def get(self, point: ExperimentPoint) -> CommittedTrace | None:
        key = _workload_key(point)
        if point.speculation != "redirect" or key not in self._record:
            return None
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
