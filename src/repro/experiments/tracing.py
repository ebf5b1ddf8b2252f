"""What a workload's points share: a recorded trace or wrong-path episodes.

The mechanics of recording and replaying a committed instruction stream
live in :mod:`repro.pipeline.trace`; this module decides *which*
recording a point of the experiment service replays.  Whether a point
replays at all is :attr:`~repro.experiments.plan.ExperimentPoint.replays`
(every ``redirect`` point; ``wrongpath`` points keep the live core).
A ``wrongpath`` point shares its workload's
:class:`~repro.speculation.wrongpath.EpisodeStore` instead, so each
wrong-path episode is synthesized once per workload, not once per
configuration and depth (DESIGN.md §2.2).

* :func:`record_workload` — one functional run of a workload identity
  (benchmark, scale, seed);
* :class:`SharedTraces` — the per-batch/per-sweep pool that records
  each identity once and hands the recording to all of its redirect
  points, and hands one episode store to all of its wrongpath points.

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
from repro.speculation.wrongpath import EpisodeStore
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
    """Per-batch (or per-serial-sweep) pool of what a workload shares.

    ``get`` returns the trace an :func:`~repro.experiments.runner.
    execute_point` call should replay — None for a point that does not
    :attr:`~repro.experiments.plan.ExperimentPoint.replays`; ``episodes``
    returns the episode store a wrongpath point fills and reads — None
    for a point that replays.  A trace is recorded, and a store made, at
    most once per workload identity, and each is dropped from the pool as
    soon as its last consumer has fetched it, bounding memory across long
    serial sweeps to one workload's share.
    """

    def __init__(self, points) -> None:
        self._remaining = Counter((_workload_key(point), point.replays)
                                  for point in points)
        self._traces: dict[tuple, CommittedTrace] = {}
        self._episodes: dict[tuple, EpisodeStore] = {}

    def get(self, point: ExperimentPoint) -> CommittedTrace | None:
        if not point.replays:
            return None
        return self._share(self._traces, point, lambda: record_workload(
            point.benchmark, point.scale, point.seed))

    def episodes(self, point: ExperimentPoint) -> EpisodeStore | None:
        if point.replays:
            return None
        return self._share(self._episodes, point, EpisodeStore)

    def _share(self, pool: dict, point: ExperimentPoint, make):
        key = _workload_key(point)
        remaining = self._remaining[key, point.replays]
        self._remaining[key, point.replays] = remaining - 1
        shared = pool.get(key)
        if shared is None:
            shared = make()
        if remaining > 1:
            pool[key] = shared
        else:
            pool.pop(key, None)
        return shared
