"""Experiment scheduling: execution of a plan, serially or on a pool.

:func:`run_plan` takes an :class:`~repro.experiments.plan.ExperimentPlan`
and executes every point that is not already in the result cache.  The
*where* is one of two functions in :mod:`repro.experiments.backends` —
in-process (``backend="serial"``) or a local ``ProcessPoolExecutor``
(``backend="local"``); ``backend=None`` runs serially for one worker
(``REPRO_JOBS=1``) and on the local pool otherwise.
Point keys, cache bytes and progress events are identical on both
backends.  This process is the only writer of the cache, the progress
stream and the ledger: a pool worker sends each finished point (and
each ledger line) over one channel as it finishes, and the scheduler
caches the result, hands it to the sink and then emits its progress
event, in that order on both backends.

**In-worker batching** (default on): pending points are
grouped by workload identity — ``(benchmark, scale, seed)``, the
arguments of :func:`~repro.workloads.registry.get_program` — and each
worker receives a contiguous *batch* of same-benchmark points in one
submission.  The worker builds (and pre-decodes) the shared ``Program``
once per batch and amortizes the per-task overhead across the batch.
Batches never mix benchmarks, point keys and cache contents are exactly
those of per-point execution, and one failing point inside a batch does
not discard its siblings' completed results.  ``batch=False`` restores
one-point-per-task submission.

**Trace sharing** (DESIGN.md §8): within a batch — and across a serial
sweep — the ``redirect`` points of one workload identity share a single
recorded committed-instruction trace (:mod:`repro.experiments.tracing`)
and replay it through the compiled kernel.  ``wrongpath`` points keep
the live core.

Determinism: every point is an independent, fully seeded simulation, and
every result — computed serially, in a pool worker, replayed from a
shared trace, or replayed from the cache — passes through the same
``SimulationResult.to_dict``/``from_dict`` round trip, so the returned
objects are bit-for-bit equal (``==``) no matter which path produced
them (enforced by the cross-backend differential suite).

Progress is streamed through an optional callback receiving one
:class:`ProgressEvent` per completed point, in completion order, with a
monotone ``completed`` counter.  Failures are collected per point and
the first one is raised once the grid has drained — completed siblings
always reach the cache first, and a pool worker that dies mid-batch
loses only the points it had not finished; the raised error carries one
``also failed`` note per other failure, and each failure is also a
``kind="error"`` ledger event and a ``status`` view entry.  The cache
is also the resume store: a killed grid rerun with the same plan and
cache recomputes only the points that never reached it — never one that
got a progress event.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro import obs, settings
from repro.experiments.backends import (
    _make_batches,
    resolve_backend,
    run_pool,
    run_serial,
)
from repro.experiments.cache import ResultCache, default_cache
from repro.experiments.plan import (
    ExperimentPlan,
    ExperimentPoint,
    plan_from_points,
    point_key,
)
from repro.pipeline.stats import SimulationResult

__all__ = [
    "ProgressCallback",
    "ProgressEvent",
    "run_plan",
    "run_points",
]


@dataclass(frozen=True)
class ProgressEvent:
    """One completed point, streamed to the progress callback."""

    point: ExperimentPoint
    key: str
    completed: int            # points done so far (including this one)
    total: int                # points in the plan
    source: str               # "cache" | "serial" | "worker"
    elapsed: float            # seconds since run_plan started
    batch_id: str | None = None   # worker batch the point travelled in
    batch_size: int = 1           # points in that batch
    #: Always "point" (a completed point); a batch's one-time trace
    #: lowering is part of its first kernel point's ``duration``.
    phase: str = "point"
    #: Wall-clock time the event was emitted (``time.time()``); pairs
    #: with the monotonic ``elapsed`` for cross-process correlation.
    timestamp: float = 0.0
    #: Seconds this point's simulation took, as the backend that ran it
    #: measured it (pool workers send it with the result).  None for
    #: cache hits.
    duration: float | None = None


ProgressCallback = Callable[[ProgressEvent], None]


class _PlanReport:
    """What :func:`~repro.experiments.backends.run_serial` and
    :func:`~repro.experiments.backends.run_pool` report to, in the
    parent process.

    ``deliver`` (a point finished: its result payload and compute
    seconds; once per point) caches the result, feeds the sink and then
    emits the progress event, in that order on both backends.  ``fail``
    collects a point's failure or, with ``index=None``, a whole batch's
    (a dead pool worker): the points of that batch not yet reported are
    what it lost.  The first failure is raised after the grid drains.
    """

    def __init__(self, batches: dict[str, tuple[ExperimentPoint, ...]],
                 deliver) -> None:
        self._batches = batches
        self._deliver = deliver    # (point, payload, batch_id, size, secs)
        self._reported: set[tuple[str, int]] = set()
        #: ``(label, point or None, error)`` per failure, first first.
        self.failures: list[tuple[str, ExperimentPoint | None,
                                  Exception]] = []

    def deliver(self, batch_id: str, index: int, payload: dict,
                duration: float) -> None:
        group = self._batches[batch_id]
        self._reported.add((batch_id, index))
        self._deliver(group[index], payload, batch_id, len(group),
                      duration)

    def fail(self, batch_id: str, index: int | None,
             error: Exception) -> None:
        group = self._batches[batch_id]
        if index is None:
            rest = [point for at, point in enumerate(group)
                    if (batch_id, at) not in self._reported]
            if not rest:
                return          # every point reached the parent already
            point = None
            label = (f"{batch_id} (unfinished: "
                     + ", ".join(map(_describe, rest)) + ")")
        else:
            self._reported.add((batch_id, index))
            point = group[index]
            label = _describe(point)
        self.failures.append((label, point, error))


def run_plan(plan: ExperimentPlan, *, jobs: int | None = None,
             cache: ResultCache | None = None, use_cache: bool = True,
             progress: ProgressCallback | None = None,
             batch: bool | None = None,
             backend: str | None = None,
             sink=None,
             ) -> dict[ExperimentPoint, SimulationResult]:
    """Execute a plan; returns {resolved point -> result}.

    ``cache=None`` with ``use_cache=True`` uses the default store (honours
    ``REPRO_CACHE`` / ``REPRO_CACHE_DIR``); pass ``use_cache=False`` to
    force recomputation without touching any store.  ``batch=None``
    (or ``True``) sends same-benchmark points to workers in batches;
    ``batch=False`` submits one point per task.
    ``backend`` is ``"serial"``, ``"local"`` or ``None`` (serial for one
    worker or one pending point, the local pool otherwise); any other
    value raises ``ValueError``.  Each delivered point is written to
    the cache at once, so a killed grid restarted with the same plan
    and cache replays every point that reached it (``source="cache"``
    events) and executes only the remainder, converging to
    bit-identical results.

    ``sink`` attaches a view aggregator (duck-typed; see
    :class:`~repro.experiments.aggregate.ViewAggregator`): it receives
    the plan (``on_plan``), every :class:`ProgressEvent`
    (``on_progress``), every delivered result — backend deliveries and
    cache hits alike (``on_result``) — and the final failure list
    (``on_failure``), so its views equal the bytes post-hoc
    construction yields.
    """
    knobs = settings.current()
    telemetry = None
    if knobs.obs and obs.current() is None:
        # Outermost run_plan of the process owns the telemetry run; a
        # nested call (or one under a caller-managed run) just joins it.
        telemetry = obs.start_run(label="plan")
    try:
        with obs.span("plan", kind="plan", attrs={"points": len(plan)}):
            return _run_plan(plan, knobs, jobs=jobs, cache=cache,
                             use_cache=use_cache, progress=progress,
                             batch=batch, backend=backend, sink=sink)
    finally:
        if telemetry is not None:
            obs.close_run(telemetry)


def _run_plan(plan: ExperimentPlan, knobs: settings.Settings, *, jobs,
              cache, use_cache, progress, batch, backend,
              sink=None) -> dict[ExperimentPoint, SimulationResult]:
    started = time.perf_counter()
    jobs = knobs.jobs if jobs is None else max(1, int(jobs))
    batch = batch is None or bool(batch)
    if use_cache and cache is None:
        cache = default_cache()
    elif not use_cache:
        cache = None

    keys = {point: point_key(point) for point in plan}
    results: dict[ExperimentPoint, SimulationResult] = {}
    done = 0

    def emit(point: ExperimentPoint, source: str,
             batch_id: str | None = None, batch_size: int = 1,
             duration: float | None = None) -> None:
        nonlocal done
        done += 1
        attrs = {"benchmark": point.benchmark,
                 "configuration": point.configuration,
                 "depth": point.pipeline_depth, "scale": point.scale,
                 "warmup": point.warmup, "seed": point.seed,
                 "key": keys[point], "source": source,
                 "completed": done, "total": len(plan)}
        if batch_id is not None:
            attrs["batch_id"] = batch_id
        if duration is not None:
            attrs["duration"] = round(duration, 6)
        obs.emit("progress", kind="point", attrs=attrs)
        if progress is not None or sink is not None:
            event = ProgressEvent(
                point=point, key=keys[point], completed=done,
                total=len(plan), source=source,
                elapsed=time.perf_counter() - started,
                batch_id=batch_id, batch_size=batch_size,
                timestamp=time.time(), duration=duration)
            if progress is not None:
                progress(event)
            if sink is not None:
                sink.on_progress(event)

    def sink_result(point: ExperimentPoint, source: str,
                    result: SimulationResult) -> None:
        if sink is not None:
            sink.on_result(point, keys[point], result, source=source)

    if sink is not None:
        sink.on_plan(plan, keys)
    pending: list[ExperimentPoint] = []
    for point in plan:
        hit = cache.get(keys[point]) if cache is not None else None
        if hit is not None:
            results[point] = hit
            sink_result(point, "cache", hit)
            emit(point, "cache")
        else:
            pending.append(point)

    # Checked even when every point was a cache hit, so a bad
    # ``backend=`` never depends on the cache's contents.
    name = resolve_backend(backend, jobs=jobs, pending=len(pending))
    if pending:
        source = "serial" if name == "serial" else "worker"

        def deliver(point: ExperimentPoint, payload: dict, batch_id: str,
                    batch_size: int, duration: float) -> None:
            results[point] = _finish(point, payload, keys, cache)
            sink_result(point, source, results[point])
            emit(point, source, batch_id, batch_size, duration=duration)

        batches = (_make_batches(pending, jobs) if batch
                   else [(point,) for point in pending])
        groups = {f"batch-{index}": group
                  for index, group in enumerate(batches)}
        report = _PlanReport(groups, deliver)
        if name == "serial":
            run_serial(groups, report)
        else:
            run_pool(groups, report, jobs=jobs)
        if report.failures:
            _raise_failures(report.failures, keys, sink)

    # Return in plan order regardless of completion order.
    return {point: results[point] for point in plan}


def _raise_failures(failures, keys, sink) -> None:
    """Report the drained grid's failures, then raise the first one.

    Each failure — a point's, or a whole batch's (``point=None``, named
    by its unfinished points) — goes to the sink and becomes one
    ``kind="error"`` ledger event; the raised first failure gets one
    note per other failure.
    """
    for label, point, error in failures:
        key = keys.get(point)
        if sink is not None:
            sink.on_failure(point, key, error)
        obs.emit(f"failed: {label}", kind="error", attrs={
            "point": point.to_dict() if point is not None else None,
            "key": key, "type": type(error).__name__,
            "message": str(error),
            "notes": list(getattr(error, "__notes__", ()))})
    first = failures[0][2]
    for label, _point, error in failures[1:]:
        first.add_note(f"also failed: {label}: "
                       f"{type(error).__name__}: {error}")
    raise first


def _describe(point: ExperimentPoint) -> str:
    return (f"{point.benchmark} {point.configuration} "
            f"d{point.pipeline_depth} {point.speculation}")


def _finish(point: ExperimentPoint, payload: dict,
            keys: dict[ExperimentPoint, str],
            cache: ResultCache | None) -> SimulationResult:
    result = SimulationResult.from_dict(payload)
    if cache is not None:
        cache.put(keys[point], result)
    return result


def run_points(points, *, jobs: int | None = None,
               cache: ResultCache | None = None, use_cache: bool = True,
               progress: ProgressCallback | None = None,
               batch: bool | None = None,
               backend: str | None = None,
               sink=None,
               ) -> dict[ExperimentPoint, SimulationResult]:
    """Convenience wrapper: plan from explicit points, then run."""
    return run_plan(plan_from_points(points), jobs=jobs, cache=cache,
                    use_cache=use_cache, progress=progress, batch=batch,
                    backend=backend, sink=sink)
