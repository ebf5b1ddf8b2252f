"""Experiment scheduling: execution of a plan over a pluggable backend.

:func:`run_plan` takes an :class:`~repro.experiments.plan.ExperimentPlan`
and executes every point that is not already in the result cache.  The
*where* is delegated to an :class:`~repro.experiments.backends.
ExecutionBackend` — in-process (``serial``), a local
``ProcessPoolExecutor`` (``local``), or a distributed work queue drained
by ``python -m repro.worker`` processes (``queue``) — selected via
``REPRO_BACKEND`` or the ``backend=`` argument; unset keeps the
historical behaviour (``REPRO_JOBS=1`` runs serially, more workers use
the local pool).  Point keys, cache bytes and progress events are
identical on every backend, so the result cache and per-point progress
ticks are backend-agnostic.

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

**Trace sharing** (``REPRO_TRACE``, default on; DESIGN.md §8): within a
batch — and across a serial sweep — the ``redirect`` points of one
workload identity share a single recorded committed-instruction trace
(:mod:`repro.experiments.tracing`); the queue backend additionally
*ships* the serialized trace inside each job, so a whole cluster shares
one functional run per workload.  ``wrongpath`` points keep the live
core.

Determinism: every point is an independent, fully seeded simulation, and
every result — computed serially, in a pool worker, on a queue worker,
replayed from a shared or shipped trace, or replayed from the cache —
passes through the same ``SimulationResult.to_dict``/``from_dict`` round
trip, so the returned objects are bit-for-bit equal (``==``) no matter
which path produced them (enforced by the cross-backend differential
suite).

Progress is streamed through an optional callback receiving one
:class:`ProgressEvent` per completed point, in completion order (plus
one ``phase="lower"`` event when a batch pays the one-time kernel
trace-lowering cost, so the first point never looks stalled).
Backends may report a point more than once (a queue batch that is
retried after a worker crash re-runs from its start); the scheduler
dedupes, so the callback still sees exactly one event per point with a
monotone ``completed`` counter and stable batch metadata.  Failures are
collected per point and the first one is raised once the grid has
drained — completed siblings always reach the cache first.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Callable

from repro import obs, settings
from repro.experiments.backends import (
    BackendUnavailable,
    ExecutionBackend,
    _make_batches,
    degrade_target,
    resolve_backend,
)
from repro.experiments.cache import ResultCache, default_cache
from repro.experiments.plan import (
    ExperimentPlan,
    ExperimentPoint,
    plan_from_points,
    point_key,
)
from repro.faults.manifest import resolve_manifest
from repro.faults.policy import DeadletterStore
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
    source: str               # "cache" | "manifest" | "serial" | "worker"
                              # | "queue"
    elapsed: float            # seconds since run_plan started
    batch_id: str | None = None   # worker batch the point travelled in
    batch_size: int = 1           # points in that batch
    #: "point" for a completed point; "lower" for a batch's one-time
    #: trace-lowering pass (``point`` is then the batch's first point,
    #: and ``completed`` does not advance — no point finished yet).
    phase: str = "point"
    #: Wall-clock time the event was emitted (``time.time()``); pairs
    #: with the monotonic ``elapsed`` for cross-process correlation.
    timestamp: float = 0.0
    #: Seconds this point's simulation took, when the producing backend
    #: measured it (serial always; pool/queue workers ship it with their
    #: progress ticks).  None for cache hits and lower pseudo-events.
    duration: float | None = None


ProgressCallback = Callable[[ProgressEvent], None]


class _PlanReport:
    """Scheduler side of the backend protocol.

    Translates backend callbacks into cache writes, progress events and
    collected failures.  Ticks are deduplicated on (batch, index): a
    retried queue batch re-executes points whose ticks already streamed,
    and the callback must still see exactly one event per point with a
    monotone ``completed`` counter (the double-tick fix).
    """

    def __init__(self, batches: dict[str, tuple[ExperimentPoint, ...]],
                 source: str, emit, deliver, *,
                 wants_ticks: bool) -> None:
        self._batches = batches
        self._source = source
        self._emit = emit            # (point, source, batch_id, batch_size)
        self._deliver = deliver      # (point, payload, meta) -> None
        self._ticked: set[tuple[str, int]] = set()
        self.wants_ticks = wants_ticks
        self.failure: Exception | None = None
        self.failures: list[tuple[ExperimentPoint | None, Exception]] = []

    def tick(self, batch_id: str, index: int,
             duration: float | None = None) -> None:
        if (batch_id, index) in self._ticked:
            return
        self._ticked.add((batch_id, index))
        group = self._batches[batch_id]
        if index < 0:
            # Pseudo-tick (kernel.LOWER_TICK): the batch's one-time
            # trace-lowering pass ran — report it as its own phase so
            # the first point doesn't look stalled, without advancing
            # the completed counter.
            self._emit(group[0], self._source, batch_id, len(group),
                       phase="lower")
            return
        self._emit(group[index], self._source, batch_id, len(group),
                   duration=duration)

    def deliver(self, batch_id: str, index: int, payload: dict,
                meta: dict | None = None) -> None:
        self._deliver(self._batches[batch_id][index], payload, meta)

    def fail(self, batch_id: str, index: int | None,
             error: Exception) -> None:
        point = None if index is None else self._batches[batch_id][index]
        self.failures.append((point, error))
        if self.failure is None:
            self.failure = error


def run_plan(plan: ExperimentPlan, *, jobs: int | None = None,
             cache: ResultCache | None = None, use_cache: bool = True,
             progress: ProgressCallback | None = None,
             batch: bool | None = None,
             backend: "str | ExecutionBackend | None" = None,
             manifest=None,
             sink=None,
             ) -> dict[ExperimentPoint, SimulationResult]:
    """Execute a plan; returns {resolved point -> result}.

    ``cache=None`` with ``use_cache=True`` uses the default store (honours
    ``REPRO_CACHE`` / ``REPRO_CACHE_DIR``); pass ``use_cache=False`` to
    force recomputation without touching any store.  ``batch=None``
    (or ``True``) sends same-benchmark points to workers in batches;
    ``batch=False`` submits one point per task.
    ``backend=None`` honours ``REPRO_BACKEND`` (``serial`` | ``local`` |
    ``queue``; unset = serial for one worker, local pool otherwise); it
    also accepts a configured :class:`~repro.experiments.backends.
    ExecutionBackend` instance.  ``manifest=None`` honours
    ``REPRO_MANIFEST`` (default off); a directory path or ``True``
    enables the crash-safe run manifest (``False`` forces it off): a
    killed grid restarted with the same plan replays the points its
    manifest recorded (``source="manifest"`` events) and executes only
    the remainder, converging to bit-identical results
    (:mod:`repro.faults.manifest`).

    ``sink`` attaches a live-view aggregator (duck-typed; see
    :class:`~repro.experiments.aggregate.ViewAggregator`): it receives
    every :class:`ProgressEvent` (``on_progress``), every delivered
    result — backend deliveries, cache hits and manifest replays alike
    (``on_result``) — and the final failure list (``on_failure``), so
    its materialized views converge to the same bytes post-hoc
    construction yields.  ``sink=None`` honours ``REPRO_SERVE``
    (default off): when set, the plan runs with an aggregator plus an
    HTTP/SSE view server (:mod:`repro.serve`) attached for its
    duration.
    """
    knobs = settings.current()
    telemetry = None
    if knobs.obs and obs.current() is None:
        # Outermost run_plan of the process owns the telemetry run; a
        # nested call (or one under a caller-managed run) just joins it.
        telemetry = obs.start_run(label="plan")
    try:
        with obs.span("plan", kind="plan", attrs={"points": len(plan)}):
            with _resolve_sink(sink, knobs.serve) as live_sink:
                return _run_plan(plan, knobs, jobs=jobs, cache=cache,
                                 use_cache=use_cache, progress=progress,
                                 batch=batch, backend=backend,
                                 manifest=manifest, sink=live_sink)
    finally:
        if telemetry is not None:
            obs.close_run(telemetry)


def _resolve_sink(sink, serving: bool):
    """The live-view sink context for one run_plan call.

    An explicit sink is used as-is (its owner manages any server and
    its lifetime).  With no sink, ``REPRO_SERVE`` wires up the full
    streaming tier for the duration of the plan: a
    :class:`~repro.experiments.aggregate.ViewAggregator` plus a
    :class:`~repro.serve.ViewServer` on ``REPRO_SERVE_PORT``.  Imported
    lazily so the scheduler never pays for (or circularly imports) the
    serving tier unless it is actually on.
    """
    if sink is not None or not serving:
        return contextlib.nullcontext(sink)
    from repro import serve

    return serve.autoserve()


def _run_plan(plan: ExperimentPlan, knobs: settings.Settings, *, jobs,
              cache, use_cache, progress, batch, backend, manifest,
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
    # Per-point event dedupe across *backend attempts*: when a backend
    # degrades mid-grid, a point that ticked in the aborted attempt but
    # re-runs under the fallback must not advance ``completed`` twice
    # (per-report tick dedupe can't see across reports).
    emitted: set[str] = set()

    def emit(point: ExperimentPoint, source: str,
             batch_id: str | None = None, batch_size: int = 1,
             phase: str = "point", duration: float | None = None) -> None:
        nonlocal done
        if phase == "point":
            if keys[point] in emitted:
                return
            emitted.add(keys[point])
            done += 1
        attrs = {"benchmark": point.benchmark,
                 "configuration": point.configuration,
                 "depth": point.pipeline_depth, "source": source,
                 "phase": phase, "completed": done, "total": len(plan)}
        if batch_id is not None:
            attrs["batch_id"] = batch_id
        if duration is not None:
            attrs["duration"] = round(duration, 6)
        obs.emit("progress", kind="point", attrs=attrs)
        if duration is not None:
            obs.observe_duration("point.duration", duration, source=source)
        if progress is not None or sink is not None:
            event = ProgressEvent(
                point=point, key=keys[point], completed=done,
                total=len(plan), source=source,
                elapsed=time.perf_counter() - started,
                batch_id=batch_id, batch_size=batch_size, phase=phase,
                timestamp=time.time(), duration=duration)
            if progress is not None:
                progress(event)
            if sink is not None:
                sink.on_progress(event)

    def sink_result(point: ExperimentPoint, source: str,
                    result: SimulationResult,
                    meta: dict | None = None) -> None:
        if sink is not None:
            sink.on_result(point, keys[point], result,
                           source=source, meta=meta)

    store = resolve_manifest(manifest, [keys[point] for point in plan])
    if sink is not None:
        sink.on_plan(plan, keys)
    try:
        pending: list[ExperimentPoint] = []
        for point in plan:
            hit = cache.get(keys[point]) if cache is not None else None
            if cache is not None:
                obs.inc("cache.hit" if hit is not None else "cache.miss")
            if hit is not None:
                results[point] = hit
                sink_result(point, "cache", hit)
                emit(point, "cache")
            elif store is not None and keys[point] in store.completed:
                # A previous (possibly killed) run of this exact plan
                # already completed the point; replay its recorded
                # payload through the normal delivery path.
                results[point] = _finish(point, store.completed[keys[point]],
                                         keys, cache)
                obs.inc("manifest.replayed")
                sink_result(point, "manifest", results[point])
                emit(point, "manifest")
            else:
                pending.append(point)

        def deliver(point: ExperimentPoint, payload: dict,
                    meta: dict | None = None) -> None:
            results[point] = _finish(point, payload, keys, cache)
            if store is not None:
                store.record(keys[point], payload)
            sink_result(point, engine.source, results[point], meta)

        report: _PlanReport | None = None
        engine = None
        while pending:
            if engine is None:
                engine = resolve_backend(backend, jobs=jobs,
                                         pending=len(pending))
            batches = (_make_batches(pending, jobs) if batch
                       else [(point,) for point in pending])
            groups = {f"batch-{index}": group
                      for index, group in enumerate(batches)}
            report = _PlanReport(groups, engine.source, emit, deliver,
                                 wants_ticks=(progress is not None
                                              or sink is not None
                                              or obs.current() is not None))
            try:
                engine.execute(groups, report, jobs=jobs)
                break
            except BackendUnavailable as exc:
                fallback = degrade_target(engine) if knobs.degrade \
                    else None
                if fallback is None:
                    raise
                obs.inc("backend.degrade")
                obs.emit("degrade", kind="backend", attrs={
                    "from": engine.name, "to": fallback.name,
                    "reason": str(exc)[:300]})
                engine = fallback
                # Whatever the failed attempt already delivered stays
                # delivered; only the remainder moves down the ladder.
                # Its collected failures are attempt artifacts (the
                # fallback re-runs those points), so the report resets.
                pending = [p for p in pending if p not in results]
                report = None

        if report is not None and report.failure is not None:
            if sink is not None:
                # Final failures only: a degraded attempt's failures are
                # attempt artifacts (the fallback re-ran those points),
                # so the sink sees exactly what the caller is about to.
                for failed_point, error in report.failures:
                    sink.on_failure(
                        failed_point,
                        keys.get(failed_point) if failed_point is not None
                        else None,
                        error)
            quarantined = _quarantine(report.failures, keys,
                                      knobs.deadletter_dir) \
                if knobs.deadletter else None
            if quarantined is not None:
                report.failure.add_note(
                    f"{len(report.failures)} failed point(s) quarantined "
                    f"to {quarantined} (inspect with `python -m repro.obs "
                    f"deadletter`)")
            raise report.failure
    finally:
        if store is not None:
            store.close()

    # Return in plan order regardless of completion order.
    return {point: results[point] for point in plan}


def _quarantine(failures, keys, directory) -> "str | None":
    """Write failed points to the deadletter store; returns its dir.

    Best-effort by design: quarantine is diagnostics, so an unwritable
    deadletter directory must never mask the original failure (the
    caller is about to raise it).
    """
    if not failures:
        return None
    store = DeadletterStore(directory)
    try:
        for point, error in failures:
            store.add({
                "point": point.to_dict() if point is not None else None,
                "key": keys.get(point) if point is not None else None,
                "error": {"type": type(error).__name__,
                          "message": str(error)},
                "history": list(getattr(error, "history", ())),
                "notes": list(getattr(error, "__notes__", ())),
            })
    except OSError:
        return None
    obs.emit("quarantined", kind="backend", attrs={
        "points": len(failures), "directory": str(store.directory)})
    return str(store.directory)


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
               backend: "str | ExecutionBackend | None" = None,
               manifest=None,
               sink=None,
               ) -> dict[ExperimentPoint, SimulationResult]:
    """Convenience wrapper: plan from explicit points, then run."""
    return run_plan(plan_from_points(points), jobs=jobs, cache=cache,
                    use_cache=use_cache, progress=progress, batch=batch,
                    backend=backend, manifest=manifest, sink=sink)
