"""Pluggable execution backends for the experiment scheduler.

:func:`~repro.experiments.scheduler.run_plan` decides *what* to compute
(cache misses, grouped into benchmark-pure batches) and how to account
for it (result cache, progress events, failure collection); a backend
decides *where* the batches execute.  Both backends funnel every point
through :func:`~repro.experiments.runner.execute_point`, so the
plan/point-key layer is location-transparent: results are bit-for-bit
equal (``==``) no matter which backend produced them (enforced by the
cross-backend differential suite in ``tests/experiments/``).

* :class:`SerialBackend` — in-process loop, shares recorded traces
  across the sweep exactly like a worker batch; the deterministic
  reference the pool is diffed against.
* :class:`LocalPoolBackend` — ``ProcessPoolExecutor`` sharding on the
  local host; per-point progress ticks travel through a manager queue.

Each backend simulates a batch through the one loop :func:`run_batch`
and keeps only its transport — the scheduler report, or the pool's
ticker queue.

Selection: ``REPRO_BACKEND=serial|local`` (or ``run_suite(backend=...)``
with a name or a configured instance); unset picks ``serial`` for
single-worker runs and ``local`` otherwise.

Backends report through the :class:`BackendReport` protocol —
``tick`` (a point finished somewhere; once per point), ``deliver`` (its
result payload arrived; once per point) and ``fail`` (a per-point or
whole-batch failure; the scheduler surfaces the first one after the
grid drains).
"""

from __future__ import annotations

import abc
import functools
import os
import pathlib
import queue as queue_module
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Mapping, Protocol

from repro import obs, settings
from repro.experiments.plan import ExperimentPoint
from repro.faults.policy import point_deadline

Batches = Mapping[str, tuple[ExperimentPoint, ...]]


class BackendReport(Protocol):
    """What a backend calls back into the scheduler with."""

    wants_ticks: bool

    def tick(self, batch_id: str, index: int,
             duration: float | None = None) -> None:
        """Point ``index`` of ``batch_id`` completed (progress only).

        ``duration`` is the point's compute wall-clock in seconds (None
        for lower pseudo-ticks)."""

    def deliver(self, batch_id: str, index: int, payload: dict,
                meta: dict | None = None) -> None:
        """Its serialized ``SimulationResult`` payload arrived.

        ``meta`` (optional) carries per-point delivery metadata —
        ``trace_source`` / ``kernel_source`` / ``phase_seconds`` — for
        the view aggregator's run-status view; it never affects
        the result payload or its cache bytes."""

    def fail(self, batch_id: str, index: int | None,
             error: Exception) -> None:
        """Point ``index`` (or the whole batch, ``None``) failed."""


def _relayable_exception(exc: Exception) -> Exception:
    """Make a worker exception safe to return across the process boundary.

    The worker traceback is attached as an exception note (the future
    machinery's ``_RemoteTraceback`` only decorates exceptions *raised*
    out of a task, not ones returned in a payload), and unpicklable
    exceptions are summarized into a plain ``RuntimeError`` so they can
    never poison the batch's return value and take sibling results down
    with them.
    """
    import pickle
    import traceback

    note = "worker traceback:\n" + traceback.format_exc()
    try:
        exc.add_note(note)
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - unpicklable or note-less exotica
        replacement = RuntimeError(f"{type(exc).__name__}: {exc}")
        replacement.add_note(note)
        return replacement


def point_meta(info: dict, point_trace) -> dict:
    """Per-point delivery metadata for the view aggregator.

    Summarizes how a point actually ran — which functional source fed
    it (``trace_source``: local / live), which replay tier
    executed it (``kernel_source``), and its per-phase wall-clock —
    from the ``info`` dict :func:`~repro.experiments.runner.
    execute_point` populated.  Observability only: it rides next to the
    result payload, never inside it, so cache bytes and the bit-for-bit
    result invariant are untouched.
    """
    return {
        "trace_source": "local" if point_trace is not None else "live",
        "kernel_source": info.get("kernel_source", "live"),
        "phase_seconds": {
            phase: round(seconds, 6)
            for phase, seconds in sorted(
                info.get("phase_seconds", {}).items())},
    }


def _maybe_prelower(point: ExperimentPoint, trace) -> bool:
    """Pay a batch's one-time trace-lowering cost up front, observably.

    Returns True only when the point will replay through the compiled
    kernel (a ``redirect`` point with a trace) *and* the lowering pass
    actually ran now; :func:`run_batch` then reports it as a
    :data:`~repro.pipeline.kernel.LOWER_TICK` progress tick, which the
    scheduler turns into a ``phase="lower"`` event — so the first point
    of a batch never looks stalled behind the lowering pass.  Any
    failure here is deferred: the point itself will surface it.
    """
    from repro.pipeline.kernel import ensure_lowered, is_lowered
    from repro.workloads.registry import get_program

    if trace is None or point.speculation != "redirect":
        return False
    try:
        program = get_program(point.benchmark, scale=point.scale,
                              seed=point.seed)
        if is_lowered(trace, program):
            return False
        with obs.span("lower", kind="phase", attrs={
                "phase": "lower", "benchmark": point.benchmark}):
            ensure_lowered(program, trace)
    except Exception:  # noqa: BLE001 - execute_point reports it per point
        return False
    return True


def run_batch(points, *, on_ok, on_error, on_lower, traces=None) -> None:
    """Simulate a same-workload batch of points, one after another.

    The single batch loop both backends run: per point it fetches the
    committed trace from the ``traces`` pool (by default a fresh
    :class:`~repro.experiments.tracing.SharedTraces` over ``points``),
    pays the one-time lowering as a ``LOWER_TICK`` (``on_lower()``,
    once), runs the point under its deadline and reports exactly one of

    * ``on_ok(index, payload, meta, duration)`` — the result's
      ``to_dict()`` payload, its :func:`point_meta` and its compute
      seconds;
    * ``on_error(index, exc)`` — called inside the ``except`` block, so
      the caller can still format the live traceback.

    Failures are isolated per point.
    """
    from repro.experiments.runner import execute_point
    from repro.experiments.tracing import SharedTraces

    if traces is None:
        traces = SharedTraces(points)
    lower_ticked = False
    for index, point in enumerate(points):
        point_trace = traces.get(point)
        if not lower_ticked and _maybe_prelower(point, point_trace):
            lower_ticked = True
            on_lower()
        info: dict = {}
        started = time.perf_counter()
        try:
            with point_deadline():
                payload = execute_point(point, trace=point_trace,
                                        info=info).to_dict()
        except Exception as exc:  # noqa: BLE001 - isolated per point
            on_error(index, exc)
            continue
        on_ok(index, payload, point_meta(info, point_trace),
              time.perf_counter() - started)


def _compute_batch(points: tuple[ExperimentPoint, ...],
                   batch_id: str | None = None,
                   ticker=None, obs_ctx: dict | None = None) -> list[tuple]:
    """Pool-worker entry: simulate a same-benchmark batch of points.

    The workload registry caches the shared ``Program`` (and its
    pre-decoded table) per process, so it is built once for the whole
    batch, and :func:`run_batch` shares one recorded trace across its
    ``redirect`` points.  Failures are isolated per point — the batch
    returns ``("ok", payload, meta)`` / ``("error", exception)`` entries
    positionally so sibling results still reach the parent (and its
    cache).  ``meta`` is per-point delivery metadata for the view
    aggregator — observability only, never part of the result payload
    or its cache bytes.

    ``ticker`` (a manager queue) receives ``(batch_id, index,
    duration_seconds)`` after each completed point so the parent can
    stream per-point progress while the batch is still running — plus
    one ``(batch_id, LOWER_TICK, None)`` when the batch pays the
    kernel's one-time trace-lowering cost.

    ``obs_ctx`` (a parent :meth:`repro.obs.Telemetry.context`) joins
    this worker to the parent's telemetry run: the batch runs under a
    ``batch`` span in a per-process shard stream the parent merges at
    run close.
    """
    from repro.pipeline.kernel import LOWER_TICK

    entries: list[tuple] = []

    def tick(index: int, duration: float | None) -> None:
        nonlocal ticker
        if ticker is not None:
            try:
                ticker.put((batch_id, index, duration))
            except Exception:  # noqa: BLE001 - a dead manager must
                ticker = None  # not take the results down with it

    def ok(index, payload, meta, duration) -> None:
        entries.append(("ok", payload, meta))
        tick(index, duration)

    def error(_index, exc) -> None:
        entries.append(("error", _relayable_exception(exc)))

    shard = obs.worker_shard(obs_ctx) if obs_ctx is not None else None
    with obs.activate(shard):
        with obs.span(batch_id or "batch", kind="batch", attrs={
                "batch_id": batch_id, "points": len(points),
                "benchmark": points[0].benchmark if points else None,
                "worker": os.getpid()}):
            run_batch(points, on_ok=ok, on_error=error,
                      on_lower=lambda: tick(LOWER_TICK, None))
        if shard is not None:
            shard.snapshot_event()
        return entries


def _make_batches(pending: list[ExperimentPoint],
                  jobs: int) -> list[tuple[ExperimentPoint, ...]]:
    """Group pending points into benchmark-pure worker batches.

    Points are grouped by workload identity (benchmark, scale, seed) in
    first-appearance order, and each group is split into contiguous
    near-equal chunks sized so the total batch count is about ``jobs`` —
    every worker stays busy, while no batch ever mixes workloads (the
    whole point of batching is one program build per batch).
    """
    groups: dict[tuple, list[ExperimentPoint]] = {}
    for point in pending:
        groups.setdefault(
            (point.benchmark, point.scale, point.seed), []).append(point)
    total = len(pending)
    batches: list[tuple[ExperimentPoint, ...]] = []
    for points in groups.values():
        share = max(1, min(len(points), round(jobs * len(points) / total)))
        size, extra = divmod(len(points), share)
        start = 0
        for chunk in range(share):
            stop = start + size + (1 if chunk < extra else 0)
            batches.append(tuple(points[start:stop]))
            start = stop
    return batches


def _pool_context():
    """Prefer fork so workers inherit sys.path (PYTHONPATH=src setups)."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _ensure_worker_import_path() -> str | None:
    """Make ``repro`` importable in spawn-started workers.

    Spawn workers boot a fresh interpreter that must re-import this
    module to unpickle the submitted callable, so the parent's
    ``sys.path`` entry for an uninstalled ``src/`` checkout (e.g. added
    by pytest's ``pythonpath`` option) has to travel via ``PYTHONPATH``.
    Returns the previous value for :func:`_restore_worker_import_path`;
    the caller restores it once the pool has shut down (every lazily
    spawned worker exists by then).
    """
    previous = os.environ.get("PYTHONPATH")
    src_dir = str(pathlib.Path(__file__).resolve().parents[2])
    parts = previous.split(os.pathsep) if previous else []
    if src_dir not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([src_dir] + parts)
    return previous


def _restore_worker_import_path(previous: str | None) -> None:
    if previous is None:
        os.environ.pop("PYTHONPATH", None)
    else:
        os.environ["PYTHONPATH"] = previous


class ExecutionBackend(abc.ABC):
    """Where a plan's pending batches execute.

    ``name`` is the ``REPRO_BACKEND`` selector; ``source`` labels the
    :class:`~repro.experiments.scheduler.ProgressEvent`\\ s the backend's
    points emit.  ``execute`` must call ``report.deliver`` or
    ``report.fail`` exactly once per point and ``report.tick`` once per
    completed point.
    """

    name: str
    source: str

    @abc.abstractmethod
    def execute(self, batches: Batches, report: BackendReport, *,
                jobs: int) -> None:
        """Run every batch, reporting per-point outcomes as they land."""


class SerialBackend(ExecutionBackend):
    """Deterministic in-process execution, one point at a time.

    Recorded traces are shared across the whole sweep (not just within
    a batch), matching the pre-backend serial path; per-point failures
    are isolated just like in a worker batch, so one bad point never
    discards its siblings' completed (and cached) results.
    """

    name = "serial"
    source = "serial"

    def execute(self, batches: Batches, report: BackendReport, *,
                jobs: int) -> None:
        from repro.experiments.tracing import SharedTraces
        from repro.pipeline.kernel import LOWER_TICK

        traces = SharedTraces(
            [point for group in batches.values() for point in group])
        for batch_id, group in batches.items():

            def ok(index, payload, meta, duration, batch_id=batch_id):
                report.deliver(batch_id, index, payload, meta)
                report.tick(batch_id, index, duration)

            with obs.span(batch_id, kind="batch", attrs={
                    "batch_id": batch_id, "points": len(group),
                    "benchmark": group[0].benchmark if group else None}):
                run_batch(
                    group, traces=traces, on_ok=ok,
                    on_error=functools.partial(report.fail, batch_id),
                    on_lower=functools.partial(report.tick, batch_id,
                                               LOWER_TICK))


class LocalPoolBackend(ExecutionBackend):
    """``ProcessPoolExecutor`` sharding on the local host."""

    name = "local"
    source = "worker"

    def execute(self, batches: Batches, report: BackendReport, *,
                jobs: int) -> None:
        workers = min(jobs, len(batches))
        context = _pool_context()
        needs_path = context.get_start_method() != "fork"
        saved_path = _ensure_worker_import_path() if needs_path else None
        # Per-point progress ticks travel through a manager queue so big
        # batches do not look stalled; only created when someone listens.
        manager = context.Manager() if report.wants_ticks else None
        ticker = manager.Queue() if manager is not None else None
        # Workers join the parent's telemetry run (if any) by writing
        # shard streams straight into its shards/ directory — same host,
        # same filesystem — which the close-time merge picks up.
        obs_ctx = obs.worker_context()

        def drain_ticker() -> None:
            if ticker is None:
                return
            while True:
                try:
                    batch_id, index, duration = ticker.get_nowait()
                except queue_module.Empty:
                    return
                report.tick(batch_id, index, duration)

        try:
            with ProcessPoolExecutor(
                    max_workers=workers, mp_context=context) as pool:
                futures = {
                    pool.submit(_compute_batch, group,
                                batch_id=batch_id, ticker=ticker,
                                obs_ctx=obs_ctx): batch_id
                    for batch_id, group in batches.items()}
                remaining = set(futures)
                while remaining:
                    finished, remaining = wait(
                        remaining, return_when=FIRST_COMPLETED,
                        timeout=0.05 if ticker is not None else None)
                    drain_ticker()
                    for future in finished:
                        batch_id = futures[future]
                        try:
                            entries = future.result()
                        except Exception as exc:
                            # A whole-batch failure (e.g. a dead worker);
                            # keep draining so completed sibling batches
                            # still reach the cache.
                            report.fail(batch_id, None, exc)
                            continue
                        for index, entry in enumerate(entries):
                            if entry[0] == "ok":
                                report.deliver(batch_id, index, entry[1],
                                               entry[2])
                            else:
                                report.fail(batch_id, index, entry[1])
                # A worker's final ticks can land just after its future
                # resolves; one last drain catches them.
                drain_ticker()
        finally:
            if manager is not None:
                manager.shutdown()
            if needs_path:
                _restore_worker_import_path(saved_path)


#: Registered backends, keyed by their ``REPRO_BACKEND`` selector.
BACKENDS: dict[str, type[ExecutionBackend]] = {
    backend.name: backend
    for backend in (SerialBackend, LocalPoolBackend)
}


def default_backend_name() -> str | None:
    """``REPRO_BACKEND`` -> validated selector, or None for auto."""
    raw = (settings.current().backend or "").lower()
    if not raw or raw == "auto":
        return None
    if raw not in BACKENDS:
        raise ValueError(
            f"unknown REPRO_BACKEND {raw!r}; expected one of "
            f"{sorted(BACKENDS)} (or 'auto')")
    return raw


def resolve_backend(backend: "str | ExecutionBackend | None", *,
                    jobs: int, pending: int) -> ExecutionBackend:
    """Pick the backend: explicit instance > explicit/env name > auto.

    Auto keeps the historical scheduler behaviour: one worker (or a
    single pending point) runs serially in-process, anything else
    shards across the local pool.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    name = backend.strip().lower() if isinstance(backend, str) \
        else default_backend_name()
    if backend is not None and not isinstance(backend, str):
        raise TypeError(
            f"backend must be a name, an ExecutionBackend instance or "
            f"None; got {backend!r}")
    if name is None:
        name = "serial" if jobs == 1 or pending == 1 else "local"
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; expected one of "
            f"{sorted(BACKENDS)}") from None
    return factory()
