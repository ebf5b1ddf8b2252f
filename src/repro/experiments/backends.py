"""The two places a plan's batches execute: in process, or on a pool.

:func:`~repro.experiments.scheduler.run_plan` decides *what* to compute
(cache misses, grouped into benchmark-pure batches) and how to account
for it (result cache, progress events, failure collection); it then
hands the batches to one of two plain functions, picked by name:

* :func:`run_serial` (``"serial"``) — in-process loop, shares recorded
  traces across the sweep exactly like a worker batch; the
  deterministic reference the pool is diffed against.
* :func:`run_pool` (``"local"``) — ``ProcessPoolExecutor`` sharding on
  the local host; per-point progress ticks travel through a manager
  queue.

Both simulate a batch through the one loop :func:`run_batch`, which
funnels every point through :func:`~repro.experiments.runner.
execute_point`, so results are bit-for-bit equal (``==``) on both
(enforced by the cross-backend differential suite in
``tests/experiments/``).  Selection: ``run_suite(backend=...)`` /
``run_plan(backend=...)`` with ``"serial"`` or ``"local"``; ``None``
picks ``serial`` for single-worker runs and ``local`` otherwise
(:func:`resolve_backend`).

Both report to the scheduler's ``_PlanReport``: ``deliver`` and
``tick`` once per completed point, ``fail`` once per failed point (or
whole pool batch).
"""

from __future__ import annotations

import functools
import os
import pathlib
import queue as queue_module
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Mapping

from repro import obs
from repro.experiments.plan import ExperimentPoint

Batches = Mapping[str, tuple[ExperimentPoint, ...]]


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


def point_meta(point_trace) -> dict:
    """Per-point delivery metadata for the view aggregator.

    ``kernel_source`` names the tier that ran the point: ``"kernel"``
    when :func:`run_batch` fetched it a committed trace to replay,
    ``"live"`` otherwise (a ``wrongpath`` point).  Observability only:
    it rides next to the result payload, never inside it, so cache
    bytes and the bit-for-bit result invariant are untouched.
    """
    return {"kernel_source": "kernel" if point_trace is not None
            else "live"}


def run_batch(points, *, on_ok, on_error, traces=None) -> None:
    """Simulate a same-workload batch of points, one after another.

    The single batch loop both backends run: per point it fetches the
    committed trace from the ``traces`` pool (by default a fresh
    :class:`~repro.experiments.tracing.SharedTraces` over ``points``),
    runs the point — the first kernel point of a trace also lowers
    it, inside :func:`~repro.experiments.runner.execute_point` — and
    reports exactly one of

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
    for index, point in enumerate(points):
        try:
            # Inside the try: a workload whose trace cannot be recorded
            # fails its own points, not the rest of the batch.
            point_trace = traces.get(point)
            started = time.perf_counter()
            # No trace means live (a wrongpath point), which is what
            # point_meta reports.
            payload = execute_point(
                point, trace=False if point_trace is None
                else point_trace).to_dict()
        except Exception as exc:  # noqa: BLE001 - isolated per point
            on_error(index, exc)
            continue
        on_ok(index, payload, point_meta(point_trace),
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
    stream per-point progress while the batch is still running.

    ``obs_ctx`` (a parent :meth:`repro.obs.Telemetry.context`) joins
    this worker to the parent's telemetry run: the batch runs under a
    ``batch`` span in a per-process shard stream the parent merges at
    run close.
    """
    entries: list[tuple] = []

    def ok(index, payload, meta, duration) -> None:
        nonlocal ticker
        entries.append(("ok", payload, meta))
        if ticker is not None:
            try:
                ticker.put((batch_id, index, duration))
            except Exception:  # noqa: BLE001 - a dead manager must
                ticker = None  # not take the results down with it

    def error(_index, exc) -> None:
        entries.append(("error", _relayable_exception(exc)))

    shard = obs.worker_shard(obs_ctx) if obs_ctx is not None else None
    with obs.activate(shard):
        with obs.span(batch_id or "batch", kind="batch", attrs={
                "batch_id": batch_id, "points": len(points),
                "benchmark": points[0].benchmark if points else None,
                "worker": os.getpid()}):
            run_batch(points, on_ok=ok, on_error=error)
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


def resolve_backend(backend: str | None, *, jobs: int,
                    pending: int) -> str:
    """``backend=`` -> ``"serial"`` or ``"local"``; anything else raises.

    ``None`` keeps the historical scheduler behaviour: one worker (or a
    single pending point) runs serially in-process, anything else
    shards across the local pool.
    """
    if backend is None:
        return "serial" if jobs == 1 or pending == 1 else "local"
    if backend not in ("serial", "local"):
        raise ValueError(f"unknown backend {backend!r}; expected "
                         f"'serial', 'local' or None")
    return backend


def run_serial(batches: Batches, report) -> None:
    """Deterministic in-process execution, one point at a time.

    Recorded traces are shared across the whole sweep (not just within
    a batch); per-point failures are isolated just like in a worker
    batch, so one bad point never discards its siblings' completed (and
    cached) results.
    """
    from repro.experiments.tracing import SharedTraces

    traces = SharedTraces(
        [point for group in batches.values() for point in group])
    for batch_id, group in batches.items():

        def ok(index, payload, meta, duration, batch_id=batch_id):
            report.deliver(batch_id, index, payload, meta)
            report.tick(batch_id, index, duration)

        with obs.span(batch_id, kind="batch", attrs={
                "batch_id": batch_id, "points": len(group),
                "benchmark": group[0].benchmark if group else None}):
            run_batch(group, traces=traces, on_ok=ok,
                      on_error=functools.partial(report.fail, batch_id))


def run_pool(batches: Batches, report, *, jobs: int) -> None:
    """``ProcessPoolExecutor`` sharding on the local host."""
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
