"""The two places a plan's batches execute: in process, or on a pool.

:func:`~repro.experiments.scheduler.run_plan` decides *what* to compute
(cache misses, grouped into benchmark-pure batches) and how to account
for it (result cache, progress events, failure collection); it then
hands the batches to one of two plain functions, picked by name:

* :func:`run_serial` (``"serial"``) — in-process loop, shares recorded
  traces and wrong-path episode stores across the sweep exactly like a
  worker batch; the deterministic reference the pool is diffed against.
* :func:`run_pool` (``"local"``) — ``ProcessPoolExecutor`` sharding on
  the local host.  Workers write no files and return nothing: each
  finished point (its result payload or exception, with its compute
  seconds) and each ledger line travels to the parent over one manager
  queue, the *channel*, as it is produced.

Both simulate a batch through the one loop :func:`run_batch`, which
funnels every point through :func:`~repro.experiments.runner.
execute_point`, so results are bit-for-bit equal (``==``) on both
(enforced by the cross-backend differential suite in
``tests/experiments/``).  Selection: ``run_suite(backend=...)`` /
``run_plan(backend=...)`` with ``"serial"`` or ``"local"``; ``None``
picks ``serial`` for single-worker runs and ``local`` otherwise
(:func:`resolve_backend`).

Both report to the scheduler's ``_PlanReport``, in the parent process:
``deliver`` once per completed point, ``fail`` once per failed point
(or per pool batch whose worker died with points unfinished).
"""

from __future__ import annotations

import functools
import os
import pathlib
import queue as queue_module
import time
from typing import Mapping

from repro import obs
from repro.experiments.plan import ExperimentPoint

Batches = Mapping[str, tuple[ExperimentPoint, ...]]


def _relayable_exception(exc: Exception) -> Exception:
    """Make a worker exception safe to send across the process boundary.

    The worker traceback is attached as an exception note (the future
    machinery's ``_RemoteTraceback`` only decorates exceptions *raised*
    out of a task, not ones sent on the channel), and unpicklable
    exceptions are summarized into a plain ``RuntimeError`` so putting
    them can never fail the batch and take its later points down too.
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


def run_batch(points, *, on_ok, on_error, traces=None) -> None:
    """Simulate a same-workload batch of points, one after another.

    The single batch loop both backends run: per point it fetches the
    committed trace or the wrong-path episode store from the ``traces``
    pool (by default a fresh
    :class:`~repro.experiments.tracing.SharedTraces` over ``points``),
    runs the point — the first kernel point of a trace also lowers
    it, inside :func:`~repro.experiments.runner.execute_point` — and
    reports exactly one of

    * ``on_ok(index, payload, duration)`` — the result's ``to_dict()``
      payload and its compute seconds;
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
            episodes = traces.episodes(point)
            started = time.perf_counter()
            payload = execute_point(point, trace=point_trace,
                                    episodes=episodes).to_dict()
        except Exception as exc:  # noqa: BLE001 - isolated per point
            on_error(index, exc)
            continue
        on_ok(index, payload, time.perf_counter() - started)


def _compute_batch(points: tuple[ExperimentPoint, ...], batch_id: str,
                   channel, obs_ctx: dict | None = None) -> None:
    """Pool-worker entry: simulate a same-benchmark batch of points.

    The workload registry caches the shared ``Program`` (and its
    pre-decoded table) per process, so it is built once for the whole
    batch, and :func:`run_batch` shares one recorded trace across its
    ``redirect`` points.  Each finished point is put on ``channel`` (a
    manager queue) at once as ``(batch_id, index, payload or exception,
    duration)``; failures are isolated per point.

    ``obs_ctx`` (a parent :meth:`repro.obs.Telemetry.context`) joins
    this worker to the parent's telemetry run: the batch runs under a
    ``batch`` span whose ledger lines go to ``channel`` too.
    """
    def ok(index, payload, duration) -> None:
        channel.put((batch_id, index, payload, duration))

    def error(index, exc) -> None:
        channel.put((batch_id, index, _relayable_exception(exc), None))

    telemetry = None if obs_ctx is None else obs.Telemetry(
        obs_ctx["run"], emitter=f"worker-{os.getpid()}-{batch_id}",
        channel=channel, root_span=obs_ctx["parent"])
    with obs.activate(telemetry):
        with obs.span(batch_id, kind="batch", attrs={
                "batch_id": batch_id, "points": len(points),
                "benchmark": points[0].benchmark if points else None,
                "worker": os.getpid()}):
            run_batch(points, on_ok=ok, on_error=error)


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

    ``None`` runs one worker (or a single pending point) serially
    in-process and anything else on the local pool.
    """
    if backend is None:
        return "serial" if jobs == 1 or pending == 1 else "local"
    if backend not in ("serial", "local"):
        raise ValueError(f"unknown backend {backend!r}; expected "
                         f"'serial', 'local' or None")
    return backend


def run_serial(batches: Batches, report) -> None:
    """Deterministic in-process execution, one point at a time.

    Recorded traces and wrong-path episode stores are shared across the
    whole sweep (not just within a batch); per-point failures are
    isolated just like in a worker batch, so one bad point never
    discards its siblings' completed (and cached) results.
    """
    from repro.experiments.tracing import SharedTraces

    traces = SharedTraces(
        [point for group in batches.values() for point in group])
    for batch_id, group in batches.items():
        with obs.span(batch_id, kind="batch", attrs={
                "batch_id": batch_id, "points": len(group),
                "benchmark": group[0].benchmark if group else None}):
            run_batch(group, traces=traces,
                      on_ok=functools.partial(report.deliver, batch_id),
                      on_error=functools.partial(report.fail, batch_id))


def run_pool(batches: Batches, report, *, jobs: int) -> None:
    """``ProcessPoolExecutor`` sharding on the local host.

    The parent drains the channel while the batches run and reports
    each message as it arrives; a batch's future is read only for a
    whole-batch exception (a dead worker), which is reported after every
    message its worker put has been drained.
    """
    # Imported here: serial runs never start a pool.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    context = _pool_context()
    needs_path = context.get_start_method() != "fork"
    saved_path = _ensure_worker_import_path() if needs_path else None
    telemetry = obs.current()
    obs_ctx = telemetry.context() if telemetry is not None else None
    # A manager queue rather than a multiprocessing.Queue: a put returns
    # only once the manager holds the message, so a worker that dies
    # mid-batch has still delivered every point and line it put, where a
    # queue's feeder thread can lose them.
    manager = context.Manager()

    def drain() -> None:
        while True:
            try:
                message = channel.get_nowait()
            except queue_module.Empty:
                return
            if isinstance(message, str):
                telemetry.write_line(message)
                continue
            batch_id, index, outcome, duration = message
            if isinstance(outcome, Exception):
                report.fail(batch_id, index, outcome)
            else:
                report.deliver(batch_id, index, outcome, duration)

    try:
        channel = manager.Queue()
        with ProcessPoolExecutor(max_workers=min(jobs, len(batches)),
                                 mp_context=context) as pool:
            futures = {
                pool.submit(_compute_batch, group, batch_id, channel,
                            obs_ctx): batch_id
                for batch_id, group in batches.items()}
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(
                    remaining, timeout=0.05, return_when=FIRST_COMPLETED)
                # A finished batch's worker put all its messages before
                # the future resolved, so this drain holds all of them.
                drain()
                for future in finished:
                    if future.exception() is not None:
                        report.fail(futures[future], None,
                                    future.exception())
    finally:
        manager.shutdown()
        if needs_path:
            _restore_worker_import_path(saved_path)
