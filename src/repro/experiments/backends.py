"""Pluggable execution backends for the experiment scheduler.

:func:`~repro.experiments.scheduler.run_plan` decides *what* to compute
(cache misses, grouped into benchmark-pure batches) and how to account
for it (result cache, progress events, failure collection); a backend
decides *where* the batches execute.  All three backends funnel every
point through :func:`~repro.experiments.runner.execute_point`, so the
plan/point-key layer is location-transparent: results are bit-for-bit
equal (``==``) no matter which backend produced them (enforced by the
cross-backend differential suite in ``tests/experiments/``).

* :class:`SerialBackend` — in-process loop, shares recorded traces
  across the sweep exactly like a worker batch; the deterministic
  reference every other backend is diffed against.
* :class:`LocalPoolBackend` — the ``ProcessPoolExecutor`` sharding
  formerly inlined in ``scheduler.py``; per-point progress ticks travel
  through a manager queue.
* :class:`QueueBackend` — a work queue (:mod:`repro.experiments.broker`)
  plus standalone ``python -m repro.worker`` processes.  Jobs carry
  serialized points *and* a serialized committed trace sidecar (the PR 4
  wire format), so a whole cluster shares one functional run per
  workload; leases expire and requeue, results are integrity-checked,
  and retries are bounded — a crashed worker or corrupted payload delays
  a batch, it never corrupts or drops one.

Every backend (and ``python -m repro.worker``) simulates a batch
through the one loop :func:`run_batch`; each keeps only its transport —
the scheduler report, the pool's ticker queue, or the broker.

Selection: ``REPRO_BACKEND=serial|local|queue`` (or
``run_suite(backend=...)`` with a name or a configured instance); unset
picks ``serial`` for single-worker runs and ``local`` otherwise, which
is exactly the pre-backend behaviour.

Backends report through the :class:`BackendReport` protocol —
``tick`` (a point finished somewhere; at-least-once, the scheduler
dedupes retried batches), ``deliver`` (its result payload arrived;
exactly once per point) and ``fail`` (a per-point or whole-batch
failure; the scheduler surfaces the first one after the grid drains).
"""

from __future__ import annotations

import abc
import functools
import os
import pathlib
import queue as queue_module
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Mapping, Protocol

from repro import obs, settings
from repro.experiments.broker import (
    FileBroker,
    MessageError,
    QueueError,
    RemotePointError,
)
from repro.experiments.plan import ExperimentPoint
from repro.faults.policy import RetryPolicy, point_deadline

Batches = Mapping[str, tuple[ExperimentPoint, ...]]


class BackendUnavailable(QueueError):
    """A backend cannot run here at all (as opposed to a job failing).

    Raised when the environment, not the work, is broken: worker
    processes cannot be spawned, or spawn fine but crash-loop without
    ever producing a result.  The scheduler catches this and walks the
    degradation ladder (queue → local → serial, ``REPRO_DEGRADE``)
    instead of abandoning the grid — the points themselves are
    backend-agnostic, so a healthier backend produces identical results.
    """


#: Graceful-degradation ladder: who takes over when a backend reports
#: itself unavailable.  Serial is the floor — it has no moving parts.
_DEGRADE_LADDER = {"queue": "local", "local": "serial"}


def degrade_target(engine: ExecutionBackend) -> "ExecutionBackend | None":
    """The next backend down the ladder, or None at the floor."""
    name = _DEGRADE_LADDER.get(engine.name)
    return BACKENDS[name]() if name is not None else None


class BackendReport(Protocol):
    """What a backend calls back into the scheduler with."""

    wants_ticks: bool

    def tick(self, batch_id: str, index: int,
             duration: float | None = None) -> None:
        """Point ``index`` of ``batch_id`` completed (progress only).

        ``duration`` is the point's compute wall-clock in seconds when
        the producing worker measured it (None for lower pseudo-ticks
        and legacy producers)."""

    def deliver(self, batch_id: str, index: int, payload: dict,
                meta: dict | None = None) -> None:
        """Its serialized ``SimulationResult`` payload arrived.

        ``meta`` (optional) carries per-point delivery metadata —
        ``trace_source`` / ``kernel_source`` / ``phase_seconds`` — for
        the live-view aggregator's run-status view; it never affects
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


def point_meta(info: dict, point_trace, *,
               shipped: bool = False) -> dict:
    """Per-point delivery metadata for the live-view aggregator.

    Summarizes how a point actually ran — which functional source fed
    it (``trace_source``: shipped / local / live), which replay tier
    executed it (``kernel_source``), and its per-phase wall-clock —
    from the ``info`` dict :func:`~repro.experiments.runner.
    execute_point` populated.  Observability only: it rides next to the
    result payload, never inside it, so cache bytes and the bit-for-bit
    result invariant are untouched.
    """
    return {
        "trace_source": "shipped" if shipped
        else ("local" if point_trace is not None else "live"),
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


def run_batch(points, *, on_ok, on_error, on_lower, before_point=None,
              traces=None, shipped=None) -> bool:
    """Simulate a same-workload batch of points, one after another.

    The single batch loop every backend runs: per point it fetches the
    committed trace (``shipped``, when the batch arrived with one, else
    the ``traces`` pool — by default a fresh
    :class:`~repro.experiments.tracing.SharedTraces` over ``points``),
    pays the one-time lowering as a ``LOWER_TICK`` (``on_lower()``,
    once), runs the point under its deadline and reports exactly one of

    * ``on_ok(index, payload, meta, duration)`` — the result's
      ``to_dict()`` payload, its :func:`point_meta` and its compute
      seconds;
    * ``on_error(index, exc)`` — called inside the ``except`` block, so
      the caller can still format the live traceback.

    Failures are isolated per point.  ``before_point(index)`` returning
    False stops the batch early (a worker handing its lease back);
    ``run_batch`` then returns False, otherwise True.
    """
    from repro.experiments.runner import execute_point
    from repro.experiments.tracing import SharedTraces

    if shipped is None and traces is None:
        traces = SharedTraces(points)
    lower_ticked = False
    for index, point in enumerate(points):
        if before_point is not None and not before_point(index):
            return False
        if shipped is not None:
            point_trace = shipped if point.speculation == "redirect" \
                else None
        else:
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
        on_ok(index, payload,
              point_meta(info, point_trace, shipped=shipped is not None),
              time.perf_counter() - started)
    return True


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
    cache).  ``meta`` is per-point delivery metadata for the live-view
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


def _src_dir() -> str:
    return str(pathlib.Path(__file__).resolve().parents[2])


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
    src_dir = _src_dir()
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
    ``report.fail`` exactly once per point and may ``report.tick``
    at-least-once per completed point (the scheduler dedupes retries).
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
                            status, payload = entry[0], entry[1]
                            if status != "ok":
                                report.fail(batch_id, index, payload)
                            else:
                                report.deliver(
                                    batch_id, index, payload,
                                    entry[2] if len(entry) > 2 else None)
                # A worker's final ticks can land just after its future
                # resolves; one last drain catches them.
                drain_ticker()
        finally:
            if manager is not None:
                manager.shutdown()
            if needs_path:
                _restore_worker_import_path(saved_path)


def _tail_worker_logs(broker_dir: pathlib.Path, limit: int = 2000) -> str:
    """The tail of the newest worker log, for crash-loop diagnostics.

    Runs while this is being assembled into a QueueError, so it must
    never raise: a log rotated or unlinked between ``glob`` and ``stat``
    is simply skipped — a vanished diagnostic file must not mask the
    original failure being reported.
    """
    def _mtime(path: pathlib.Path) -> "float | None":
        try:
            return path.stat().st_mtime
        except OSError:
            return None  # vanished between glob and stat

    stamped = [(stamp, path)
               for path in broker_dir.glob("worker-*.log")
               if (stamp := _mtime(path)) is not None]
    if not stamped:
        return "(no worker logs found)"
    newest = max(stamped)[1]
    try:
        data = newest.read_bytes()[-limit:]
    except OSError as exc:
        return f"(unreadable: {exc})"
    return f"{newest.name}:\n" + data.decode(errors="replace")


def _crash_report(broker_dir: pathlib.Path, limit: int = 5) -> str:
    """Crash diagnostics: structured worker-error lines + raw log tail.

    Workers append one JSONL record per fatal error to
    ``<broker>/obs/worker-errors.jsonl`` (worker pid, job/batch id,
    lease path, exception, traceback — see ``repro.worker``), so a
    crash-loop failure names *which* batch took which worker down even
    when the raw log is just an import-time stack trace.
    """
    sections: list[str] = []
    errors = broker_dir / "obs" / "worker-errors.jsonl"
    if errors.is_file():
        try:
            lines = errors.read_text(
                encoding="utf-8", errors="replace").splitlines()
            tail = [line for line in lines if line.strip()][-limit:]
            if tail:
                sections.append(
                    "structured worker errors (last "
                    f"{len(tail)}):\n" + "\n".join(tail))
        except OSError:
            pass
    sections.append(_tail_worker_logs(broker_dir))
    return "\n".join(sections)


@dataclass
class _QueueJob:
    """Scheduler-side record of one in-flight queue job."""

    batch_id: str
    points: tuple[ExperimentPoint, ...]
    blob: bytes
    attempts: int = 1
    history: list[str] = field(default_factory=list)


class QueueBackend(ExecutionBackend):
    """Distributed execution over a :class:`FileBroker` work queue.

    Jobs are benchmark-pure batches; each carries its points in the
    integrity-checked message format plus a serialized
    :class:`~repro.pipeline.trace.CommittedTrace` sidecar when the
    grid's trace policy recorded one, so remote ``redirect`` batches
    replay a single parent-side functional run instead of re-running the
    interpreter per host (``trace_source`` in each result records what
    the worker actually used: ``shipped`` / ``local`` / ``live``; the
    sibling ``kernel_source`` records whether any point replayed through
    the compiled ``kernel`` or all ran ``live`` — workers lower shipped
    traces locally).

    Fault model: a lease that stops heartbeating (crashed or wedged
    worker) or a result that fails its checksum re-queues the job, up to
    ``max_attempts`` total attempts, after which every point of the
    batch fails with a :class:`QueueError` naming the attempt history —
    failures are surfaced per point, never silently dropped, and retried
    batches cannot double-report progress (the scheduler dedupes ticks).
    Deterministic worker-side *point* failures (a bad benchmark name)
    are final on the first attempt: they come back inside a valid result
    message and retrying could not change them.

    ``workers > 0`` spawns that many ``python -m repro.worker``
    subprocesses on this host (and respawns any that die while work is
    outstanding); ``workers=0`` assumes external workers are attached to
    ``broker_dir`` — how a multi-host cluster runs, with the directory
    on a shared filesystem.
    """

    name = "queue"
    source = "queue"

    def __init__(self, *, workers: int | None = None,
                 broker_dir: str | os.PathLike | None = None,
                 lease_timeout: float | None = None,
                 max_attempts: int | None = None,
                 poll: float = 0.02,
                 worker_args: tuple[str, ...] = (),
                 timeout: float | None = None) -> None:
        knobs = settings.current()
        self.workers = workers if workers is not None \
            else knobs.queue_workers
        self.broker_dir = broker_dir if broker_dir is not None \
            else knobs.queue_dir
        self.lease_timeout = float(
            lease_timeout if lease_timeout is not None
            else knobs.queue_lease)
        self.max_attempts = max(1, int(
            max_attempts if max_attempts is not None
            else knobs.queue_retries))
        self.poll = poll
        self.worker_args = tuple(worker_args)
        self.timeout = timeout
        # Requeue pacing: bounded attempts are self.max_attempts; the
        # policy adds exponential backoff with deterministic jitter
        # (REPRO_RETRY_BACKOFF) so a flapping worker pool is not hammered
        # with instant resubmits.
        self.retry_policy = RetryPolicy.from_env(max_attempts=self.max_attempts)
        # Per-execute observability (reset each run).
        self.trace_sources: dict[str, str] = {}
        self.kernel_sources: dict[str, str] = {}
        self.requeues = 0
        self.corrupt_results = 0
        self.respawns = 0

    # -- trace shipping ------------------------------------------------------

    @staticmethod
    def _trace_blobs(batches: Batches) -> dict[tuple, bytes]:
        """Serialized committed traces, one per shippable workload identity.

        Which identities to record (once, parent-side) is
        :func:`~repro.experiments.tracing.amortized_workloads`'s call —
        the same rule :class:`~repro.experiments.tracing.SharedTraces`
        applies in-process.  A workload that fails to record (e.g. an
        unknown benchmark) ships nothing — the workers will surface the
        same failure per point.
        """
        from repro.experiments.tracing import (
            amortized_workloads,
            record_workload,
        )

        blobs: dict[tuple, bytes] = {}
        for identity in amortized_workloads(
                point for group in batches.values() for point in group):
            try:
                blobs[identity] = record_workload(*identity).to_bytes()
            except Exception:  # noqa: BLE001 - workers report it per point
                continue
        return blobs

    # -- worker process management -------------------------------------------

    def _spawn_worker(self, broker_dir: pathlib.Path, index: int,
                      logs: list) -> subprocess.Popen:
        env = dict(os.environ)
        src_dir = _src_dir()
        parts = env.get("PYTHONPATH", "")
        if src_dir not in parts.split(os.pathsep):
            env["PYTHONPATH"] = os.pathsep.join(
                [src_dir] + ([parts] if parts else []))
        log = open(broker_dir / f"worker-{index}.log", "ab")
        logs.append(log)
        return subprocess.Popen(
            [sys.executable, "-m", "repro.worker",
             "--broker", str(broker_dir),
             "--poll", str(min(self.poll, 0.05)),
             "--idle-exit", "300",
             *self.worker_args],
            env=env, stdout=log, stderr=subprocess.STDOUT)

    # -- execution -----------------------------------------------------------

    def execute(self, batches: Batches, report: BackendReport, *,
                jobs: int) -> None:
        self.trace_sources = {}
        self.kernel_sources = {}
        self.requeues = 0
        self.corrupt_results = 0
        self.respawns = 0
        workers = jobs if self.workers is None else self.workers
        owns_dir = self.broker_dir is None
        broker_dir = pathlib.Path(
            tempfile.mkdtemp(prefix="repro-queue-") if owns_dir
            else self.broker_dir)
        broker = FileBroker(broker_dir, lease_timeout=self.lease_timeout)
        blobs = self._trace_blobs(batches)
        telemetry = obs.current()
        obs_ctx = obs.worker_context()

        jobs_map: dict[str, _QueueJob] = {}
        for batch_id, group in batches.items():
            blob = b""
            if any(p.speculation == "redirect" for p in group):
                identity = (group[0].benchmark, group[0].scale,
                            group[0].seed)
                blob = blobs.get(identity, b"")
            jobs_map[batch_id] = _QueueJob(batch_id, group, blob)
        outstanding = set(jobs_map)

        def submit(job_id: str) -> None:
            job = jobs_map[job_id]
            payload = {
                "job_id": job_id,
                "batch_id": job.batch_id,
                "attempt": job.attempts,
                "points": [point.to_dict() for point in job.points],
            }
            if obs_ctx is not None:
                # Workers join the telemetry run via the broker dir (the
                # only filesystem guaranteed shared); "dir" is dropped
                # because the parent's run directory may not exist there.
                payload["obs"] = {"run": obs_ctx["run"],
                                  "parent": obs_ctx["parent"]}
            broker.submit(job_id, payload, job.blob)
            obs.emit("submit", kind="queue", attrs={
                "job": job_id, "attempt": job.attempts,
                "points": len(job.points)})

        def retry(job_id: str, reason: str) -> None:
            job = jobs_map[job_id]
            job.history.append(f"attempt {job.attempts}: {reason}")
            broker.remove(job_id)
            if job.attempts >= self.max_attempts:
                outstanding.discard(job_id)
                obs.emit("retries_exhausted", kind="queue", attrs={
                    "job": job_id, "attempts": job.attempts,
                    "reason": reason[:200]})
                error = QueueError(
                    f"batch {job.batch_id} failed after "
                    f"{job.attempts} attempt(s): "
                    + "; ".join(job.history))
                # The attempt history rides along for the deadletter
                # quarantine (scheduler-side).
                error.history = list(job.history)
                for index in range(len(job.points)):
                    report.fail(job.batch_id, index, error)
                return
            job.attempts += 1
            self.requeues += 1
            obs.inc("queue.requeue")
            obs.emit("requeue", kind="queue", attrs={
                "job": job_id, "attempt": job.attempts,
                "reason": reason[:200]})
            pause = self.retry_policy.delay(job.attempts, job_id)
            if pause > 0.0:
                time.sleep(pause)
            submit(job_id)

        for job_id in jobs_map:
            submit(job_id)

        if workers == 0 and owns_dir:
            raise QueueError(
                "QueueBackend(workers=0) needs an external broker "
                "directory (broker_dir= / REPRO_QUEUE_DIR) that outside "
                "workers drain; a private temp directory would never "
                "complete")

        def drain_ticks() -> None:
            for job_id, index, duration in broker.drain_ticks():
                job = jobs_map.get(job_id)
                if job is not None:
                    report.tick(job.batch_id, index, duration)

        procs: list[subprocess.Popen] = []
        logs: list = []
        started = time.monotonic()
        respawns_since_progress = 0
        try:
            try:
                for index in range(workers):
                    procs.append(self._spawn_worker(broker_dir, index, logs))
            except OSError as exc:
                raise BackendUnavailable(
                    f"cannot spawn queue workers: {exc}") from exc
            while outstanding:
                drain_ticks()
                for job_id, outcome in broker.collect_results():
                    respawns_since_progress = 0
                    job = jobs_map.get(job_id)
                    if job is None or job_id not in outstanding:
                        continue  # stale duplicate from a reclaimed lease
                    if isinstance(outcome, MessageError):
                        self.corrupt_results += 1
                        obs.inc("queue.corrupt_result")
                        retry(job_id, f"corrupt result payload: {outcome}")
                        continue
                    payload = outcome.payload
                    entries = payload.get("entries")
                    if payload.get("malformed_job") or not isinstance(
                            entries, list) \
                            or len(entries) != len(job.points):
                        retry(job_id, payload.get("malformed_job")
                              or "malformed result entries")
                        continue
                    outstanding.discard(job_id)
                    broker.remove(job_id)  # withdraw any requeued twin
                    self.trace_sources[job.batch_id] = payload.get(
                        "trace_source", "live")
                    self.kernel_sources[job.batch_id] = payload.get(
                        "kernel_source", "live")
                    for index, entry in enumerate(entries):
                        status, item = entry[0], entry[1]
                        if status == "ok":
                            report.deliver(
                                job.batch_id, index, item,
                                entry[2] if len(entry) > 2 else None)
                        else:
                            error = RemotePointError(
                                f"{item.get('type', 'Error')}: "
                                f"{item.get('message', '')} "
                                f"(attempt {job.attempts} of "
                                f"{self.max_attempts})")
                            if item.get("traceback"):
                                error.add_note(
                                    "worker traceback:\n" + item["traceback"])
                            report.fail(job.batch_id, index, error)
                for job_id in broker.expired():
                    age = broker.lease_age(job_id)
                    if job_id in outstanding:
                        obs.inc("queue.lease_expired")
                        obs.emit("lease_expired", kind="lease", attrs={
                            "job": job_id,
                            "age": round(age, 3) if age is not None
                            else "unknown",
                            "timeout": self.lease_timeout})
                        retry(job_id, "lease expired"
                              + (f" (heartbeat {age:.1f}s old, timeout "
                                 f"{self.lease_timeout:.1f}s)"
                                 if age is not None else
                                 f" (heartbeat age unknown, timeout "
                                 f"{self.lease_timeout:.1f}s)"))
                    else:
                        broker.remove(job_id)
                if procs and outstanding:
                    for index, proc in enumerate(procs):
                        if proc.poll() is not None:
                            self.respawns += 1
                            respawns_since_progress += 1
                            obs.inc("queue.worker_respawn")
                            obs.emit("respawn", kind="worker", attrs={
                                "exited_pid": proc.pid,
                                "returncode": proc.returncode,
                                "respawns": self.respawns})
                            try:
                                procs[index] = self._spawn_worker(
                                    broker_dir, len(procs) + self.respawns,
                                    logs)
                            except OSError as exc:
                                raise BackendUnavailable(
                                    f"cannot respawn queue worker: {exc}"
                                ) from exc
                    # Workers crash-looping without ever producing a
                    # result means the worker environment is broken (an
                    # import error, a missing interpreter feature) — a
                    # retry can never fix that.  Report the backend
                    # unavailable (with the evidence) so the scheduler
                    # can degrade to a backend with no worker processes
                    # instead of respawning forever.
                    if respawns_since_progress > 3 * len(procs) + 5:
                        raise BackendUnavailable(
                            "queue workers are crash-looping without "
                            "producing results; diagnostics:\n"
                            + _crash_report(broker_dir))
                if telemetry is not None:
                    telemetry.gauge("queue.depth", broker.queued_count())
                    telemetry.gauge("queue.leased", broker.leased_count())
                    telemetry.gauge("queue.outstanding", len(outstanding))
                if self.timeout is not None \
                        and time.monotonic() - started > self.timeout:
                    raise QueueError(
                        f"queue run timed out after {self.timeout}s with "
                        f"{len(outstanding)} job(s) outstanding")
                if outstanding:
                    time.sleep(self.poll)
            # A worker writes all of a job's ticks before it publishes
            # the result, so one final drain catches ticks that landed
            # in the same poll iteration as the last result (mirrors
            # LocalPoolBackend's post-loop drain).
            drain_ticks()
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            for log in logs:
                try:
                    log.close()
                except OSError:
                    pass
            if telemetry is not None:
                # Adopt worker telemetry shards (written under the
                # broker dir, the shared filesystem) into the run before
                # the broker dir can be torn down.
                shard_root = broker_dir / "obs" / telemetry.run_id
                if shard_root.is_dir():
                    for shard in sorted(shard_root.glob("*.jsonl")):
                        telemetry.adopt_shard(shard)
            if owns_dir:
                shutil.rmtree(broker_dir, ignore_errors=True)


#: Registered backends, keyed by their ``REPRO_BACKEND`` selector.
BACKENDS: dict[str, type[ExecutionBackend]] = {
    backend.name: backend
    for backend in (SerialBackend, LocalPoolBackend, QueueBackend)
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
