"""Standalone queue worker: ``python -m repro.worker --broker DIR``.

Leases benchmark-pure batch jobs from a
:class:`~repro.experiments.broker.FileBroker` directory, simulates every
point through the same batch loop
(:func:`~repro.experiments.backends.run_batch`) as the serial and
local-pool backends, and publishes an integrity-checked result message
per job.  Any number of workers — on
this host or, with the broker directory on a shared filesystem, on many
hosts — drain one queue; the scheduler side is
:class:`~repro.experiments.backends.QueueBackend`.

Per job the worker:

* decodes the shipped points (and the serialized
  :class:`~repro.pipeline.trace.CommittedTrace` sidecar, when the
  scheduler recorded one — ``redirect`` points then replay the parent's
  single functional run instead of re-interpreting the program);
* ticks the broker after every completed point (which also renews the
  job lease, so a long batch never spuriously expires while it makes
  progress);
* isolates failures per point: a bad point yields an ``("error", ...)``
  entry, its siblings' results still ship.

A worker that dies mid-batch simply stops heartbeating; the scheduler
requeues the job after ``lease_timeout`` and another worker picks it
up.  **SIGTERM is graceful**: the worker finishes the point it is
executing, flushes its telemetry shard, hands the lease *back to the
queue* (so the next worker starts immediately instead of waiting out
the lease timeout) and exits 0 — no completed-point tick is ever lost.
Exit codes: 0 (idle-exit / ``--max-jobs`` / SIGTERM), 3 (injected
crash).

Fault injection (used by the test suite, harmless in production):

* ``--crash-after-points N`` — hard-exit (``os._exit``) after N
  completed points, *once per broker directory*: the first worker to
  claim the ``crash.marker`` sentinel crashes, respawned or sibling
  workers proceed normally, making kill-mid-batch tests deterministic;
* ``--corrupt-results N`` — deliberately corrupt the first N result
  messages this process publishes (the scheduler must detect the
  checksum failure and requeue, never deliver them);
* ``REPRO_FAULTS=<seed>:<profile>`` (:mod:`repro.faults.injector`) —
  the seeded chaos schedule: slow-point delays and schedule-driven
  crashes inject here; heartbeat stalls and transient broker I/O
  errors inject inside the broker calls this module makes.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
import traceback

from repro import obs
from repro.experiments.backends import run_batch
from repro.experiments.broker import FileBroker, LeasedJob
from repro.experiments.plan import ExperimentPoint
from repro.faults.injector import active as _faults_active
from repro.pipeline.kernel import LOWER_TICK
from repro.pipeline.trace import CommittedTrace


def _describe_exception(exc: Exception) -> dict:
    """JSON-safe remote-error shape (rebuilt as RemotePointError)."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }


def _claim_crash_marker(broker: FileBroker) -> bool:
    """One-shot crash token: only the first claimant may crash."""
    try:
        fd = os.open(broker.directory / "crash.marker",
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except OSError:
        return False
    os.close(fd)
    return True


class _WorkerState:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.completed_points = 0
        self.corrupt_budget = args.corrupt_results
        self.jobs_done = 0
        self.stop = False  # set by the SIGTERM handler


def _run_job(broker: FileBroker, leased: LeasedJob,
             state: _WorkerState) -> None:
    job_id = leased.job_id
    if leased.message is None:
        # The stored job file itself failed to decode; report that so
        # the scheduler retries from its pristine copy.
        broker.complete(job_id, {
            "job_id": job_id,
            "malformed_job": f"job message undecodable: {leased.error}",
        })
        return
    payload = leased.message.payload
    try:
        points = [ExperimentPoint.from_dict(entry)
                  for entry in payload["points"]]
        trace = None
        if leased.message.blob:
            trace = CommittedTrace.from_bytes(leased.message.blob)
    except Exception as exc:  # noqa: BLE001 - includes TraceError
        broker.complete(job_id, {
            "job_id": job_id,
            "malformed_job": f"{type(exc).__name__}: {exc}",
        })
        return

    # Join the scheduler's telemetry run, if the job carries one: the
    # shard stream lives under the broker directory (the only filesystem
    # guaranteed shared); the scheduler adopts it before broker teardown.
    # A crash mid-batch (os._exit included) leaves the per-line-flushed
    # stream readable, its unclosed batch span marking where we died.
    obs_ctx = payload.get("obs")
    shard = None
    if isinstance(obs_ctx, dict) and obs_ctx.get("run"):
        shard = obs.worker_shard(
            obs_ctx,
            shard_dir=broker.directory / "obs" / str(obs_ctx["run"]))

    entries: list[list] = []
    seen: set[str] = set()  # trace/kernel sources the points reported
    injector = _faults_active()

    def before_point(index: int) -> bool:
        if state.stop:
            # SIGTERM between points: the completed points' ticks are
            # already on disk; hand the lease back so the next worker
            # re-runs the batch immediately instead of waiting out the
            # lease timeout.
            if broker.release(job_id):
                obs.emit("released", kind="worker", attrs={
                    "job": job_id, "completed_points": index})
                return False
            # The lease is no longer ours (expired + requeued);
            # finishing and completing is still correct — the scheduler
            # dedupes duplicate results.
        if injector is not None:
            delay = injector.slow_delay("worker.point")
            if delay > 0.0:
                time.sleep(delay)
        return True

    def ok(index: int, payload: dict, meta: dict, duration: float) -> None:
        entries.append(["ok", payload, meta])
        seen.update((meta["trace_source"], meta["kernel_source"]))
        broker.tick(job_id, index, duration)
        state.completed_points += 1
        if (state.args.crash_after_points is not None
                and state.completed_points >= state.args.crash_after_points
                and _claim_crash_marker(broker)):
            os._exit(3)  # injected crash: lease left to expire
        if injector is not None:
            # Seeded schedule-driven crash (REPRO_FAULTS): same
            # one-per-broker-dir semantics, marker owned by the injector.
            injector.maybe_crash(broker.directory)

    def error(_index: int, exc: Exception) -> None:
        entries.append(["error", _describe_exception(exc)])

    with obs.activate(shard):
        with obs.span(payload.get("batch_id") or job_id, kind="batch",
                      attrs={"batch_id": payload.get("batch_id"),
                             "job": job_id,
                             "attempt": payload.get("attempt"),
                             "points": len(points),
                             "worker": os.getpid()}):
            # Shipped traces are lowered locally, once per job; the
            # pseudo-tick shows up scheduler-side as a "lower" phase
            # (and renews the lease like any other tick).
            finished = run_batch(
                points, shipped=trace, on_ok=ok, on_error=error,
                before_point=before_point,
                on_lower=lambda: broker.tick(job_id, LOWER_TICK))
            if finished:
                trace_source = "shipped" if trace is not None else (
                    "local" if "local" in seen else "live")
                kernel_source = "kernel" if "kernel" in seen else "live"
                obs.emit("sources", kind="worker", attrs={
                    "trace_source": trace_source,
                    "kernel_source": kernel_source})
        if shard is not None:
            shard.snapshot_event()
    if not finished:
        return

    result_payload = {
        "job_id": job_id,
        "batch_id": payload.get("batch_id"),
        "attempt": payload.get("attempt"),
        "entries": entries,
        "trace_source": trace_source,
        "kernel_source": kernel_source,
        "worker": f"{os.getpid()}",
    }
    if state.corrupt_budget > 0:
        state.corrupt_budget -= 1
        from repro.experiments.broker import encode_message

        data = bytearray(encode_message("result", result_payload))
        data[len(data) // 2] ^= 0xFF  # injected payload corruption
        broker.complete(job_id, {}, raw=bytes(data))
    else:
        broker.complete(job_id, result_payload)


def _record_worker_error(broker: FileBroker, leased: LeasedJob,
                         exc: BaseException) -> None:
    """Append one structured crash line to ``<broker>/obs/worker-errors``.

    The scheduler's crash-loop diagnostics (and ``python -m repro.obs``
    users pointed at a preserved broker directory) attribute worker
    deaths to specific batches from these lines; the raw stdout/stderr
    log remains the fallback.  Best-effort: recording must never mask
    the original failure.
    """
    from repro.obs.ledger import append_jsonl

    payload = leased.message.payload if leased.message is not None else {}
    try:
        append_jsonl(broker.directory / "obs" / "worker-errors.jsonl", {
            "ts": time.time(),
            "worker": os.getpid(),
            "job": leased.job_id,
            "batch": payload.get("batch_id"),
            "attempt": payload.get("attempt"),
            "lease": str(broker.leased_dir / f"{leased.job_id}.msg"),
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        })
    except Exception:  # noqa: BLE001 - diagnostics only
        pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.worker",
        description="Queue worker for the distributed experiment backend")
    parser.add_argument("--broker", required=True,
                        help="broker directory (shared with the scheduler)")
    parser.add_argument("--poll", type=float, default=0.05,
                        help="seconds between lease attempts when idle")
    parser.add_argument("--idle-exit", type=float, default=None,
                        help="exit 0 after this many consecutive idle "
                             "seconds (default: run forever)")
    parser.add_argument("--max-jobs", type=int, default=None,
                        help="exit 0 after completing this many jobs")
    parser.add_argument("--crash-after-points", type=int, default=None,
                        help="fault injection: hard-exit after N completed "
                             "points (once per broker directory)")
    parser.add_argument("--corrupt-results", type=int, default=0,
                        help="fault injection: corrupt the first N result "
                             "messages this worker publishes")
    args = parser.parse_args(argv)

    broker = FileBroker(args.broker)
    state = _WorkerState(args)
    # Graceful SIGTERM: finish the in-flight point, release the lease,
    # exit 0.  Signal handlers only install on the main thread (tests
    # drive main() from helper threads; subprocess workers are always
    # main-thread).
    previous_handler = None
    if threading.current_thread() is threading.main_thread():
        def _graceful(_signum, _frame) -> None:
            state.stop = True
        previous_handler = signal.signal(signal.SIGTERM, _graceful)
    try:
        idle_since = time.monotonic()
        while True:
            if state.stop:
                return 0
            leased = broker.lease()
            if leased is None:
                if (args.idle_exit is not None
                        and time.monotonic() - idle_since
                        >= args.idle_exit):
                    return 0
                time.sleep(args.poll)
                continue
            try:
                _run_job(broker, leased, state)
            except Exception as exc:  # noqa: BLE001 - recorded, then fatal
                _record_worker_error(broker, leased, exc)
                raise
            if state.stop:
                return 0
            state.jobs_done += 1
            idle_since = time.monotonic()
            if args.max_jobs is not None \
                    and state.jobs_done >= args.max_jobs:
                return 0
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)


if __name__ == "__main__":
    sys.exit(main())
