"""Chaos smoke: seeded fault schedules vs the queue backend (ISSUE 8).

Computes a fault-free serial baseline, then re-runs the same grid on
the queue backend under several ``REPRO_FAULTS`` seeds (profile
``mixed``: worker crashes, transient broker I/O errors, payload
corruption, partial writes, heartbeat stalls, slow points) and asserts
the resilience property end to end: every chaotic run either completes
**bit-for-bit equal** to the baseline or fails with a **typed** error —
never a hang (a queue timeout fails the run), never silent divergence.

Each run executes under ``REPRO_OBS=1``; afterwards the merged run
ledger is checked for the ``kind="fault"`` events the injector logs, so
the flight recorder provably records what was injected where.  CI runs
this as the ``chaos-smoke`` job at ``REPRO_SCALE=0.05`` and uploads the
ledgers (always) and the deadletter quarantine (on failure); locally::

    REPRO_SCALE=0.05 REPRO_OBS=1 python examples/chaos_smoke.py
"""

import os

from repro.experiments.backends import QueueBackend
from repro.experiments.broker import QueueError
from repro.experiments.runner import run_suite
from repro.faults.policy import PointTimeout, RetriesExhausted
from repro.obs.ledger import read_events
from repro.settings import current

GRID = dict(configurations=("baseline", "current"), depths=(20, 40),
            benchmarks=("compress",))
SEEDS = (1, 2, 3)
PROFILE = os.environ.get("CHAOS_PROFILE", "mixed")


def newest_run_events() -> list[dict]:
    root = current().obs_dir
    runs = sorted(path for path in root.iterdir()
                  if path.is_dir() and path.name.startswith("run-"))
    if not runs:
        return []
    ledger = runs[-1] / "ledger.jsonl"
    return read_events(ledger) if ledger.exists() else []


def main() -> None:
    os.environ.pop("REPRO_FAULTS", None)
    serial = run_suite(**GRID, jobs=1, use_cache=False, backend="serial")
    print(f"[chaos-smoke] baseline: {len(serial)} points (serial, "
          "fault-free)")

    total_faults = 0
    for seed in SEEDS:
        spec = f"{seed}:{PROFILE}"
        os.environ["REPRO_FAULTS"] = spec
        backend = QueueBackend(workers=2, lease_timeout=5.0, poll=0.02,
                               timeout=900.0, max_attempts=4)
        try:
            try:
                chaotic = run_suite(**GRID, jobs=2, use_cache=False,
                                    backend=backend)
            except (QueueError, RetriesExhausted, PointTimeout) as exc:
                assert "timed out" not in str(exc), (
                    f"REPRO_FAULTS={spec} hung the grid: {exc}")
                outcome = f"typed failure ({type(exc).__name__})"
            else:
                assert chaotic == serial, (
                    f"REPRO_FAULTS={spec} silently diverged from the "
                    "fault-free baseline")
                outcome = "bit-identical"
        finally:
            os.environ.pop("REPRO_FAULTS", None)

        faults = [event for event in newest_run_events()
                  if event.get("kind") == "fault"]
        for event in faults:
            attrs = event.get("attrs") or {}
            assert attrs.get("fault") and attrs.get("site"), (
                f"fault event missing attribution: {event}")
            assert attrs.get("spec") == spec
        total_faults += len(faults)
        injected = sorted({(a.get("fault"), a.get("site")) for a in
                           ((e.get("attrs") or {}) for e in faults)})
        print(f"[chaos-smoke] REPRO_FAULTS={spec}: {outcome}; "
              f"{len(faults)} fault(s) in the run ledger "
              f"{injected if injected else ''}".rstrip())

    assert total_faults > 0, (
        f"no faults injected across seeds {SEEDS} — the chaos harness "
        "is not wired in")
    print(f"[chaos-smoke] OK: {len(SEEDS)} seeded schedules, "
          f"{total_faults} injected faults, no hangs, no divergence")


if __name__ == "__main__":
    main()
