"""The resilience policy layer (DESIGN.md §12).

* per-point deadlines — ``REPRO_POINT_TIMEOUT`` arms a SIGALRM timer
  around each point's execution; an overrun raises the typed
  :class:`PointTimeout` instead of hanging the grid;
* poison-point quarantine — points that fail are written to a
  ``deadletter/`` directory with their error and its notes
  (:class:`DeadletterStore`, surfaced via ``python -m repro.obs
  deadletter``).
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import signal
import sys
import threading
import time
from typing import Iterator

from repro import obs, settings


class PointTimeout(RuntimeError):
    """A point exceeded ``REPRO_POINT_TIMEOUT`` seconds.

    Deliberately *not* a ``TimeoutError``: ``TimeoutError`` is an
    ``OSError`` subclass (PEP 3151), which callers commonly treat as
    transient — a deadline overrun is final.
    """


# -- per-point deadlines ------------------------------------------------------


@contextlib.contextmanager
def point_deadline(seconds: float | None = None) -> Iterator[None]:
    """Raise :class:`PointTimeout` if the body runs past the deadline.

    SIGALRM-based, so it interrupts a simulation stuck in pure-Python
    compute.  Only arms on the main thread (signals cannot be delivered
    elsewhere); pool workers execute points on their main thread, which
    is where a runaway simulation would actually hang.

    The timeout is raised only in frames the deadline guards: code of
    the ``repro`` package, or the frame that opened the deadline.  A
    firing that lands anywhere else — a gc callback, an unraisable or
    import hook, any foreign frame the guarded code merely triggered —
    returns without raising, and the timer's 5 ms repeat retries until
    a firing lands in guarded code.  (Raised inside a callback, the
    exception would be swallowed as unraisable, or break the hook.)
    """
    if seconds is None:
        seconds = settings.current().point_timeout
    if seconds <= 0.0 or threading.current_thread() is not threading.main_thread():
        yield
        return

    # Frame 0 is this generator, 1 is contextlib's __enter__, 2 the
    # frame running the ``with`` body.
    opener = sys._getframe(2)

    def _overrun(signum, frame):
        module = frame.f_globals.get("__name__", "") if frame else ""
        if frame is opener or module == "repro" \
                or module.startswith("repro."):
            raise PointTimeout(
                f"point exceeded REPRO_POINT_TIMEOUT={seconds:g}s deadline")

    previous_handler = signal.signal(signal.SIGALRM, _overrun)
    # Repeating interval: a firing that lands outside guarded code is
    # ignored, and the next firing retries.
    signal.setitimer(signal.ITIMER_REAL, seconds, 0.005)
    try:
        yield
    finally:
        # A repeat firing can land inside this very block and abort the
        # disarm — loop until setitimer(0) + handler restore both stick.
        while True:
            try:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous_handler)
                break
            except PointTimeout:
                continue


# -- deadletter quarantine ----------------------------------------------------


class DeadletterStore:
    """Poison-point quarantine: one JSON file per failed point.

    Entries carry the point, its cache key, the final error and its
    notes (the worker traceback), so a poisoned grid is diagnosable
    after the fact (``python -m repro.obs deadletter``) instead of only
    through a traceback that scrolled by.
    """

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = pathlib.Path(directory) if directory is not None \
            else settings.current().deadletter_dir
        self._seq = 0

    def add(self, entry: dict) -> pathlib.Path:
        from repro.faults import fsio
        self.directory.mkdir(parents=True, exist_ok=True)
        entry = dict(entry)
        entry.setdefault("ts", time.time())
        key = str(entry.get("key", "unkeyed"))[:16]
        self._seq += 1
        path = self.directory / f"{key}-{os.getpid()}-{self._seq}.json"
        fsio.atomic_write_bytes(
            path, (json.dumps(entry, indent=2, sort_keys=True) + "\n").encode())
        obs.inc("deadletter.quarantined")
        return path

    def entries(self) -> list[dict]:
        if not self.directory.is_dir():
            return []
        entries = []
        for path in sorted(self.directory.glob("*.json")):
            try:
                record = json.loads(path.read_text())
            except (OSError, ValueError):
                continue  # torn/corrupt entries don't hide the others
            if isinstance(record, dict):
                record["_path"] = str(path)
                entries.append(record)
        return entries
