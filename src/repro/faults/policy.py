"""The unified resilience policy layer (DESIGN.md §12).

One :class:`RetryPolicy` replaces the scattered fixed-retry logic:
bounded attempts, exponential backoff with *deterministic* jitter (a
hash of the retry key, not a clock or RNG — two runs of the same grid
back off identically), shared by broker I/O and queue job requeues.
Alongside it:

* per-point deadlines — ``REPRO_POINT_TIMEOUT`` arms a SIGALRM timer
  around each point's execution; an overrun raises the typed
  :class:`PointTimeout` instead of hanging the grid;
* poison-job quarantine — points that fail all attempts are written to
  a ``deadletter/`` directory with their full attempt history
  (:class:`DeadletterStore`, surfaced via ``python -m repro.obs
  deadletter``);
* the degradation knob — ``REPRO_DEGRADE`` (default on, read by the
  scheduler) walks the queue → local → serial ladder when a backend
  reports itself unavailable.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import signal
import sys
import threading
import time
from typing import Callable, Iterator

from repro import obs, settings

DEFAULT_BACKOFF = 0.05
DEFAULT_ATTEMPTS = 3


class PointTimeout(RuntimeError):
    """A point exceeded ``REPRO_POINT_TIMEOUT`` seconds.

    Deliberately *not* a ``TimeoutError``: ``TimeoutError`` is an
    ``OSError`` subclass (PEP 3151), and retry policies treat ``OSError``
    as transient — a deadline overrun is final, not transient.
    """


class RetriesExhausted(RuntimeError):
    """An operation failed every attempt its :class:`RetryPolicy` allowed."""

    def __init__(self, what: str, attempts: int, history: list[str]):
        super().__init__(
            f"{what} failed after {attempts} attempt(s): " + "; ".join(history))
        self.what = what
        self.attempts = attempts
        self.history = list(history)


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts + exponential backoff + deterministic jitter.

    ``delay(attempt, key)`` for attempt ``n`` (1-based; the delay taken
    *before* attempt ``n``) is ``backoff * factor**(n-2)`` capped at
    ``cap``, scaled into ``[1/2, 1]`` by a SHA-256 hash of
    ``f"{key}:{attempt}"`` — jitter that desynchronizes concurrent
    retriers yet is bit-stable across runs.
    """

    max_attempts: int = DEFAULT_ATTEMPTS
    backoff: float = DEFAULT_BACKOFF
    factor: float = 2.0
    cap: float = 2.0

    @classmethod
    def from_env(cls, *, max_attempts: int | None = None) -> "RetryPolicy":
        """Policy from ``REPRO_RETRY_BACKOFF`` and ``REPRO_QUEUE_RETRIES``
        (``max_attempts`` overrides the latter)."""
        knobs = settings.current()
        if max_attempts is None:
            max_attempts = knobs.queue_retries
        return cls(max_attempts=max(1, max_attempts),
                   backoff=max(0.0, knobs.retry_backoff))

    def delay(self, attempt: int, key: str = "") -> float:
        if attempt <= 1 or self.backoff <= 0.0:
            return 0.0
        base = min(self.backoff * self.factor ** (attempt - 2), self.cap)
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).hexdigest()[:8]
        jitter = 0.5 + 0.5 * (int(digest, 16) / 0xFFFFFFFF)
        return base * jitter

    def call(self, fn: Callable[[], object], *, key: str, what: str,
             retry_on: tuple[type[BaseException], ...] = (OSError,)):
        """Run ``fn`` under this policy; raise :class:`RetriesExhausted`.

        ``PointTimeout`` is never retried even if listed in ``retry_on``
        (a deadline overrun is final by definition).
        """
        history: list[str] = []
        for attempt in range(1, self.max_attempts + 1):
            pause = self.delay(attempt, key)
            if pause > 0.0:
                time.sleep(pause)
            try:
                return fn()
            except PointTimeout:
                raise
            except retry_on as exc:
                history.append(f"attempt {attempt}: "
                               f"{type(exc).__name__}: {exc}")
                obs.inc("retry.attempt", what=what)
        raise RetriesExhausted(what, self.max_attempts, history)


# -- per-point deadlines ------------------------------------------------------


@contextlib.contextmanager
def point_deadline(seconds: float | None = None) -> Iterator[None]:
    """Raise :class:`PointTimeout` if the body runs past the deadline.

    SIGALRM-based, so it interrupts a simulation stuck in pure-Python
    compute.  Only arms on the main thread (signals cannot be delivered
    elsewhere); pool/queue workers execute points on their main thread,
    which is where a runaway simulation would actually hang.

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

    Entries carry the point, its cache key, the final error and the
    full attempt history, so a poisoned grid is diagnosable after the
    fact (``python -m repro.obs deadletter``) instead of only through a
    traceback that scrolled by.
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
