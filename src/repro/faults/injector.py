"""Deterministic seeded fault injection (``REPRO_FAULTS=<seed>:<profile>``).

The injector is a schedule, not a monkeypatch: production code calls a
handful of explicit seams (``maybe_io_error``, ``mangle``,
``slow_delay``, ``heartbeat_stalled``, ``maybe_crash``) and each seam
consults a per-kind ``random.Random`` stream derived from the seed, so
the same spec injects the same faults at the same call sequence every
run.  With ``REPRO_FAULTS`` unset, :func:`active` returns ``None``
(one settings parse, no RNG) and every seam is a single ``is None``
check.

Spec grammar::

    REPRO_FAULTS = <seed>:<profile>[+<profile>...][:<budget>]

``<profile>`` names entries of :data:`PROFILES` (``crash``, ``io``,
``corrupt``, ``partial``, ``stall``, ``slow``, or the ``mixed``/``all``
blend).  ``<budget>``, when given, caps *each* fault kind at that many
injections per process; otherwise :data:`DEFAULT_BUDGETS` applies.
An unknown profile raises ``ValueError`` — a chaos run must never
silently degenerate into a clean run.

Every injected fault is logged to the telemetry layer (counter
``faults.injected`` plus a ``kind="fault"`` ledger event) so merged
ledgers show exactly what was injected where.
"""

from __future__ import annotations

import errno
import os
import pathlib
import random
import threading
import time

from repro import obs, settings

ENV_SPEC = "REPRO_FAULTS"

# Fault kinds (the taxonomy; DESIGN.md §12):
#   crash    worker process exits hard (os._exit) right after a point
#   io       transient OSError/EIO raised from a broker I/O call
#   corrupt  a single bit flipped in a payload before it hits disk
#   partial  a file truncated at k bytes before the atomic rename
#   stall    lease heartbeats stop for ~2 lease timeouts
#   slow     extra per-point delay in the worker
KINDS = ("crash", "io", "corrupt", "partial", "stall", "slow")

# Profile name -> {kind: injection probability per opportunity}.
PROFILES = {
    "crash": {"crash": 1.0},
    "io": {"io": 0.5},
    "corrupt": {"corrupt": 0.5},
    "partial": {"partial": 0.5},
    "stall": {"stall": 0.5},
    "slow": {"slow": 1.0},
    "mixed": {
        "crash": 0.5,
        "io": 0.3,
        "corrupt": 0.3,
        "partial": 0.3,
        "stall": 0.3,
        "slow": 0.3,
    },
}
PROFILES["all"] = PROFILES["mixed"]

# Per-process injection caps so a seeded schedule perturbs a run without
# making forward progress impossible (retries are bounded; an unbounded
# fault stream would turn every chaos run into retries-exhausted).
DEFAULT_BUDGETS = {
    "crash": 1,
    "io": 2,
    "corrupt": 2,
    "partial": 2,
    "stall": 1,
    "slow": 16,
}

CRASH_EXIT_CODE = 3
CRASH_MARKER = "faults-crash.marker"


class InjectedIOError(OSError):
    """Transient I/O fault raised by the injector (errno ``EIO``)."""

    def __init__(self, site: str):
        super().__init__(errno.EIO, f"injected fault: transient I/O error at {site}")
        self.site = site


def parse_spec(spec: str) -> tuple[str, dict[str, float], dict[str, int]]:
    """Split ``<seed>:<profiles>[:<budget>]`` into (seed, rates, budgets)."""
    parts = spec.split(":")
    if len(parts) not in (2, 3) or not parts[0] or not parts[1]:
        raise ValueError(
            f"{ENV_SPEC} must look like '<seed>:<profile>[:<budget>]', got {spec!r}"
        )
    seed, profile_field = parts[0], parts[1]
    rates: dict[str, float] = {}
    for name in profile_field.replace(",", "+").split("+"):
        name = name.strip()
        if name not in PROFILES:
            raise ValueError(
                f"{ENV_SPEC} profile {name!r} unknown; "
                f"choose from {sorted(PROFILES)}"
            )
        for kind, rate in PROFILES[name].items():
            rates[kind] = max(rates.get(kind, 0.0), rate)
    budgets = {kind: DEFAULT_BUDGETS[kind] for kind in rates}
    if len(parts) == 3:
        try:
            cap = int(parts[2])
        except ValueError:
            raise ValueError(f"{ENV_SPEC} budget must be an integer, got {parts[2]!r}")
        if cap < 1:
            raise ValueError(f"{ENV_SPEC} budget must be >= 1, got {cap}")
        budgets = {kind: cap for kind in rates}
    return seed, rates, budgets


class FaultInjector:
    """One seeded fault schedule, independent per fault kind.

    Each kind draws from its own ``random.Random(f"{seed}/{kind}")``, so
    e.g. enabling ``slow`` on top of ``crash`` does not shift *where*
    the crash lands.  Instances record everything they inject in
    ``self.injected`` (list of ``(kind, site)``) for tests.
    """

    def __init__(self, spec: str):
        self.spec = spec
        self.seed, self.rates, self.budgets = parse_spec(spec)
        self._rng = {
            kind: random.Random(f"{self.seed}/{kind}") for kind in self.rates
        }
        self._spent = {kind: 0 for kind in self.rates}
        self._stall_until = 0.0
        self.injected: list[tuple[str, str]] = []

    # -- schedule --------------------------------------------------------

    def _decide(self, kind: str) -> bool:
        rng = self._rng.get(kind)
        if rng is None:
            return False
        if self._spent[kind] >= self.budgets[kind]:
            return False
        if rng.random() >= self.rates[kind]:
            return False
        self._spent[kind] += 1
        return True

    def _log(self, kind: str, site: str, **extra) -> None:
        self.injected.append((kind, site))
        obs.inc("faults.injected", fault=kind, site=site)
        obs.emit(
            f"injected {kind} at {site}",
            kind="fault",
            attrs={"fault": kind, "site": site, "spec": self.spec, **extra},
        )

    # -- seams -----------------------------------------------------------

    def maybe_io_error(self, site: str) -> None:
        """Raise a transient :class:`InjectedIOError` per the schedule."""
        if self._decide("io"):
            self._log("io", site)
            raise InjectedIOError(site)

    def mangle(self, site: str, data: bytes) -> bytes:
        """Possibly corrupt ``data``: truncate-at-k or flip a single bit."""
        if data and self._decide("partial"):
            k = self._rng["partial"].randrange(len(data))
            self._log("partial", site, kept_bytes=k, total_bytes=len(data))
            return data[:k]
        if data and self._decide("corrupt"):
            rng = self._rng["corrupt"]
            index = rng.randrange(len(data))
            bit = 1 << rng.randrange(8)
            self._log("corrupt", site, byte=index)
            flipped = bytearray(data)
            flipped[index] ^= bit
            return bytes(flipped)
        return data

    def slow_delay(self, site: str) -> float:
        """Return an extra delay (seconds) to sleep at ``site``."""
        if not self._decide("slow"):
            return 0.0
        delay = 0.02 + self._rng["slow"].random() * 0.08
        self._log("slow", site, delay=round(delay, 4))
        return delay

    def heartbeat_stalled(self, lease_timeout: float) -> bool:
        """True while lease heartbeats should be suppressed."""
        now = time.monotonic()
        if now < self._stall_until:
            return True
        if self._decide("stall"):
            self._stall_until = now + 2.0 * lease_timeout + 0.05
            self._log("stall", "broker.renew", window=round(2.0 * lease_timeout, 3))
            return True
        return False

    def maybe_crash(self, broker_directory: str | os.PathLike) -> None:
        """Hard-kill this worker process per the schedule.

        Only fires on the main thread (in-process test drainers run the
        worker loop on helper threads and must never take the whole
        test process down), and only once per broker directory across
        *all* processes — a cross-process one-shot marker keeps
        respawned workers from crash-looping until the queue gives up.
        """
        if threading.current_thread() is not threading.main_thread():
            return
        if not self._decide("crash"):
            return
        marker = pathlib.Path(broker_directory) / CRASH_MARKER
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except OSError:
            return  # another worker already spent the crash for this run
        os.close(fd)
        self._log("crash", "worker.point", exit_code=CRASH_EXIT_CODE)
        telemetry = obs.current()
        if telemetry is not None:
            try:
                telemetry.snapshot_event()
            except Exception:
                pass
        os._exit(CRASH_EXIT_CODE)


# Memoized on (spec, pid): forked pool workers must not inherit the
# parent's RNG positions, and repeated seam calls must keep advancing
# the same RNG streams.
_ACTIVE: tuple[str | None, int, FaultInjector | None] = ("", -1, None)
_OVERRIDE: list[FaultInjector | None] = []


def active() -> FaultInjector | None:
    """The process-wide injector, or ``None`` when chaos is off."""
    if _OVERRIDE:
        return _OVERRIDE[-1]
    global _ACTIVE
    spec = settings.current().faults
    pid = os.getpid()
    cached_spec, cached_pid, injector = _ACTIVE
    if spec == cached_spec and pid == cached_pid:
        return injector
    injector = FaultInjector(spec) if spec else None
    _ACTIVE = (spec, pid, injector)
    return injector


class override:
    """Context manager pinning :func:`active` to a given injector (tests)."""

    def __init__(self, injector: FaultInjector | None):
        self.injector = injector

    def __enter__(self) -> FaultInjector | None:
        _OVERRIDE.append(self.injector)
        return self.injector

    def __exit__(self, *exc) -> None:
        _OVERRIDE.pop()
