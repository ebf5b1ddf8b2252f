"""Chaos harness + resilience policies for the experiment service.

Three small modules (DESIGN.md §12):

* :mod:`repro.faults.injector` — deterministic, seeded fault injection
  (``REPRO_FAULTS=<seed>:<profile>``) into result-cache writes: partial
  writes and bit flips.  Every injected fault is logged as an obs event.
* :mod:`repro.faults.fsio` — crash-durable atomic file writes (fsync
  before rename, ``REPRO_FSYNC``) shared by the result cache and the
  deadletter store; also the single choke point where the injector
  mangles written bytes.
* :mod:`repro.faults.policy` — the poison-point
  :class:`~repro.faults.policy.DeadletterStore`.

A killed grid resumes from the result cache alone: every completed
point is an atomic, digest-guarded cache entry, so a restarted plan
replays those as hits and computes only the rest.  No point needs a
wall-clock deadline either: each one commits at most its instruction
budget.

Like the rest of the harness, nothing here can change a simulation
outcome: the package is excluded from the result-cache code
fingerprint, and with ``REPRO_FAULTS`` unset the injector is a single
memoized environment lookup.
"""

from repro.faults.injector import FaultInjector, active
from repro.faults.policy import DeadletterStore

__all__ = [
    "DeadletterStore",
    "FaultInjector",
    "active",
]
