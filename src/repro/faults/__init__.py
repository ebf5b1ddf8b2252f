"""Chaos harness + resilience policies for the experiment service.

Four small modules (DESIGN.md §12):

* :mod:`repro.faults.injector` — deterministic, seeded fault injection
  (``REPRO_FAULTS=<seed>:<profile>``) into result-cache writes: partial
  writes and bit flips.  Every injected fault is logged as an obs event.
* :mod:`repro.faults.fsio` — crash-durable atomic file writes (fsync
  before rename, ``REPRO_FSYNC``) shared by the result cache and the
  deadletter store; also the single choke point where the injector
  mangles written bytes.
* :mod:`repro.faults.policy` — per-point deadlines
  (``REPRO_POINT_TIMEOUT``) and the poison-point
  :class:`~repro.faults.policy.DeadletterStore`.
* :mod:`repro.faults.manifest` — crash-safe run manifests
  (``REPRO_MANIFEST``): a killed grid restarted with the same plan
  skips completed points and converges to bit-identical results.

Like the rest of the harness, nothing here can change a simulation
outcome: the package is excluded from the result-cache code
fingerprint, and with ``REPRO_FAULTS`` unset the injector is a single
memoized environment lookup.
"""

from repro.faults.injector import FaultInjector, active
from repro.faults.policy import (
    DeadletterStore,
    PointTimeout,
    point_deadline,
)

__all__ = [
    "DeadletterStore",
    "FaultInjector",
    "PointTimeout",
    "active",
    "point_deadline",
]
