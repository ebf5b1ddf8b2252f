"""Speculation subsystem: materialized wrong-path execution (DESIGN.md §2.2-§2.3).

The engine supports two speculation models, selected by
``MachineConfig.speculation``:

* ``"redirect"`` (default) — the seed's accounting model: a misprediction
  restarts fetch after the branch resolves; wrong-path instructions are
  never materialized and no state needs repair.
* ``"wrongpath"`` — a mispredicted branch checkpoints the engine's
  frontend state, fetches and renames a wrong-path instruction stream
  synthesized by this package (:mod:`repro.speculation.wrongpath`) that
  pollutes the caches and the DDT, then squashes it through
  ``rollback_to`` and restores the checkpoint when the branch resolves
  (``PipelineEngine._run_wrong_path``).  Each episode is synthesized once
  per workload and kept in an :class:`~repro.speculation.wrongpath.
  EpisodeStore` that every configuration of the workload reads.
"""

from repro.pipeline.config import SPECULATION_MODES
from repro.speculation.wrongpath import EpisodeStore, WrongPathCore

__all__ = [
    "EpisodeStore",
    "SPECULATION_MODES",
    "WrongPathCore",
]
