"""Poison-point quarantine (DESIGN.md §12): :class:`DeadletterStore`."""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro import obs, settings


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
