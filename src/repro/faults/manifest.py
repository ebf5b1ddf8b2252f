"""Crash-safe run manifests: a killed grid resumes where it died.

A manifest is an append-only JSONL file named by the *plan hash* — the
SHA-256 over the plan's sorted point keys (which already fold in every
config knob and the simulator source fingerprint).  The first line is a
header identifying the plan; each subsequent line records one completed
point as ``{"kind": "result", "key": ..., "payload": ..., "sha": ...}``
where ``sha`` is a digest of the line's own content.  Appends are
flushed (and fsynced when ``REPRO_FSYNC`` is on) per line, so a SIGKILL
mid-grid leaves at worst one torn final line — which the self-digest
detects and skips on reload.  Restarting the same plan with the same
manifest directory replays the recorded payloads through the normal
result-delivery path (``source="manifest"`` progress events) and only
schedules the remainder; the resumed grid converges to bit-identical
results.

Enable with ``REPRO_MANIFEST=1`` (directory from ``REPRO_MANIFEST_DIR``,
default ``benchmarks/results/manifests/``) or pass ``manifest=<dir>``
to ``run_plan``/``run_suite`` explicitly.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Iterable

from repro import settings

MANIFEST_SCHEMA_VERSION = 1


def plan_hash(keys: Iterable[str]) -> str:
    """Identity of a plan: SHA-256 over its sorted point keys."""
    digest = hashlib.sha256()
    for key in sorted(keys):
        digest.update(key.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _line_sha(kind: str, key: str, payload: dict) -> str:
    canonical = json.dumps({"kind": kind, "key": key, "payload": payload},
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def resolve_manifest(manifest, keys: Iterable[str]) -> "RunManifest | None":
    """Map ``run_plan``'s ``manifest=`` argument to an open manifest.

    ``False`` disables outright; ``None`` defers to ``REPRO_MANIFEST``;
    ``True`` uses the default directory; a path-like selects a
    directory.  A passed-in :class:`RunManifest` is returned as-is.
    """
    if manifest is False:
        return None
    if isinstance(manifest, RunManifest):
        return manifest
    if manifest is None or manifest is True:
        knobs = settings.current()
        if manifest is None and not knobs.manifest:
            return None
        directory = knobs.manifests_dir
    else:
        directory = pathlib.Path(manifest)
    return RunManifest.open(directory, keys)


class RunManifest:
    """One plan's append-only completion log; see module docstring."""

    def __init__(self, path: pathlib.Path, plan: str,
                 completed: dict[str, dict], handle) -> None:
        self.path = path
        self.plan = plan
        self.completed = completed  # key -> recorded result payload
        self._handle = handle
        self._keys_recorded = set(completed)

    @classmethod
    def open(cls, directory: str | os.PathLike, keys: Iterable[str],
             ) -> "RunManifest":
        """Open (creating or resuming) the manifest for this plan."""
        keys = list(keys)
        wanted = set(keys)
        plan = plan_hash(keys)
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{plan[:32]}.jsonl"
        completed: dict[str, dict] = {}
        valid_header = False
        if path.is_file():
            try:
                lines = path.read_text().splitlines()
            except OSError:
                lines = []
            for index, line in enumerate(lines):
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn line (SIGKILL mid-append): skip
                if not isinstance(record, dict):
                    continue
                if index == 0:
                    valid_header = (record.get("kind") == "plan"
                                    and record.get("plan") == plan
                                    and record.get("v") == MANIFEST_SCHEMA_VERSION)
                    if not valid_header:
                        break  # different/newer plan squatting the name
                    continue
                if not valid_header or record.get("kind") != "result":
                    continue
                key = record.get("key")
                payload = record.get("payload")
                if (key in wanted and isinstance(payload, dict)
                        and record.get("sha") == _line_sha("result", key, payload)):
                    completed[key] = payload
        mode = "a" if valid_header else "w"
        handle = open(path, mode, encoding="utf-8")
        manifest = cls(path, plan, completed, handle)
        if not valid_header:
            manifest._append({"kind": "plan", "v": MANIFEST_SCHEMA_VERSION,
                              "plan": plan, "points": len(keys)})
        return manifest

    def _append(self, record: dict) -> None:
        try:
            self._handle.write(json.dumps(record, sort_keys=True,
                                          separators=(",", ":")) + "\n")
            self._handle.flush()
            if settings.current().fsync:
                os.fsync(self._handle.fileno())
        except (OSError, ValueError):
            pass  # a failing manifest write must never fail the grid

    def record(self, key: str, payload: dict) -> None:
        """Append one completed point (idempotent per key)."""
        if key in self._keys_recorded:
            return
        self._keys_recorded.add(key)
        self._append({"kind": "result", "key": key, "payload": payload,
                      "sha": _line_sha("result", key, payload)})

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass
