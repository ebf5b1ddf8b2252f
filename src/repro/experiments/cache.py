"""Persistent result cache for experiment points.

Completed :class:`~repro.pipeline.stats.SimulationResult`\\ s are stored as
JSON files under ``benchmarks/results/cache/`` (one file per point, named
by the plan content hash from :func:`repro.experiments.plan.point_key`).
Because the key covers every outcome-affecting knob, a hit can be replayed
verbatim: the deserialized result compares equal to a fresh run.

Robustness rules:

* a corrupted, truncated or schema-mismatched cache file is treated as a
  miss (and the point recomputed) — never an error; since format 2 every
  entry carries a SHA-256 digest of its result payload, and a hit must
  be byte-for-byte the file ``put`` writes for its key, so every single
  flipped bit — even one that still parses to an equal result, such as
  an exponent's ``e`` turned ``E`` — is a miss;
* writes are atomic and durable (temp file + fsync + ``os.replace`` via
  :func:`repro.fsio.atomic_write_bytes`) so a crashed run — or a
  crashed *host* — cannot leave a half-written entry that later loads;
* ``REPRO_CACHE=0`` disables caching entirely; ``REPRO_CACHE_DIR``
  relocates the store.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

from repro import fsio, settings
from repro.pipeline.stats import SimulationResult

#: Format version of the cache files themselves (distinct from the plan
#: schema, which versions the *key*); mismatched entries are misses.
#: v2 added the result-payload digest.
CACHE_FORMAT_VERSION = 2


def _result_digest(result_dict: dict) -> str:
    canonical = json.dumps(result_dict, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _encode(key: str, result_dict: dict) -> bytes:
    """The one byte form of an entry: what ``put`` writes and ``get``
    accepts."""
    return json.dumps({"format": CACHE_FORMAT_VERSION, "key": key,
                       "result": result_dict,
                       "sha256": _result_digest(result_dict)}).encode()


class ResultCache:
    """Content-addressed JSON store of simulation results."""

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self.directory = pathlib.Path(directory) if directory is not None \
            else settings.current().cache_dir
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> pathlib.Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed cache key {key!r}")
        return self.directory / f"{key}.json"

    def get(self, key: str) -> SimulationResult | None:
        """Load a cached result; any malformed entry is a miss."""
        path = self._path(key)
        try:
            raw = path.read_bytes()
            result_dict = json.loads(raw)["result"]
            if raw != _encode(key, result_dict):
                raise ValueError("cache entry is not the bytes put wrote")
            result = SimulationResult.from_dict(result_dict)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Atomically and durably persist one result under its point key."""
        path = self._path(key)
        self.directory.mkdir(parents=True, exist_ok=True)
        fsio.atomic_write_bytes(path, _encode(key, result.to_dict()))

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    def clear(self) -> int:
        """Delete every cache entry (and any orphaned temp file left by a
        killed writer); returns the number of entries removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for path in self.directory.glob("*.tmp"):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed


def default_cache() -> ResultCache | None:
    """The process-wide default store, or ``None`` when caching is off."""
    knobs = settings.current()
    return ResultCache(knobs.cache_dir) if knobs.cache else None
