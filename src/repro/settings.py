"""Every ``REPRO_*`` environment knob, parsed in one place.

:func:`current` reads ``os.environ`` into a frozen :class:`Settings`
snapshot, one field per knob, with one grammar for all of them:

* booleans accept ``1/true/yes/on`` and ``0/false/no/off`` in any case;
* surrounding spaces are stripped, and an empty or unset value means the
  field's default;
* a value that does not parse raises :class:`SettingsError` naming the
  variable — a typo never silently falls back to a default.

Domain checks that need more than a type (backend names, view names,
the fault-spec grammar) stay with their modules, which read the raw
string from the snapshot.  ``current()`` parses afresh on every call
(tens of microseconds, never inside a replay loop), so a changed
environment takes effect at once; pool and queue workers inherit the
parent's environment and parse the same values.

Like ``worker.py`` and ``serve.py`` this module is harness, not
simulator: it is excluded from the result-cache code fingerprint, and
it imports only the standard library so every layer (``obs`` and
``faults`` included) can use it without an import cycle.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib

_ON = ("1", "true", "yes", "on")
_OFF = ("0", "false", "no", "off")

#: The repository root when running from a source checkout, else None
#: (an installed package keeps its results under the working directory).
_CHECKOUT = pathlib.Path(__file__).resolve().parents[2]
if not (_CHECKOUT / "pyproject.toml").is_file():
    _CHECKOUT = None


class SettingsError(ValueError):
    """A ``REPRO_*`` variable holds a value its grammar rejects."""


def _results_dir(name: str) -> pathlib.Path:
    """Default store ``benchmarks/results/<name>`` (checkout or cwd)."""
    root = _CHECKOUT if _CHECKOUT is not None else pathlib.Path.cwd()
    return root / "benchmarks" / "results" / name


def _flag(raw: str) -> bool:
    value = raw.lower()
    if value in _ON:
        return True
    if value in _OFF:
        return False
    raise ValueError("expected one of 1/true/yes/on or 0/false/no/off")


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError("expected an integer") from None


def _count(raw: str) -> int:
    value = _int(raw)
    if value < 0:
        raise ValueError("expected a non-negative integer")
    return value


def _float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError("expected a number") from None


def _jobs(raw: str) -> int:
    value = _int(raw)
    return value if value > 0 else os.cpu_count() or 1


def _seconds(raw: str) -> float:
    """A duration in seconds; an off spelling or a value <= 0 is 0 (off)."""
    if raw.lower() in _OFF:
        return 0.0
    return max(0.0, _float(raw))


def _interval(raw: str) -> int:
    """Cycles between samples: off = 0, on (or ``1``) = 50 000."""
    if raw.lower() in _OFF + _ON:
        return 50_000 if _flag(raw) else 0
    value = _int(raw)
    return value if value > 0 else 0


def _knob(env: str, default=None, parse=str, *, factory=None):
    if factory is not None:
        return dataclasses.field(default_factory=factory,
                                 metadata={"env": env, "parse": parse})
    return dataclasses.field(default=default,
                             metadata={"env": env, "parse": parse})


def _store(env: str, name: str):
    return _knob(env, parse=pathlib.Path, factory=lambda: _results_dir(name))


@dataclasses.dataclass(frozen=True)
class Settings:
    """One resolved value per ``REPRO_*`` knob (README has the table)."""

    # Simulation window (folded into every point key).
    scale: float = _knob("REPRO_SCALE", 1.0, _float)
    warmup: int = _knob("REPRO_WARMUP", 10_000, _int)
    # Execution.
    jobs: int = _knob("REPRO_JOBS", parse=_jobs,
                      factory=lambda: os.cpu_count() or 1)
    backend: str | None = _knob("REPRO_BACKEND")
    cache: bool = _knob("REPRO_CACHE", True, _flag)
    cache_dir: pathlib.Path = _store("REPRO_CACHE_DIR", "cache")
    trace: bool = _knob("REPRO_TRACE", True, _flag)
    # Queue backend.
    queue_workers: int | None = _knob("REPRO_QUEUE_WORKERS", parse=_count)
    queue_dir: str | None = _knob("REPRO_QUEUE_DIR")
    queue_lease: float = _knob("REPRO_QUEUE_LEASE", 30.0, _float)
    queue_retries: int = _knob("REPRO_QUEUE_RETRIES", 3, _int)
    # Resilience.
    retry_backoff: float = _knob("REPRO_RETRY_BACKOFF", 0.05, _float)
    point_timeout: float = _knob("REPRO_POINT_TIMEOUT", 0.0, _seconds)
    degrade: bool = _knob("REPRO_DEGRADE", True, _flag)
    deadletter: bool = _knob("REPRO_DEADLETTER", True, _flag)
    deadletter_dir: pathlib.Path = _store("REPRO_DEADLETTER_DIR",
                                          "deadletter")
    manifest: bool = _knob("REPRO_MANIFEST", False, _flag)
    manifests_dir: pathlib.Path = _store("REPRO_MANIFEST_DIR", "manifests")
    fsync: bool = _knob("REPRO_FSYNC", True, _flag)
    faults: str | None = _knob("REPRO_FAULTS")
    # Telemetry and serving.
    obs: bool = _knob("REPRO_OBS", False, _flag)
    obs_interval: int = _knob("REPRO_OBS_INTERVAL", 0, _interval)
    obs_dir: pathlib.Path = _store("REPRO_OBS_DIR", "obs")
    serve: bool = _knob("REPRO_SERVE", False, _flag)
    serve_port: int = _knob("REPRO_SERVE_PORT", 8765, _int)
    views: str | None = _knob("REPRO_VIEWS")

    def as_attrs(self) -> dict:
        """JSON-ready ``{field: value}`` (paths as strings)."""
        return {name: str(value) if isinstance(value, pathlib.Path)
                else value
                for name, value in dataclasses.asdict(self).items()}


_KNOBS = tuple((spec.name, spec.metadata["env"], spec.metadata["parse"])
               for spec in dataclasses.fields(Settings))


def current() -> Settings:
    """Parse the ``REPRO_*`` variables of ``os.environ`` afresh."""
    values = {}
    for field, env, parse in _KNOBS:
        raw = os.environ.get(env, "").strip()
        if raw:
            try:
                values[field] = parse(raw)
            except ValueError as exc:
                raise SettingsError(f"{env}={raw!r}: {exc}") from None
    return Settings(**values)
