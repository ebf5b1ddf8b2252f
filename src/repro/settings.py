"""Every ``REPRO_*`` environment knob, parsed in one place.

:func:`current` reads ``os.environ`` into a frozen :class:`Settings`
snapshot, one field per knob, with one grammar for all of them:

* booleans accept ``1/true/yes/on`` and ``0/false/no/off`` in any case;
* surrounding spaces are stripped, and an empty or unset value means the
  field's default;
* a value that does not parse raises :class:`SettingsError` naming the
  variable — a typo never silently falls back to a default;
* a non-empty ``REPRO_*`` variable that is not a field here (a typo, or
  a knob that no longer exists) raises :class:`SettingsError` naming
  it, rather than being ignored.

``current()`` parses afresh on every call (tens of microseconds, never
inside a replay loop), so a changed environment takes effect at once;
pool workers inherit the parent's environment and parse the same
values.

This module is harness, not simulator: it is excluded from the
result-cache code fingerprint, and it imports only the standard library
so every layer (``obs`` included) can use it without an
import cycle.
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
    """A ``REPRO_*`` variable is not a setting, or holds a value its
    grammar rejects."""


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


def _float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError("expected a number") from None


def _jobs(raw: str) -> int:
    value = _int(raw)
    return value if value > 0 else os.cpu_count() or 1


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
    cache: bool = _knob("REPRO_CACHE", True, _flag)
    cache_dir: pathlib.Path = _store("REPRO_CACHE_DIR", "cache")
    trace: bool = _knob("REPRO_TRACE", True, _flag)
    # Telemetry.
    obs: bool = _knob("REPRO_OBS", False, _flag)
    obs_interval: int = _knob("REPRO_OBS_INTERVAL", 0, _interval)
    obs_dir: pathlib.Path = _store("REPRO_OBS_DIR", "obs")

    def as_attrs(self) -> dict:
        """JSON-ready ``{field: value}`` (paths as strings)."""
        return {name: str(value) if isinstance(value, pathlib.Path)
                else value
                for name, value in dataclasses.asdict(self).items()}


_KNOBS = tuple((spec.name, spec.metadata["env"], spec.metadata["parse"])
               for spec in dataclasses.fields(Settings))
_ENVS = frozenset(env for _, env, _ in _KNOBS)


def current() -> Settings:
    """Parse the ``REPRO_*`` variables of ``os.environ`` afresh."""
    unknown = sorted(name for name in os.environ
                     if name.startswith("REPRO_") and name not in _ENVS
                     and os.environ[name].strip())
    if unknown:
        raise SettingsError(
            f"{', '.join(unknown)}: not a REPRO_* setting (the settings "
            f"are {', '.join(sorted(_ENVS))}); unset it")
    values = {}
    for field, env, parse in _KNOBS:
        raw = os.environ.get(env, "").strip()
        if raw:
            try:
                values[field] = parse(raw)
            except ValueError as exc:
                raise SettingsError(f"{env}={raw!r}: {exc}") from None
    return Settings(**values)
