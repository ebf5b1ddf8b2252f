"""Experiment planning: sweep expansion and content-addressed point keys.

The paper's evaluation is a grid of independent simulation points —
benchmark x configuration x pipeline depth (Figures 5-6, Tables 3-5).
This module turns a sweep specification into an :class:`ExperimentPlan`:
a deduplicated, deterministically ordered tuple of fully *resolved*
:class:`ExperimentPoint`\\ s, each with a stable content-hash key.

The key covers everything that influences a simulation's outcome —
benchmark, configuration, pipeline depth, scale, warmup, seed and the
ARVI configuration — plus the result-schema version, so the cache layer
(:mod:`repro.experiments.cache`) can persist results across invocations
and replay them only when they are still valid.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from repro import settings
from repro.core.arvi import ARVIConfig
from repro.pipeline.config import SPECULATION_MODES

CONFIGURATIONS = ("baseline", "current", "load back", "perfect")

#: Versions the *key format itself* (which fields the hash covers and
#: how); simulation-code changes are handled by :func:`code_fingerprint`.
#: v2: the speculation mode joined the key payload.
PLAN_SCHEMA_VERSION = 2


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over the outcome-affecting source of the ``repro`` package.

    Folding this into the point key makes the persistent result cache
    self-invalidating: any change to the simulator (engine, predictors,
    workloads, ...) yields new keys, so stale results can never replay
    into regenerated figures — no manual version bump required.

    The experiment *harness* itself is excluded (all of ``experiments/``
    except ``runner.py``, whose ``execute_point`` maps configurations to
    predictors): editing the scheduler, the cache layer or a figure
    renderer cannot change a simulation outcome and must not invalidate
    hours of cached grid results.
    """
    root = pathlib.Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if rel.parts[0] == "experiments" and rel.name != "runner.py":
            continue
        if rel.parts in (("worker.py",), ("serve.py",), ("settings.py",)):
            # Harness, not simulator: the queue worker entrypoint
            # funnels into the same execute_point as every other path,
            # the view server only reads results, and the knob parser
            # only hands values to them.  None can change what a point
            # computes (the outcome-affecting knobs are in the key).
            continue
        if rel.parts[0] == "obs":
            # Telemetry observes; it never feeds back into a simulation
            # (identity suite in tests/obs/), so editing it must not
            # strand cached results or recorded traces.
            continue
        if rel.parts[0] == "faults":
            # The chaos/resilience harness injects, retries and resumes
            # around execute_point but never inside it: any fault it
            # injects is either retried away or surfaces as a typed
            # error, so editing it cannot change a cacheable outcome.
            continue
        digest.update(str(rel).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class ExperimentPoint:
    """One cell of a paper figure: benchmark x configuration x depth.

    ``scale`` / ``warmup`` / ``seed`` / ``arvi_config`` may be left at
    their defaults (``None`` meaning "resolve from the environment"); the
    plan layer resolves them so that every scheduled point is fully
    self-describing and its key is stable.
    """

    benchmark: str
    configuration: str
    pipeline_depth: int
    scale: float | None = None
    warmup: int | None = None
    seed: int = 1
    arvi_config: ARVIConfig | None = None
    speculation: str = "redirect"

    def resolve(self, *, scale: float | None = None,
                warmup: int | None = None, seed: int | None = None,
                arvi_config: ARVIConfig | None = None,
                speculation: str | None = None) -> "ExperimentPoint":
        """Fill every unset knob: explicit override > point field > env."""
        scale = scale if scale is not None else self.scale
        warmup = warmup if warmup is not None else self.warmup
        if scale is None or warmup is None:
            knobs = settings.current()
            scale = knobs.scale if scale is None else scale
            warmup = knobs.warmup if warmup is None else warmup
        arvi = arvi_config if arvi_config is not None else self.arvi_config
        if self.configuration == "baseline":
            # The baseline (two-level hybrid) never consults ARVI, so an
            # attached config must not fork its identity or cache key.
            arvi = None
        return ExperimentPoint(
            benchmark=self.benchmark,
            configuration=self.configuration,
            pipeline_depth=self.pipeline_depth,
            scale=float(scale),
            warmup=int(warmup),
            seed=self.seed if seed is None else int(seed),
            arvi_config=arvi,
            speculation=(self.speculation if speculation is None
                         else str(speculation)),
        )

    @property
    def grid_key(self) -> tuple[str, str, int]:
        """The (benchmark, configuration, depth) key ``run_suite`` returns."""
        return (self.benchmark, self.configuration, self.pipeline_depth)

    def to_dict(self) -> dict:
        """Lossless JSON-safe form (the queue backend's wire shape)."""
        arvi = self.arvi_config
        return {
            "benchmark": self.benchmark,
            "configuration": self.configuration,
            "pipeline_depth": self.pipeline_depth,
            "scale": self.scale,
            "warmup": self.warmup,
            "seed": self.seed,
            "speculation": self.speculation,
            "arvi": None if arvi is None else {
                f.name: getattr(arvi, f.name) for f in fields(ARVIConfig)
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentPoint":
        """Inverse of :meth:`to_dict`; round-trips to an equal point."""
        arvi = payload["arvi"]
        return cls(
            benchmark=payload["benchmark"],
            configuration=payload["configuration"],
            pipeline_depth=int(payload["pipeline_depth"]),
            scale=payload["scale"],
            warmup=payload["warmup"],
            seed=int(payload["seed"]),
            arvi_config=None if arvi is None else ARVIConfig(**arvi),
            speculation=payload["speculation"],
        )

    def validate(self) -> None:
        if self.configuration not in CONFIGURATIONS:
            raise ValueError(
                f"unknown configuration {self.configuration!r}; "
                f"expected one of {CONFIGURATIONS}")
        if self.speculation not in SPECULATION_MODES:
            raise ValueError(
                f"unknown speculation mode {self.speculation!r}; "
                f"expected one of {SPECULATION_MODES}")


def point_key(point: ExperimentPoint) -> str:
    """Stable content hash identifying a resolved point's result.

    Canonical JSON over every outcome-affecting field (including the ARVI
    configuration field-by-field) hashed with SHA-256.  Unresolved points
    are resolved against the current environment first, so the key of
    ``ExperimentPoint("li", "current", 20)`` reflects the active
    ``REPRO_SCALE`` / ``REPRO_WARMUP``.
    """
    point = point.resolve()
    arvi = point.arvi_config
    payload = {
        "schema": PLAN_SCHEMA_VERSION,
        "code": code_fingerprint(),
        "benchmark": point.benchmark,
        "configuration": point.configuration,
        "pipeline_depth": point.pipeline_depth,
        "scale": point.scale,
        "warmup": point.warmup,
        "seed": point.seed,
        "speculation": point.speculation,
        "arvi": None if arvi is None else {
            f.name: getattr(arvi, f.name) for f in fields(ARVIConfig)
        },
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class ExperimentPlan:
    """A deduplicated, ordered set of resolved points ready to schedule."""

    points: tuple[ExperimentPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def build_plan(configurations: Sequence[str] = CONFIGURATIONS,
               depths: Sequence[int] = (20,),
               benchmarks: Iterable[str] = (), *,
               scale: float | None = None, warmup: int | None = None,
               seed: int = 1,
               arvi_config: ARVIConfig | None = None,
               speculation: str = "redirect") -> ExperimentPlan:
    """Expand a sweep into a plan (grid order: depth, benchmark, config)."""
    points = [
        ExperimentPoint(benchmark, configuration, depth).resolve(
            scale=scale, warmup=warmup, seed=seed, arvi_config=arvi_config,
            speculation=speculation)
        for depth in depths
        for benchmark in benchmarks
        for configuration in configurations
    ]
    return plan_from_points(points)


def plan_from_points(points: Iterable[ExperimentPoint]) -> ExperimentPlan:
    """Resolve, validate and deduplicate explicit points (order-stable)."""
    seen: dict[ExperimentPoint, None] = {}
    for point in points:
        point = point.resolve()
        point.validate()
        seen.setdefault(point)
    return ExperimentPlan(points=tuple(seen))
