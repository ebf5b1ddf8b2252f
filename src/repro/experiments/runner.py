"""Experiment runner: the facade over the plan/schedule/cache layers.

The four configurations match paper Section 5:

* ``baseline``   — two-level 2Bc-gskew (L1 4 KB + L2 32 KB hybrid);
* ``current``    — ARVI level 2 with committed (current) values;
* ``load back``  — ARVI with aggressively hoisted loads;
* ``perfect``    — ARVI with oracle values (upper bound).

:func:`execute_point` performs one raw simulation; :func:`run_point` adds
default resolution (``REPRO_SCALE`` / ``REPRO_WARMUP``); :func:`run_suite`
expands a benchmark x configuration x depth grid through
:mod:`repro.experiments.plan`, shards it across processes via
:mod:`repro.experiments.scheduler` (``REPRO_JOBS`` workers) and replays
completed points from :mod:`repro.experiments.cache` — identical keyed
results whether a point was computed serially, in parallel, or loaded
from the cache.

A point runs one of exactly two ways: a ``redirect`` point replays a
recorded committed trace through the compiled kernel
(:mod:`repro.pipeline.kernel`) unless its caller passes
``trace=False``; every ``wrongpath`` point, and a ``redirect`` point
called with ``trace=False``, runs on the live
:class:`~repro.pipeline.engine.PipelineEngine`, which is also the
independent oracle the kernel is tested against.
"""

from __future__ import annotations

from repro import obs, settings
from repro.core.arvi import ARVIConfig, ValueMode
from repro.experiments.cache import ResultCache
from repro.experiments.plan import (
    CONFIGURATIONS,
    ExperimentPoint,
    build_plan,
)
from repro.experiments.scheduler import ProgressCallback, run_plan
from repro.experiments.tracing import record_workload
from repro.obs.interval import IntervalSampler
from repro.pipeline.config import machine_for_depth
from repro.pipeline.engine import PipelineEngine, build_predictor
from repro.pipeline.kernel import ensure_lowered, is_lowered, kernel_run
from repro.pipeline.stats import SimulationResult
from repro.pipeline.trace import CommittedTrace
from repro.predictors.twolevel import LevelTwoKind
from repro.workloads.registry import BENCHMARKS, get_program

__all__ = [
    "CONFIGURATIONS",
    "ExperimentPoint",
    "execute_point",
    "run_point",
    "run_suite",
]

_VALUE_MODES = {
    "current": ValueMode.CURRENT,
    "load back": ValueMode.LOAD_BACK,
    "perfect": ValueMode.PERFECT,
}


def execute_point(point: ExperimentPoint, *,
                  trace: "CommittedTrace | bool | None" = None,
                  ) -> SimulationResult:
    """Simulate one *resolved* point (no cache, no default resolution).

    This is the single compute kernel every execution path funnels
    through — the serial loop and the pool workers both call it.

    ``trace`` selects the functional source for ``redirect`` points
    (results are bit-for-bit identical either way):

    * ``None`` (default) — record the point's own committed trace
      (:func:`~repro.experiments.tracing.record_workload`) and replay it
      through the compiled kernel;
    * a :class:`~repro.pipeline.trace.CommittedTrace` — replay that
      recording instead (how the scheduler shares one recording across
      a batch): ``baseline`` as the gskew stream pass, the ARVI
      configurations as the fused pass;
    * ``False`` — run the live engine (how the oracle checks ask for
      it).

    ``wrongpath`` points always run the live engine and record nothing.
    Which tier ran is the point span's ``replay`` or ``live`` phase.
    """
    point.validate()
    if trace is not None and not isinstance(trace, CommittedTrace) \
            and trace is not False:
        raise TypeError(
            "trace must be a CommittedTrace, None (record one) or False "
            f"(run the live engine); got {trace!r}")
    if point.scale is None or point.warmup is None:
        raise ValueError(
            "execute_point requires a resolved point; call "
            "point.resolve() first or use run_point/run_suite")
    with obs.span(point.benchmark, kind="point", attrs={
            "benchmark": point.benchmark,
            "configuration": point.configuration,
            "depth": point.pipeline_depth,
            "speculation": point.speculation,
            "scale": point.scale, "warmup": point.warmup,
            "seed": point.seed}):
        if trace is None and point.speculation == "redirect":
            trace = record_workload(point.benchmark, point.scale,
                                    point.seed)
        result = _execute_phases(point, trace)
    result.configuration = point.configuration
    return result


def _execute_phases(point: ExperimentPoint,
                    trace: "CommittedTrace | bool | None",
                    ) -> SimulationResult:
    """The phase-instrumented body of :func:`execute_point`.

    Each phase (``lower`` / ``replay`` / ``live``; ``record`` lives in
    :func:`~repro.experiments.tracing.record_workload`) runs under a
    ledger ``phase`` span, the one place phase times are recorded
    (``python -m repro.obs summary`` rolls them up).
    """
    program = get_program(point.benchmark, scale=point.scale,
                          seed=point.seed)
    config = machine_for_depth(point.pipeline_depth,
                               speculation=point.speculation)
    if point.configuration == "baseline":
        kind, mode = LevelTwoKind.HYBRID, ValueMode.CURRENT
    else:
        kind, mode = LevelTwoKind.ARVI, _VALUE_MODES[point.configuration]

    if point.speculation == "redirect" and isinstance(trace,
                                                       CommittedTrace):
        return _kernel_replay(point, program, trace, config, kind, mode)

    predictor = build_predictor(kind, config, point.arvi_config)
    telemetry = obs.current()
    every = settings.current().obs_interval if telemetry is not None else 0
    sampler = IntervalSampler(every) if every else None

    with obs.span("live", kind="phase", attrs={"phase": "live",
                                               "mode": "live"}):
        engine = PipelineEngine(program, config, predictor, value_mode=mode,
                                warmup_instructions=point.warmup,
                                sampler=sampler)
        result = engine.run()
        if sampler is not None and telemetry is not None:
            for sample in sampler.samples:
                telemetry.emit("interval", kind="interval",
                               attrs=sample.to_attrs())
    return result


def _kernel_replay(point: ExperimentPoint, program, trace, config,
                   kind: LevelTwoKind, mode: ValueMode) -> SimulationResult:
    """Replay one redirect point through the compiled kernel.

    ``baseline`` (``LevelTwoKind.HYBRID``) runs the gskew stream pass,
    the paper's ARVI configurations the fused ARVI pass.  A trace not yet
    lowered pays the one-time lowering as its own ``lower`` phase.  This
    is the only place a trace is lowered, so the first kernel point of a
    serial sweep or of a pool batch pays it.
    """
    if not is_lowered(trace, program):
        with obs.span("lower", kind="phase", attrs={"phase": "lower"}):
            ensure_lowered(program, trace)
    with obs.span("replay", kind="phase", attrs={
            "phase": "replay", "mode": "kernel"}):
        return kernel_run(
            program, trace, config, kind,
            warmup_instructions=point.warmup,
            value_mode=mode,
            arvi_config=point.arvi_config)


def run_point(point: ExperimentPoint, *, scale: float | None = None,
              warmup: int | None = None, seed: int | None = None,
              arvi_config: ARVIConfig | None = None,
              speculation: str | None = None) -> SimulationResult:
    """Simulate one experiment point and return its statistics."""
    resolved = point.resolve(scale=scale, warmup=warmup, seed=seed,
                             arvi_config=arvi_config,
                             speculation=speculation)
    resolved.validate()
    return execute_point(resolved)


def run_suite(configurations=CONFIGURATIONS, depths=(20,),
              benchmarks=BENCHMARKS, *, scale: float | None = None,
              warmup: int | None = None, seed: int = 1,
              arvi_config: ARVIConfig | None = None,
              speculation: str = "redirect",
              jobs: int | None = None, cache: ResultCache | None = None,
              use_cache: bool = True,
              progress: ProgressCallback | None = None,
              batch: bool | None = None,
              backend=None,
              sink=None,
              ) -> dict[tuple[str, str, int], SimulationResult]:
    """Run a grid of experiment points; keyed (benchmark, config, depth).

    Facade over plan -> schedule -> cache -> collect.  ``jobs=None``
    honours ``REPRO_JOBS`` (default CPU count, ``1`` = serial);
    ``cache``/``use_cache`` control result replay (default store under
    ``results/cache/``, disable globally with ``REPRO_CACHE=0``).
    ``speculation`` selects the engine's wrong-path model for every point
    of the grid ("redirect" | "wrongpath"); run the suite once per mode to
    sweep it — each mode has its own cache keys, so replays never mix.
    ``batch=None`` (or ``True``) simulates same-benchmark points in
    per-worker batches that share one program build; ``batch=False``
    submits one point per task (results are identical either way).
    ``backend`` is ``"serial"``, ``"local"`` or ``None`` (serial for one
    worker, the local pool otherwise; see
    :mod:`repro.experiments.backends`) — results are bit-for-bit equal
    on both backends; a killed grid resumes from the cache (see
    :func:`run_plan`).
    ``sink`` is an optional view aggregator (see
    :mod:`repro.experiments.aggregate`) fed every progress tick and
    per-point result as the grid runs.
    """
    plan = build_plan(configurations, depths, benchmarks, scale=scale,
                      warmup=warmup, seed=seed, arvi_config=arvi_config,
                      speculation=speculation)
    results = run_plan(plan, jobs=jobs, cache=cache, use_cache=use_cache,
                       progress=progress, batch=batch, backend=backend,
                       sink=sink)
    return {point.grid_key: result for point, result in results.items()}
