"""Per-layer timing for the traced run, recorded from outside ``src/``.

The simulator carries no benchmark tracing of its own.  For the traced
run, :class:`LayerTrace` wraps the public functions each layer is
entered through, at the names their callers look them up by:

* ``TraceRecorder.record``        -- ``pipeline.trace``, trace recording;
* ``ensure_lowered``              -- ``pipeline.kernel``, trace lowering
  (only calls that actually lower are counted);
* ``kernel_run``                  -- ``pipeline.kernel``, the gskew stream
  pass (``baseline``) and the fused ARVI pass, per value mode;
* ``PipelineEngine.run``          -- ``pipeline.engine``, the live engine.

Pool workers fork with the wrappers in place and append their spans to
a per-process JSON-lines file that :meth:`LayerTrace.spans` merges.
:class:`TimedCache` and :class:`TimedViews` are the benchmark's own
``ResultCache`` and ``ViewAggregator``, passed as ``cache=`` and
``sink=``; ``ProgressEvent`` durations and batch ids arrive through
``progress=``.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import re
import time

from repro.core.arvi import ValueMode
from repro.experiments import ResultCache
from repro.experiments.aggregate import ViewAggregator
from repro.predictors.twolevel import LevelTwoKind

perf = time.perf_counter


class LayerTrace:
    """Context manager: spans around calls into the simulator's layers."""

    def __init__(self, directory: pathlib.Path) -> None:
        self.directory = pathlib.Path(directory)
        self._pid = os.getpid()
        self._spans: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTrace":
        from repro.experiments import runner
        from repro.pipeline import kernel
        from repro.pipeline.engine import PipelineEngine
        from repro.pipeline.trace import TraceRecorder

        self._wrap(TraceRecorder, "record", self._record)
        # runner imported ensure_lowered/kernel_run by name; the pool's
        # pre-lowering pass and kernel_run itself look them up in kernel.
        self._wrap(kernel, "ensure_lowered", self._lower)
        self._wrap(runner, "ensure_lowered", self._lower)
        self._wrap(runner, "kernel_run", self._replay)
        self._wrap(PipelineEngine, "run", self._live)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, owner, name: str, factory) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(factory(original)))

    def _span(self, layer: str, seconds: float, instructions: int) -> None:
        record = {"layer": layer, "seconds": seconds,
                  "instructions": instructions}
        if os.getpid() == self._pid:
            self._spans.append(record)
            return
        path = self.directory / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(record) + "\n")

    def _record(self, original):
        def record(recorder, *args, **kwargs):
            start = perf()
            trace = original(recorder, *args, **kwargs)
            self._span("trace.record", perf() - start, trace.length)
            return trace
        return record

    def _lower(self, original):
        from repro.pipeline.kernel import is_lowered

        def ensure_lowered(program, trace):
            if is_lowered(trace, program):
                return original(program, trace)
            start = perf()
            lowered = original(program, trace)
            self._span("kernel.lower", perf() - start, trace.length)
            return lowered
        return ensure_lowered

    def _replay(self, original):
        def kernel_run(program, trace, config, kind=LevelTwoKind.HYBRID,
                       **kwargs):
            start = perf()
            result = original(program, trace, config, kind, **kwargs)
            if kind is LevelTwoKind.HYBRID:
                layer = "kernel.stream"
            else:
                mode = kwargs.get("value_mode", ValueMode.CURRENT)
                layer = f"kernel.arvi.{mode.name.lower()}"
            self._span(layer, perf() - start, result.total_instructions)
            return result
        return kernel_run

    def _live(self, original):
        def run(engine, *args, **kwargs):
            start = perf()
            result = original(engine, *args, **kwargs)
            self._span("engine.live", perf() - start,
                       result.total_instructions)
            return result
        return run

    def spans(self) -> list[dict]:
        """This process's spans plus every pool worker's."""
        merged = list(self._spans)
        for path in sorted(self.directory.glob("spans-*.jsonl")):
            merged.extend(json.loads(line)
                          for line in path.read_text().splitlines())
        return merged


def layer_totals(spans: list[dict]) -> dict[str, tuple[float, int]]:
    """{layer or layer prefix: (seconds, instructions)} over the spans.

    ``kernel.arvi`` sums the three ``kernel.arvi.<mode>`` layers.
    """
    totals: dict[str, tuple[float, int]] = {}
    for span in spans:
        layer = span["layer"]
        names = [layer]
        if layer.startswith("kernel.arvi."):
            names.append("kernel.arvi")
        for name in names:
            seconds, instructions = totals.get(name, (0.0, 0))
            totals[name] = (seconds + span["seconds"],
                            instructions + span["instructions"])
    return totals


class TimedCache(ResultCache):
    """The benchmark's result store: ``ResultCache`` with timed get/put."""

    def __init__(self, directory) -> None:
        super().__init__(directory)
        self.put_s = 0.0
        self.reset_lookups()

    def reset_lookups(self) -> None:
        self.hits = self.misses = 0
        self.get_s = 0.0

    def get(self, key):
        start = perf()
        try:
            return super().get(key)
        finally:
            self.get_s += perf() - start

    def put(self, key, result) -> None:
        start = perf()
        try:
            super().put(key, result)
        finally:
            self.put_s += perf() - start


def _timed(method):
    @functools.wraps(method)
    def timed(self, *args, **kwargs):
        start = perf()
        try:
            return method(self, *args, **kwargs)
        finally:
            self.seconds += perf() - start
    return timed


class TimedViews(ViewAggregator):
    """A ``ViewAggregator`` that adds up the time spent in its methods."""

    seconds = 0.0
    on_plan = _timed(ViewAggregator.on_plan)
    on_progress = _timed(ViewAggregator.on_progress)
    on_result = _timed(ViewAggregator.on_result)
    on_failure = _timed(ViewAggregator.on_failure)
    mark_done = _timed(ViewAggregator.mark_done)


def batch_busy(events) -> dict[str, float]:
    """Per-batch busy seconds: the sum of its points' durations."""
    busy: dict[str, float] = {}
    for event in events:
        if event.phase == "point" and event.duration is not None:
            busy[event.batch_id] = busy.get(event.batch_id, 0.0) \
                + event.duration
    return busy


def makespan(events, wall: float, workers: int) -> dict[str, float]:
    """How the run's wall time splits into point work, idle and overhead.

    ``overhead_s`` is the wall time beyond perfectly balanced point work
    (for one worker: wall minus the sum of point durations).
    """
    busy = batch_busy(events)
    work = sum(busy.values())
    mean = work / len(busy) if busy else 0.0
    return {
        "scheduler.overhead_s": wall - work / workers,
        "backends.busy_ratio": work / (workers * wall),
        "backends.batch_imbalance": max(busy.values()) / mean if mean else 0.0,
        "backends.idle_s": workers * wall - work,
        "backends.critical_batch_s": max(busy.values(), default=0.0),
    }


_KNOB = re.compile(rb"REPRO_[A-Z0-9_]+")


def repo_counts(src: pathlib.Path) -> dict[str, float]:
    """Source lines under ``src/`` and distinct ``REPRO_*`` names in it."""
    lines = 0
    knobs: set[bytes] = set()
    for path in src.rglob("*.py"):
        data = path.read_bytes()
        lines += data.count(b"\n")
        knobs.update(_KNOB.findall(data))
    return {"repo.src_lines": float(lines),
            "repo.env_knobs": float(len(knobs))}
