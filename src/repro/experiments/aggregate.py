"""Streaming aggregation tier: per-point materialized views (DESIGN.md §14).

The figures and tables used to exist only *after* a grid drained — a
multi-hour sweep had no readable intermediate state.  This module turns
the scheduler's per-point progress/result stream into **materialized
views** updated as each point lands, on every backend:

* ``figure5``   — load-branch fraction per (benchmark, depth) and the
  calculated-vs-load accuracy split (paper Figure 5);
* ``figure6``   — accuracy + baseline-normalized IPC per depth, with
  the suite-average headline (paper Figure 6);
* ``speculation`` — the wrong-path/pollution comparison table
  (:func:`~repro.experiments.report.render_speculation_comparison`);
* ``benchmarks`` — per-benchmark rollups (points, mean IPC/accuracy,
  best-IPC cell);
* ``status``    — the run itself: points done/pending/failed, result
  sources, the ``trace_source``/``kernel_source`` mix, and per-phase
  timing rollups from ``phase_seconds``.

**Copy-on-write snapshots.**  Every applied event rebuilds the view
bodies from the accumulated per-point cells and publishes a fresh
immutable :class:`ViewSnapshot` with a monotonically increasing
version; readers (the :mod:`repro.serve` HTTP/SSE front end, or any
thread holding a reference) only ever touch a fully-built snapshot —
never a half-applied point.

**The view-identity invariant.**  The data views are *pure functions of
the final result set*: per-point scalars are stored in cells keyed by
the point's canonical identity, and every derived aggregate (means,
normalizations, table rows) is recomputed over the cells **in sorted
cell order** at snapshot-build time.  Arrival order therefore cannot
leak into the bytes — not even through float-summation order — so a
live-attached aggregator converges to views byte-identical to
:func:`build_views` run post-hoc over the finished results, across
serial/local/queue backends, under chaos schedules, and across a
SIGKILL + ``REPRO_MANIFEST`` resume (gated in
``tests/experiments/test_aggregate.py`` and CI's serve-smoke job).
Duplicate deliveries (requeued batches, manifest replays) are deduped
on the cell key; results are bit-identical per the standing invariant,
so first-wins is exact.  The ``status`` view describes the *run*, not
the results, and is excluded from the identity set.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro import obs, settings
from repro.experiments.plan import ExperimentPoint
from repro.experiments.report import (
    SPECULATION_HEADERS,
    format_table,
    speculation_row,
)
from repro.pipeline.stats import SimulationResult

__all__ = [
    "ALL_VIEWS",
    "IDENTITY_VIEWS",
    "ViewAggregator",
    "ViewSnapshot",
    "build_views",
    "canonical_json",
    "identity_json",
    "views_from_env",
]

#: Views covered by the bit-for-bit view-identity invariant: pure
#: functions of the delivered result set.
IDENTITY_VIEWS = ("figure5", "figure6", "speculation", "benchmarks")

#: Every maintainable view; ``status`` is live-run metadata (sources,
#: timing rollups, failure counts) and deliberately outside the
#: identity set.
ALL_VIEWS = IDENTITY_VIEWS + ("status",)


def canonical_json(obj: Any) -> str:
    """The one serialization identity is defined over: sorted, compact."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def views_from_env() -> "tuple[str, ...] | None":
    """``REPRO_VIEWS`` -> view selection, or None for all.

    A comma-separated subset of :data:`ALL_VIEWS` (unset or ``all``
    keeps every view).  Unknown names are a hard error — a typo that
    silently dropped a view would look like an empty run.
    """
    raw = settings.current().views
    if not raw or raw.lower() == "all":
        return None
    names = tuple(part.strip() for part in raw.split(",") if part.strip())
    unknown = sorted(set(names) - set(ALL_VIEWS))
    if unknown:
        raise ValueError(
            f"unknown REPRO_VIEWS entr{'ies' if len(unknown) > 1 else 'y'} "
            f"{unknown}; expected a comma-separated subset of "
            f"{list(ALL_VIEWS)}")
    return names


@dataclass(frozen=True)
class ViewSnapshot:
    """One immutable, fully-applied state of every maintained view.

    ``views`` maps view name -> JSON-ready body.  Snapshots are built
    copy-on-write: the aggregator never mutates a published snapshot's
    bodies, so readers may hold one indefinitely without locking.
    """

    version: int
    views: Mapping[str, Any]
    #: View names whose bytes changed vs. the previous version.
    changed: tuple[str, ...] = ()
    #: True once the producing run marked itself complete.
    done: bool = False

    def to_json(self) -> str:
        return canonical_json({
            "version": self.version, "done": self.done,
            "views": self.views})

    def view_json(self, name: str) -> str:
        return canonical_json(self.views[name])


def identity_json(snapshot: ViewSnapshot) -> str:
    """Canonical bytes of the identity views — the invariant's subject."""
    return canonical_json({name: snapshot.views[name]
                           for name in IDENTITY_VIEWS
                           if name in snapshot.views})


def _cell_id(point: ExperimentPoint) -> str:
    """Canonical per-point cell key: the point's full resolved identity.

    Content-addressed from ``to_dict`` (not :func:`~repro.experiments.
    plan.point_key`, which folds in the source fingerprint): stable
    across processes, so a served run and an in-process post-hoc build
    key their cells identically.
    """
    return canonical_json(point.to_dict())


# -- view builders ----------------------------------------------------------
#
# Each builder is a pure function of the sorted cell map.  Iteration is
# ALWAYS over sorted(cells) so float accumulation order — and with it
# the rendered bytes — is independent of delivery order.


def _sorted_cells(cells: Mapping[str, tuple[ExperimentPoint,
                                            SimulationResult]]):
    return sorted(cells.items())


def _figure5_view(cells) -> dict:
    """Figure 5 curves from the ``current``-configuration cells.

    ``accuracy`` reflects the shallowest depth present per benchmark
    (the canonical Figure 5(b) run probes the 20-stage machine, the
    minimum of ``PIPELINE_DEPTHS``).
    """
    load_rates: dict[str, dict[str, float]] = {}
    accuracy: dict[str, dict[str, float]] = {}
    best_depth: dict[str, int] = {}
    for _, (point, result) in _sorted_cells(cells):
        if point.configuration != "current":
            continue
        bench = point.benchmark
        load_rates.setdefault(bench, {})[str(point.pipeline_depth)] = \
            result.load_branch_rate
        if bench not in best_depth \
                or point.pipeline_depth < best_depth[bench]:
            best_depth[bench] = point.pipeline_depth
            accuracy[bench] = {
                "calculated": result.calculated.accuracy,
                "load": result.load.accuracy,
            }
    return {"load_rates": load_rates, "accuracy": accuracy}


def _figure6_view(cells) -> dict:
    """Figure 6 series: accuracy + normalized IPC per depth.

    ``normalized_ipc`` appears once a benchmark's ``baseline`` cell has
    landed (None until then — a live reader sees the view *grow toward*
    the final figure, never a wrong number); the per-depth
    ``mean_normalized_ipc`` averages only fully-normalizable cells.
    """
    depths: dict[str, dict[str, dict[str, dict]]] = {}
    for _, (point, result) in _sorted_cells(cells):
        bench_cells = depths.setdefault(
            str(point.pipeline_depth), {}).setdefault(point.benchmark, {})
        bench_cells[point.configuration] = {
            "accuracy": result.prediction_accuracy,
            "ipc": result.ipc,
            "normalized_ipc": None,
        }
    means: dict[str, dict[str, float]] = {}
    for depth, benches in sorted(depths.items()):
        totals: dict[str, list[float]] = {}
        for bench, configs in sorted(benches.items()):
            base = configs.get("baseline")
            for config, body in sorted(configs.items()):
                if base is not None and base["ipc"]:
                    body["normalized_ipc"] = body["ipc"] / base["ipc"]
                    totals.setdefault(config, []).append(
                        body["normalized_ipc"])
        means[depth] = {
            config: sum(values) / len(values)
            for config, values in sorted(totals.items())}
    return {"depths": depths, "mean_normalized_ipc": means}


def _speculation_view(cells) -> dict:
    """The speculation-comparison table, structured and rendered."""
    rows = sorted(
        (speculation_row(result) for _, (_, result) in _sorted_cells(cells)),
        key=lambda row: (row[0], row[1], row[2], row[3]))
    return {
        "headers": list(SPECULATION_HEADERS),
        "rows": rows,
        "rendered": format_table(
            list(SPECULATION_HEADERS), rows,
            title="Speculation modes: wrong-path and pollution counters"),
    }


def _benchmarks_view(cells) -> dict:
    """Per-benchmark rollups across every configuration and depth."""
    summary: dict[str, dict] = {}
    for _, (point, result) in _sorted_cells(cells):
        entry = summary.setdefault(point.benchmark, {
            "points": 0, "_ipc_sum": 0.0, "_acc_sum": 0.0,
            "configurations": set(), "depths": set(),
            "best_ipc": None,
        })
        entry["points"] += 1
        entry["_ipc_sum"] += result.ipc
        entry["_acc_sum"] += result.prediction_accuracy
        entry["configurations"].add(point.configuration)
        entry["depths"].add(point.pipeline_depth)
        best = entry["best_ipc"]
        if best is None or result.ipc > best["ipc"]:
            entry["best_ipc"] = {
                "configuration": point.configuration,
                "depth": point.pipeline_depth,
                "ipc": result.ipc,
            }
    return {
        bench: {
            "points": entry["points"],
            "mean_ipc": entry["_ipc_sum"] / entry["points"],
            "mean_accuracy": entry["_acc_sum"] / entry["points"],
            "configurations": sorted(entry["configurations"]),
            "depths": sorted(entry["depths"]),
            "best_ipc": entry["best_ipc"],
        }
        for bench, entry in sorted(summary.items())
    }


_BUILDERS: dict[str, Callable] = {
    "figure5": _figure5_view,
    "figure6": _figure6_view,
    "speculation": _speculation_view,
    "benchmarks": _benchmarks_view,
}


class ViewAggregator:
    """Incremental materialized views over the scheduler's event stream.

    The scheduler-facing half of the streaming tier: attach one as
    ``run_plan(..., sink=aggregator)`` (or let ``REPRO_SERVE`` do it)
    and it consumes the per-point stream — ``on_plan`` once,
    ``on_progress`` per :class:`~repro.experiments.scheduler.
    ProgressEvent`, ``on_result`` per delivered result (backend
    deliveries, cache hits and manifest replays alike; duplicates are
    deduped on the point's canonical cell id), ``on_failure`` for final
    failures — and republishes an immutable :class:`ViewSnapshot` after
    each applied event.

    Thread model: mutators are serialized by an internal lock (the
    scheduler calls them from one thread anyway); :meth:`snapshot` is a
    single attribute read of an immutable object, safe from any thread
    with no lock.  ``subscribe`` callbacks fire under the lock, in
    version order — keep them cheap and non-reentrant (the HTTP server
    just trampolines the delta onto its event loop).
    """

    def __init__(self, *, views: "Iterable[str] | None" = None) -> None:
        selected = tuple(views) if views is not None else ALL_VIEWS
        unknown = sorted(set(selected) - set(ALL_VIEWS))
        if unknown:
            raise ValueError(f"unknown view(s) {unknown}; expected a "
                             f"subset of {list(ALL_VIEWS)}")
        self._views = selected
        self._lock = threading.RLock()
        self._cells: dict[str, tuple[ExperimentPoint, SimulationResult]] = {}
        self._cell_meta: dict[str, dict] = {}
        self._sources: dict[str, int] = {}
        self._failures: list[dict] = []
        self._total: "int | None" = None
        self._ticked: set[str] = set()
        self._lower_ticks = 0
        self._done = False
        self._rendered: dict[str, str] = {}
        self._subscribers: list[Callable[[dict], None]] = []
        self.duplicates = 0
        self._snapshot = ViewSnapshot(version=0, views=self._build_views())

    # -- scheduler protocol --------------------------------------------------

    def on_plan(self, plan, keys: Mapping[ExperimentPoint, str]) -> None:
        """A run over ``plan`` is starting (idempotent across resumes)."""
        with self._lock:
            self._total = len(plan)
            self._publish()

    def on_progress(self, event) -> None:
        """One scheduler ProgressEvent (``phase`` "point" or "lower")."""
        with self._lock:
            if event.phase == "lower":
                self._lower_ticks += 1
            else:
                self._ticked.add(event.key)
            self._publish()

    def on_result(self, point: ExperimentPoint, key: "str | None",
                  result: SimulationResult, *, source: str = "unknown",
                  meta: "dict | None" = None) -> None:
        """A point's result landed (at-least-once; first delivery wins)."""
        with self._lock:
            cell = _cell_id(point)
            if cell in self._cells:
                self.duplicates += 1
                return
            self._cells[cell] = (point, result)
            if meta:
                self._cell_meta[cell] = meta
            self._sources[source] = self._sources.get(source, 0) + 1
            self._publish()

    def on_failure(self, point: "ExperimentPoint | None",
                   key: "str | None", error: Exception) -> None:
        """A point (or whole batch, ``point=None``) finally failed."""
        with self._lock:
            self._failures.append({
                "point": point.to_dict() if point is not None else None,
                "error": f"{type(error).__name__}: {error}",
            })
            self._publish()

    def mark_done(self) -> None:
        """The producing run is over; the current snapshot is final."""
        with self._lock:
            if not self._done:
                self._done = True
                self._publish()

    # -- read side -----------------------------------------------------------

    def snapshot(self) -> ViewSnapshot:
        """The latest fully-applied snapshot (lock-free, any thread)."""
        return self._snapshot

    def subscribe(self, callback: Callable[[dict], None]):
        """Register a delta callback; returns an unsubscribe callable.

        Each delta is ``{"version", "changed", "views": {changed-name:
        body}, "done"}`` — a reader holding snapshot ``v`` reconstructs
        ``v+1`` by replacing the changed views wholesale (the SSE
        protocol, DESIGN.md §14).
        """
        with self._lock:
            self._subscribers.append(callback)

        def unsubscribe() -> None:
            with self._lock:
                if callback in self._subscribers:
                    self._subscribers.remove(callback)
        return unsubscribe

    # -- internals -----------------------------------------------------------

    def _build_views(self) -> dict[str, Any]:
        views: dict[str, Any] = {}
        for name in self._views:
            if name == "status":
                views[name] = self._status_view()
            else:
                views[name] = _BUILDERS[name](self._cells)
        return views

    def _status_view(self) -> dict:
        trace_mix: dict[str, int] = {}
        kernel_mix: dict[str, int] = {}
        phase_cells: dict[str, list[float]] = {}
        for cell in sorted(self._cell_meta):
            meta = self._cell_meta[cell]
            for mix, field in ((trace_mix, "trace_source"),
                               (kernel_mix, "kernel_source")):
                value = meta.get(field)
                if value:
                    mix[value] = mix.get(value, 0) + 1
            for phase, seconds in sorted(
                    (meta.get("phase_seconds") or {}).items()):
                phase_cells.setdefault(phase, []).append(float(seconds))
        done = len(self._cells)
        return {
            "done": done,
            "total": self._total,
            "pending": max(self._total - done, 0)
            if self._total is not None else None,
            "failed": len(self._failures),
            "failures": list(self._failures),
            "sources": dict(sorted(self._sources.items())),
            "trace_sources": dict(sorted(trace_mix.items())),
            "kernel_sources": dict(sorted(kernel_mix.items())),
            # Sorted-cell accumulation: the rollup is a function of the
            # meta *set*, not of delivery order.
            "phase_seconds": {
                phase: round(sum(values), 6)
                for phase, values in sorted(phase_cells.items())},
            "ticks": len(self._ticked),
            "lower_ticks": self._lower_ticks,
            "complete": self._done,
        }

    def _publish(self) -> None:
        """Rebuild, diff, and swap in a fresh snapshot (caller holds lock)."""
        previous = self._snapshot
        with obs.span("view_update", kind="view", attrs={
                "results": len(self._cells),
                "version": previous.version + 1}):
            views = self._build_views()
        rendered = {name: canonical_json(body)
                    for name, body in views.items()}
        changed = tuple(sorted(
            name for name, body in rendered.items()
            if self._rendered.get(name) != body))
        if not changed and previous.done == self._done \
                and previous.version > 0:
            return  # byte-identical: publishing would be a no-op delta
        self._rendered = rendered
        snapshot = ViewSnapshot(
            version=previous.version + 1, views=views,
            changed=changed, done=self._done)
        self._snapshot = snapshot
        obs.inc("views_updated_total", value=max(len(changed), 1))
        delta = {
            "version": snapshot.version,
            "changed": list(changed),
            "views": {name: views[name] for name in changed},
            "done": snapshot.done,
        }
        for callback in list(self._subscribers):
            callback(delta)


def build_views(results: Mapping[ExperimentPoint, SimulationResult], *,
                views: "Iterable[str] | None" = None) -> ViewSnapshot:
    """Post-hoc view construction — the invariant's reference side.

    Feeds a finished ``{point: result}`` mapping (``run_plan``'s return
    shape) through a fresh aggregator.  A live-attached aggregator's
    identity views must equal this function's output byte-for-byte
    (:func:`identity_json`); the ``status`` view will differ — it
    describes the run that produced the results, and this one had none.
    """
    aggregator = ViewAggregator(views=views)
    for point, result in results.items():
        aggregator.on_result(point, None, result, source="posthoc")
    aggregator.mark_done()
    return aggregator.snapshot()
