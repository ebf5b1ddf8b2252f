"""The view model: every figure and table as a pure function of results.

The scheduler's per-point result stream feeds a :class:`ViewAggregator`
sink (DESIGN.md §14), which builds these **views** once the run is
over:

* ``figure5``   — load-branch fraction per (benchmark, depth) and the
  calculated-vs-load accuracy split (paper Figure 5);
* ``figure6``   — accuracy + baseline-normalized IPC per depth, with
  the suite-average headline (paper Figure 6);
* ``speculation`` — the wrong-path/pollution comparison table, one row
  per point of either speculation mode;
* ``status``    — the run itself: points done/pending/failed, result
  sources and the ``kernel_source`` mix (phase times live in the
  ledger's ``phase`` spans, not here).

:func:`~repro.experiments.report.render_figure5`,
:func:`~repro.experiments.report.render_figure6` and the paper's claims
(:mod:`repro.experiments.claims`) read the same views, so each
normalization and mean is computed in one place.  A figure cell is
(benchmark, configuration, depth): two results for one cell — say the
``redirect`` and ``wrongpath`` runs of one point — raise ``ValueError``
naming it rather than one silently replacing the other.

**The view-identity invariant.**  The data views are *pure functions of
the final result set*: per-point scalars are stored in cells keyed by
the point's canonical identity, and every derived aggregate (means,
normalizations, table rows) is computed over the cells **in sorted
cell order**.  Arrival order therefore cannot leak into the bytes — not
even through float-summation order — so a sink attached to a run yields
views byte-identical to :func:`build_views` run post-hoc over the
finished results, on both backends, warm from a cache whose entries
were truncated or bit-flipped on disk, and across a SIGKILL + cache
resume (gated in ``tests/experiments/test_aggregate.py`` and
``test_faults.py``).
Duplicate deliveries are deduped on the cell key; results are
bit-identical per the standing invariant, so first-wins is exact.  The
``status`` view describes the *run*, not the results, and is excluded
from the identity set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro import obs
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
]

#: Views covered by the bit-for-bit view-identity invariant: pure
#: functions of the delivered result set.
IDENTITY_VIEWS = ("figure5", "figure6", "speculation")

#: Every view a sink builds; ``status`` is live-run metadata (sources,
#: timing rollups, failure counts) and deliberately outside the
#: identity set.
ALL_VIEWS = IDENTITY_VIEWS + ("status",)


def canonical_json(obj: Any) -> str:
    """The one serialization identity is defined over: sorted, compact."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ViewSnapshot:
    """Every view, built from one state of the aggregator.

    ``views`` maps view name -> JSON-ready body; ``done`` is True once
    the producing run marked itself complete.
    """

    views: Mapping[str, Any]
    done: bool = False

    def to_json(self) -> str:
        return canonical_json({"done": self.done, "views": self.views})


def identity_json(snapshot: ViewSnapshot) -> str:
    """Canonical bytes of the identity views — the invariant's subject."""
    return canonical_json({name: snapshot.views[name]
                           for name in IDENTITY_VIEWS
                           if name in snapshot.views})


def _cell_id(point: ExperimentPoint) -> str:
    """Canonical per-point cell key: the point's full resolved identity.

    Content-addressed from ``to_dict`` (not :func:`~repro.experiments.
    plan.point_key`, which folds in the source fingerprint): stable
    across processes, so a live sink and a post-hoc build key their
    cells identically.
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


def _second_result(view: str, point: ExperimentPoint) -> ValueError:
    """The error for a figure cell that already holds a result."""
    return ValueError(
        f"{view} view: two results for cell {point.benchmark}/"
        f"{point.configuration}/depth {point.pipeline_depth} (this one is "
        f"{point.speculation}, seed {point.seed}); build the view from "
        f"one speculation mode and one window")


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
        rates = load_rates.setdefault(bench, {})
        depth = str(point.pipeline_depth)
        if depth in rates:
            raise _second_result("figure5", point)
        rates[depth] = result.load_branch_rate
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

    ``normalized_ipc`` is None for a benchmark with no ``baseline``
    cell at that depth; the per-depth ``mean_normalized_ipc`` averages
    only normalizable cells, in sorted-benchmark order.
    """
    depths: dict[str, dict[str, dict[str, dict]]] = {}
    for _, (point, result) in _sorted_cells(cells):
        bench_cells = depths.setdefault(
            str(point.pipeline_depth), {}).setdefault(point.benchmark, {})
        if point.configuration in bench_cells:
            raise _second_result("figure6", point)
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


_BUILDERS: dict[str, Callable] = {
    "figure5": _figure5_view,
    "figure6": _figure6_view,
    "speculation": _speculation_view,
}


class ViewAggregator:
    """A run's result sink that builds the views once, when it is done.

    Attach one as ``run_plan(..., sink=aggregator)``: it consumes the
    per-point stream — ``on_plan`` once, ``on_progress`` per
    :class:`~repro.experiments.scheduler.ProgressEvent`, ``on_result``
    per delivered result (backend deliveries and cache hits alike;
    duplicates are deduped on the point's canonical cell id),
    ``on_failure`` for final failures.  :meth:`mark_done` builds
    the views; a :meth:`snapshot` taken before that builds them from
    what has landed so far.  Both backends call the sink from the
    scheduler's thread.  ``views`` names the views to build (default
    :data:`ALL_VIEWS`); an unknown name raises ``ValueError``.
    """

    def __init__(self, *, views: "Iterable[str] | None" = None) -> None:
        selected = tuple(views) if views is not None else ALL_VIEWS
        unknown = sorted(set(selected) - set(ALL_VIEWS))
        if unknown:
            raise ValueError(f"unknown view(s) {unknown}; expected a "
                             f"subset of {list(ALL_VIEWS)}")
        self._views = selected
        self._cells: dict[str, tuple[ExperimentPoint, SimulationResult]] = {}
        self._cell_meta: dict[str, dict] = {}
        self._sources: dict[str, int] = {}
        self._failures: list[dict] = []
        self._total: "int | None" = None
        self._ticked: set[str] = set()
        self._done = False
        self._snapshot: "ViewSnapshot | None" = None
        self.duplicates = 0

    # -- scheduler protocol --------------------------------------------------

    def on_plan(self, plan, keys: Mapping[ExperimentPoint, str]) -> None:
        """A run over ``plan`` is starting (idempotent across resumes)."""
        self._total = len(plan)
        self._snapshot = None

    def on_progress(self, event) -> None:
        """One scheduler ProgressEvent (a completed point)."""
        self._ticked.add(event.key)
        self._snapshot = None

    def on_result(self, point: ExperimentPoint, key: "str | None",
                  result: SimulationResult, *, source: str = "unknown",
                  meta: "dict | None" = None) -> None:
        """A point's result landed (first delivery wins)."""
        cell = _cell_id(point)
        if cell in self._cells:
            self.duplicates += 1
            return
        self._cells[cell] = (point, result)
        if meta:
            self._cell_meta[cell] = meta
        self._sources[source] = self._sources.get(source, 0) + 1
        self._snapshot = None

    def on_failure(self, point: "ExperimentPoint | None",
                   key: "str | None", error: Exception) -> None:
        """A point (or whole batch, ``point=None``) finally failed."""
        self._failures.append({
            "point": point.to_dict() if point is not None else None,
            "error": f"{type(error).__name__}: {error}",
        })
        self._snapshot = None

    def mark_done(self) -> None:
        """The producing run is over: build the final views."""
        self._done = True
        self._snapshot = self._build()

    # -- read side -----------------------------------------------------------

    def snapshot(self) -> ViewSnapshot:
        """The views over every event applied so far."""
        if self._snapshot is None:
            self._snapshot = self._build()
        return self._snapshot

    # -- internals -----------------------------------------------------------

    def _build(self) -> ViewSnapshot:
        with obs.span("views", kind="view",
                      attrs={"results": len(self._cells)}):
            views = {name: self._status_view() if name == "status"
                     else _BUILDERS[name](self._cells)
                     for name in self._views}
        return ViewSnapshot(views=views, done=self._done)

    def _status_view(self) -> dict:
        kernel_mix: dict[str, int] = {}
        for cell in sorted(self._cell_meta):
            value = self._cell_meta[cell].get("kernel_source")
            if value:
                kernel_mix[value] = kernel_mix.get(value, 0) + 1
        done = len(self._cells)
        return {
            "done": done,
            "total": self._total,
            "pending": max(self._total - done, 0)
            if self._total is not None else None,
            "failed": len(self._failures),
            "failures": list(self._failures),
            "sources": dict(sorted(self._sources.items())),
            "kernel_sources": dict(sorted(kernel_mix.items())),
            "ticks": len(self._ticked),
            "complete": self._done,
        }


def build_views(results: Mapping[ExperimentPoint, SimulationResult], *,
                views: "Iterable[str] | None" = None) -> ViewSnapshot:
    """Post-hoc view construction — the invariant's reference side.

    Feeds a finished ``{point: result}`` mapping (``run_plan``'s return
    shape) through a fresh aggregator.  A run-attached aggregator's
    identity views must equal this function's output byte-for-byte
    (:func:`identity_json`); the ``status`` view will differ — it
    describes the run that produced the results, and this one had none.
    ``views`` selects a subset, as for :class:`ViewAggregator`.
    """
    aggregator = ViewAggregator(views=views)
    for point, result in results.items():
        aggregator.on_result(point, None, result, source="posthoc")
    aggregator.mark_done()
    return aggregator.snapshot()
