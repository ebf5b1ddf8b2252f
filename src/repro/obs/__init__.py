"""Unified structured telemetry: spans, metrics and a live run ledger.

A zero-dependency flight recorder for the whole execution stack
(DESIGN.md §11).  When ``REPRO_OBS=1`` the experiment scheduler opens a
*telemetry run* — a directory under ``REPRO_OBS_DIR`` (default
``benchmarks/results/obs/``) — and every layer appends structured JSONL
events to it:

* **spans** — ``run → plan → batch → point → phase`` (record / lower /
  replay / live) with monotonic durations and the ``trace_source`` /
  ``kernel_source`` markers as attributes, plus one ``kind="error"``
  event per failed point;
* **metrics** — counters, gauges and histograms
  (:mod:`repro.obs.metrics`): cache hit/miss, point durations —
  snapshotted into the ledger and to
  ``metrics.json`` / ``metrics.prom`` (Prometheus text exposition) at
  run close;
* **worker shards** — pool workers write their own streams into the
  run directory (:func:`worker_shard`); the parent merges them into
  one totally ordered ``ledger.jsonl``, written atomically at run close
  (:mod:`repro.obs.ledger`);
* **interval samples** — ``REPRO_OBS_INTERVAL=N`` attaches a read-only
  per-N-cycle sampler to the engine (:mod:`repro.obs.interval`): IPC,
  mispredict rate, ROB occupancy and DDT chain lengths over time.

Telemetry *observes*; it never feeds back into a simulation.  Enabling
``REPRO_OBS`` and interval sampling leaves every ``SimulationResult``
bit-for-bit identical on every backend (enforced by the identity suite
in ``tests/obs/``), and the whole package is excluded from the
result-cache code fingerprint for the same reason.

The instrumentation API is the module itself — every helper no-ops in
nanoseconds when no telemetry run is active, so call sites stay bare::

    from repro import obs

    with obs.span("replay", kind="phase", attrs={"mode": "kernel"}):
        ...
    obs.inc("cache.hit")

``python -m repro.obs`` tails a live run, summarizes a finished one and
validates ledgers against the event schema (:mod:`repro.obs.__main__`).
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import time
from typing import Iterator

from repro import settings
from repro.obs.ledger import EVENT_SCHEMA_VERSION, merge_streams
from repro.obs.metrics import (
    DURATION_BOUNDS,
    MetricsRegistry,
    render_prometheus,
)

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "Telemetry",
    "activate",
    "close_run",
    "current",
    "emit",
    "gauge",
    "inc",
    "observe",
    "observe_duration",
    "span",
    "start_run",
    "worker_context",
    "worker_shard",
]

class Telemetry:
    """One process's event stream within a telemetry run.

    The parent scheduler owns the *root* instance (its stream is
    ``<run_dir>/events.jsonl`` and it performs the close-time merge);
    worker processes own *shard* instances writing to their own files.
    Every line is flushed as written, so a worker killed mid-batch
    (``os._exit`` included) leaves a readable stream whose unclosed
    spans record exactly where it died.
    """

    def __init__(self, run_id: str, run_dir: str | os.PathLike, *,
                 emitter: str = "parent",
                 path: str | os.PathLike | None = None,
                 root_span: str | None = None) -> None:
        self.run_id = run_id
        self.run_dir = pathlib.Path(run_dir)
        self.emitter = emitter
        self.pid = os.getpid()
        self.metrics = MetricsRegistry()
        self._seq = 0
        self._span_n = 0
        self._stack: list[str | None] = [root_span]
        self._open_spans: dict[str, float] = {}
        self.path = pathlib.Path(path) if path is not None \
            else self.run_dir / "events.jsonl"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")
        self._closed = False

    # -- primitives ----------------------------------------------------------

    def _write(self, record: dict) -> None:
        if self._closed:
            return
        try:
            self._file.write(json.dumps(record, sort_keys=True,
                                        separators=(",", ":")) + "\n")
            self._file.flush()
        except (OSError, ValueError):
            # A torn-down filesystem (run dir removed under a straggling
            # worker) must never take the simulation down.
            self._closed = True

    def _record(self, event: str, name: str, kind: str,
                attrs: dict | None = None, **extra) -> dict:
        record = {
            "v": EVENT_SCHEMA_VERSION,
            "ts": time.time(),
            "run": self.run_id,
            "emitter": self.emitter,
            "seq": self._seq,
            "event": event,
            "name": name,
            "kind": kind,
        }
        self._seq += 1
        if attrs:
            record["attrs"] = attrs
        record.update(extra)
        return record

    # -- spans ---------------------------------------------------------------

    def begin_span(self, name: str, kind: str,
                   attrs: dict | None = None) -> str:
        span_id = f"{self.emitter}#{self._span_n}"
        self._span_n += 1
        self._write(self._record("span_start", name, kind, attrs,
                                 span=span_id, parent=self._stack[-1]))
        self._stack.append(span_id)
        self._open_spans[span_id] = time.perf_counter()
        return span_id

    def end_span(self, span_id: str, attrs: dict | None = None) -> float:
        started = self._open_spans.pop(span_id, None)
        duration = time.perf_counter() - started if started is not None \
            else 0.0
        if self._stack and self._stack[-1] == span_id:
            self._stack.pop()
        node = self._stack[-1] if self._stack else None
        record = self._record("span_end", "end", "span", attrs,
                              span=span_id, parent=node,
                              dur=round(duration, 6))
        self._write(record)
        return duration

    @contextlib.contextmanager
    def span(self, name: str, kind: str = "span",
             attrs: dict | None = None) -> Iterator[str]:
        span_id = self.begin_span(name, kind, attrs)
        try:
            yield span_id
        except BaseException as exc:
            self.end_span(span_id, attrs={
                "error": f"{type(exc).__name__}: {exc}"[:200]})
            raise
        else:
            self.end_span(span_id)

    def emit(self, name: str, kind: str = "event",
             attrs: dict | None = None) -> None:
        self._write(self._record("event", name, kind, attrs,
                                 span=self._stack[-1]))

    # -- metrics -------------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels) -> None:
        self.metrics.inc(name, value, **labels)

    def gauge(self, name: str, value: float, **labels) -> None:
        self.metrics.set_gauge(name, value, **labels)

    def observe(self, name: str, value: float,
                bounds: tuple[float, ...] | None = None, **labels) -> None:
        self.metrics.observe(name, value, bounds=bounds, **labels)

    # -- cross-process plumbing ----------------------------------------------

    def context(self) -> dict:
        """What a worker needs to join this run's span tree."""
        return {"run": self.run_id, "parent": self._stack[-1],
                "dir": str(self.run_dir)}

    # -- lifecycle -----------------------------------------------------------

    def snapshot_metrics(self) -> dict:
        return self.metrics.to_dict()

    def snapshot_event(self) -> None:
        """Write a cumulative metrics-snapshot line to this stream.

        Shards call this after each batch/job so a later crash still
        leaves their counters recoverable; the close-time merge folds
        only each stream's *last* snapshot (they are cumulative).
        """
        self._write(self._record("metrics", "snapshot", "metrics",
                                 metrics=self.snapshot_metrics()))

    def close(self, *, merge: bool = True) -> pathlib.Path | None:
        """Flush, snapshot metrics, merge shards, write the final ledger.

        Shard instances call ``close(merge=False)`` — they just emit
        their metrics snapshot and close their stream.  The root
        instance folds every shard's snapshot into the run totals,
        writes ``metrics.json`` + ``metrics.prom``, and produces the
        atomically-visible ``ledger.jsonl``.  Returns the ledger path
        (root) or None (shard).
        """
        if self._closed:
            return None
        self.snapshot_event()
        self._file.close()
        self._closed = True
        if not merge:
            return None
        streams = [self.path]
        shard_dir = self.run_dir / "shards"
        if shard_dir.is_dir():
            streams.extend(sorted(shard_dir.glob("*.jsonl")))
        # Fold each shard's *last* metrics snapshot (they are cumulative
        # per stream) into the run totals.
        from repro.obs.ledger import read_events
        for stream in streams[1:]:
            try:
                last = None
                for record in read_events(stream):
                    if record.get("event") == "metrics":
                        last = record
                if last is not None:
                    self.metrics.merge(last.get("metrics", {}))
            except OSError:
                continue
        ledger = self.run_dir / "ledger.jsonl"
        merge_streams(streams, ledger)
        try:
            (self.run_dir / "metrics.json").write_text(
                json.dumps(self.metrics.to_dict(), indent=2) + "\n")
            (self.run_dir / "metrics.prom").write_text(
                render_prometheus(self.metrics))
        except OSError:
            pass
        return ledger


# -- module-level current run -------------------------------------------------

_current: Telemetry | None = None
_run_counter = 0


def current() -> Telemetry | None:
    """The active telemetry for *this process*, or None.

    An instance inherited across ``fork`` is the parent's — writing to
    its stream would interleave two processes' sequence numbers — so it
    is invisible here; workers join explicitly via :func:`activate` with
    their :func:`worker_shard`.
    """
    if _current is not None and _current.pid == os.getpid():
        return _current
    return None


def start_run(label: str | None = None,
              root: str | os.PathLike | None = None) -> Telemetry:
    """Open a telemetry run and make it current; caller must close it.

    The run directory is ``<REPRO_OBS_DIR>/<run_id>/``; the root
    ``run`` span is opened immediately, carries the resolved
    :class:`~repro.settings.Settings` as attributes (which knobs produced
    the run's numbers), and is closed by :func:`close_run`.
    """
    global _current, _run_counter
    _run_counter += 1
    stamp = time.strftime("%Y%m%d-%H%M%S")
    run_id = f"run-{stamp}-{os.getpid()}-{_run_counter}"
    if label:
        run_id += f"-{label}"
    knobs = settings.current()
    run_dir = pathlib.Path(root) if root is not None else knobs.obs_dir
    telemetry = Telemetry(run_id, run_dir / run_id)
    telemetry.begin_span("run", "run",
                         attrs={"label": label, **knobs.as_attrs()})
    _current = telemetry
    return telemetry


def close_run(telemetry: Telemetry) -> pathlib.Path | None:
    """Close a :func:`start_run` telemetry: end the run span and merge."""
    global _current
    for span_id in list(reversed(telemetry._stack)):
        if span_id is not None and span_id in telemetry._open_spans:
            telemetry.end_span(span_id)
    ledger = telemetry.close()
    if _current is telemetry:
        _current = None
    return ledger


@contextlib.contextmanager
def activate(telemetry: Telemetry | None) -> Iterator[Telemetry | None]:
    """Make ``telemetry`` current for this process (worker-side)."""
    global _current
    previous = current()
    if telemetry is not None:
        _current = telemetry
    try:
        yield telemetry
    finally:
        _current = previous


def worker_context() -> dict | None:
    """The current run's :meth:`Telemetry.context`, for shipping."""
    telemetry = current()
    return telemetry.context() if telemetry is not None else None


_shards: dict[tuple[str, str, int], Telemetry] = {}


def worker_shard(context: dict | None) -> Telemetry | None:
    """This worker process's shard stream for a parent's run, cached.

    ``context`` is a shipped :meth:`Telemetry.context`; the shard file
    lives in the run directory's ``shards/``.  One instance per (run,
    directory, pid) is reused across batches so sequence numbers stay
    monotone and metrics stay cumulative; the stream lives until process
    exit (every line is flushed, so even an ``os._exit`` crash leaves it
    readable).  Returns None when the context is unusable — telemetry
    must never fail a simulation.
    """
    if not isinstance(context, dict) or not context.get("run"):
        return None
    run_dir = pathlib.Path(context.get("dir", ""))
    base = run_dir / "shards"
    key = (str(context["run"]), str(base), os.getpid())
    shard = _shards.get(key)
    if shard is not None and not shard._closed:
        return shard
    emitter = f"worker-{os.getpid()}"
    parent = context.get("parent")
    try:
        shard = Telemetry(
            str(context["run"]), run_dir, emitter=emitter,
            path=base / f"{emitter}.jsonl",
            root_span=parent if isinstance(parent, str) else None)
    except OSError:
        return None
    _shards[key] = shard
    return shard


# -- no-op-when-inactive instrumentation helpers ------------------------------

_NULL_SPAN = contextlib.nullcontext()


def span(name: str, kind: str = "span", attrs: dict | None = None):
    telemetry = current()
    if telemetry is None:
        return _NULL_SPAN
    return telemetry.span(name, kind, attrs)


def emit(name: str, kind: str = "event", attrs: dict | None = None) -> None:
    telemetry = current()
    if telemetry is not None:
        telemetry.emit(name, kind, attrs)


def inc(name: str, value: float = 1, **labels) -> None:
    telemetry = current()
    if telemetry is not None:
        telemetry.inc(name, value, **labels)


def gauge(name: str, value: float, **labels) -> None:
    telemetry = current()
    if telemetry is not None:
        telemetry.gauge(name, value, **labels)


def observe(name: str, value: float,
            bounds: tuple[float, ...] | None = None, **labels) -> None:
    telemetry = current()
    if telemetry is not None:
        telemetry.observe(name, value, bounds=bounds, **labels)


def observe_duration(name: str, seconds: float, **labels) -> None:
    """Histogram a wall-clock duration with duration-shaped buckets."""
    observe(name, seconds, bounds=DURATION_BOUNDS, **labels)
