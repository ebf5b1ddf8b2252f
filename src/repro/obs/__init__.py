"""Unified structured telemetry: spans, events and a live run ledger.

A zero-dependency flight recorder for the whole execution stack
(DESIGN.md §11).  When ``REPRO_OBS=1`` the experiment scheduler opens a
*telemetry run* — a directory under ``REPRO_OBS_DIR`` (default
``results/obs/``) — and every layer appends structured JSONL
events to it:

* **spans** — ``run → plan → batch → point → phase`` (record / lower /
  replay / live) with monotonic durations; a point span carries the
  point's identity and simulation window, and its ``replay`` or
  ``live`` phase names the tier that ran it;
* **events** — one ``progress`` event per completed point (its cache
  key, result source and compute seconds) and one ``kind="error"``
  event per failed point;
* **one writer** — pool workers write no files: each puts its ledger
  lines on the pool's channel and the parent appends them to its own
  stream (:meth:`Telemetry.write_line`); at run close the parent writes
  that stream, totally ordered, to ``ledger.jsonl`` in one atomic write
  (:mod:`repro.obs.ledger`);
* **interval samples** — ``REPRO_OBS_INTERVAL=N`` attaches a read-only
  per-N-cycle sampler to the live engine (:mod:`repro.obs.interval`):
  IPC, mispredict rate, ROB occupancy and DDT chain lengths over time.
  Only live points are sampled (``wrongpath`` points and
  ``execute_point(..., trace=False)`` calls); the kernel has no engine
  loop to sample.

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
    obs.emit("progress", kind="point", attrs={"source": "cache"})

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
from repro.obs.ledger import EVENT_SCHEMA_VERSION, write_ledger

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "Telemetry",
    "activate",
    "close_run",
    "current",
    "emit",
    "span",
    "start_run",
]

class Telemetry:
    """One process's event stream within a telemetry run.

    The parent scheduler owns the *root* instance: its stream is
    ``<run_dir>/events.jsonl``, flushed per line, and it writes the
    ledger at close.  A pool worker's instance is built on the pool's
    ``channel`` and puts each line there instead; the parent appends the
    lines it drains to its own stream (:meth:`write_line`), so it is the
    run's only writer.  A put returns once the pool's manager holds the
    line, so a worker killed mid-batch (``os._exit`` included) leaves
    every line it wrote in the parent's stream, its unclosed spans
    recording exactly where it died.
    """

    def __init__(self, run_id: str,
                 run_dir: str | os.PathLike | None = None, *,
                 emitter: str = "parent", channel=None,
                 root_span: str | None = None) -> None:
        self.run_id = run_id
        self.emitter = emitter
        self.pid = os.getpid()
        self._seq = 0
        self._span_n = 0
        self._stack: list[str | None] = [root_span]
        self._open_spans: dict[str, float] = {}
        self._closed = False
        if channel is not None:
            self.run_dir = self.path = None
            self._put = channel.put
            return
        self.run_dir = pathlib.Path(run_dir)
        self.path = self.run_dir / "events.jsonl"
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")
        self._put = self._append

    # -- primitives ----------------------------------------------------------

    def _append(self, line: str) -> None:
        self._file.write(line + "\n")
        self._file.flush()

    def write_line(self, line: str) -> None:
        """Add one encoded ledger line (its own, or a relayed worker's)."""
        if self._closed:
            return
        try:
            self._put(line)
        except (OSError, ValueError, EOFError):
            # A torn-down filesystem (run dir removed) or manager must
            # never take the simulation down.
            self._closed = True

    def _write(self, record: dict) -> None:
        self.write_line(json.dumps(record, sort_keys=True,
                                   separators=(",", ":")))

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

    # -- cross-process plumbing ----------------------------------------------

    def context(self) -> dict:
        """What a worker needs to join this run's span tree."""
        return {"run": self.run_id, "parent": self._stack[-1]}

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> pathlib.Path | None:
        """Close the stream; the root instance also writes the ledger.

        The root instance writes its stream, totally ordered, to the
        atomically-visible ``ledger.jsonl`` beside it and returns that
        path; a channel instance returns None.
        """
        if self._closed:
            return None
        self._closed = True
        if self.path is None:
            return None
        self._file.close()
        ledger = self.run_dir / "ledger.jsonl"
        write_ledger(self.path, ledger)
        return ledger


# -- module-level current run -------------------------------------------------

_current: Telemetry | None = None
_run_counter = 0


def current() -> Telemetry | None:
    """The active telemetry for *this process*, or None.

    An instance inherited across ``fork`` is the parent's — writing to
    its stream would interleave two processes' sequence numbers — so it
    is invisible here; a pool worker joins explicitly via
    :func:`activate` with a :class:`Telemetry` on the pool's channel.
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
    """Close a :func:`start_run` telemetry: end its spans, write the ledger."""
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
