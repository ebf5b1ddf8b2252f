"""Trace acquisition policy and the persistent on-disk trace store.

The mechanics of recording and replaying a committed instruction stream
live in :mod:`repro.pipeline.trace`; this module decides *when* the
experiment service uses them and where recorded traces persist:

* :func:`trace_mode` — the ``REPRO_TRACE`` knob: ``"memory"`` (default)
  shares one in-memory recording across the redirect points of a worker
  batch or serial sweep; ``"disk"`` additionally persists traces so
  *cold single points* (and later processes) skip re-interpretation;
  ``"0"`` disables replay entirely.
* :class:`TraceStore` — content-addressed ``*.trace`` files next to the
  result cache (``benchmarks/results/traces/``, relocate with
  ``REPRO_TRACE_DIR``).  Keys include the same package source
  fingerprint the result cache uses (:func:`~repro.experiments.plan.
  code_fingerprint`), so editing the simulator or a workload strands
  stale traces under dead keys instead of replaying them; corrupted or
  truncated files are misses that trigger re-recording, never errors.
* :func:`amortized_workloads` — the one trace-amortization rule.
  Recording costs one functional run, so a trace is only recorded when
  it will amortize: at least two redirect points of the same workload
  identity (benchmark, scale, seed), or the disk store is on (the
  recording persists for future runs).  Wrong-path points always keep
  the live core — wrong-path synthesis reads live architectural state.
* :class:`SharedTraces` — the per-batch/per-sweep pool that applies the
  rule locally; the queue backend applies the same rule to decide which
  traces to record parent-side and ship.

A redirect point with a trace replays through the compiled kernel
(:mod:`repro.pipeline.kernel`); without one it runs on the live engine.
Changing this module never changes a simulation outcome (kernel == live
bit for bit, enforced by the equality suite), so like the rest of the
experiment harness it is excluded from the result-cache fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from collections import Counter

from repro import obs
from repro.faults import fsio
from repro.experiments.plan import ExperimentPoint, code_fingerprint
from repro.pipeline.functional import DEFAULT_MAX_INSTRUCTIONS
from repro.pipeline.trace import CommittedTrace, TraceError, TraceRecorder
from repro.workloads.registry import get_program

#: Versions the trace *key* payload (the file layout is versioned
#: separately by ``pipeline.trace.TRACE_FORMAT_VERSION``).
TRACE_KEY_SCHEMA_VERSION = 1


def trace_mode() -> str:
    """``REPRO_TRACE`` -> "off" | "memory" | "disk" (default "memory")."""
    raw = os.environ.get("REPRO_TRACE", "1").strip().lower()
    if raw in ("0", "false", "no", "off"):
        return "off"
    if raw == "disk":
        return "disk"
    return "memory"


def default_trace_dir() -> pathlib.Path:
    override = os.environ.get("REPRO_TRACE_DIR")
    if override:
        return pathlib.Path(override)
    root = pathlib.Path(__file__).resolve().parents[3]
    if not (root / "pyproject.toml").is_file():
        root = pathlib.Path.cwd()
    return root / "benchmarks" / "results" / "traces"


def trace_key(benchmark: str, scale: float, seed: int,
              max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> str:
    """Stable content hash identifying one workload's committed stream.

    The functional path is configuration-independent, so the key covers
    only what shapes the stream: the workload identity, the recording
    budget, and the package source fingerprint (any simulator or
    workload edit strands stale traces exactly like stale results).
    """
    payload = {
        "schema": TRACE_KEY_SCHEMA_VERSION,
        "code": code_fingerprint(),
        "benchmark": benchmark,
        "scale": scale,
        "seed": seed,
        "max_instructions": max_instructions,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class TraceStore:
    """Content-addressed store of serialized committed traces."""

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self.directory = pathlib.Path(directory) if directory is not None \
            else default_trace_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> pathlib.Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed trace key {key!r}")
        return self.directory / f"{key}.trace"

    def get(self, key: str) -> CommittedTrace | None:
        """Load a stored trace; any malformed file is a miss."""
        try:
            trace = CommittedTrace.from_bytes(self._path(key).read_bytes())
        except (OSError, TraceError):
            self.misses += 1
            obs.inc("trace_store.cold")
            return None
        self.hits += 1
        obs.inc("trace_store.warm")
        return trace

    def put(self, key: str, trace: CommittedTrace) -> None:
        """Atomically and durably persist one trace under its key.

        Routed through :mod:`repro.faults.fsio` (fsync-before-rename,
        chaos-injectable): a mangled stored trace fails
        ``CommittedTrace.from_bytes`` validation on the next ``get`` and
        is simply re-recorded — the store is a cache, never an oracle.
        """
        path = self._path(key)
        self.directory.mkdir(parents=True, exist_ok=True)
        fsio.atomic_write_bytes(path, trace.to_bytes(), site="trace.put")

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.trace"))

    def clear(self) -> int:
        """Delete every stored trace (and orphaned temp files)."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.trace"):
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


def default_trace_store() -> TraceStore:
    return TraceStore()


def load_or_record(benchmark: str, scale: float, seed: int,
                   max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                   store: TraceStore | None = None) -> CommittedTrace:
    """Produce a workload's committed trace, via the disk store if on.

    A stored trace that fails validation against the freshly built
    program (a key collision or hand-copied file) is re-recorded and
    overwritten, mirroring the result cache's corrupt-entry policy.
    """
    program = get_program(benchmark, scale=scale, seed=seed)
    if store is None and trace_mode() == "disk":
        store = default_trace_store()
    key = None
    if store is not None:
        key = trace_key(benchmark, scale, seed, max_instructions)
        trace = store.get(key)
        if trace is not None:
            try:
                trace.validate_for(program)
                return trace
            except TraceError:
                pass  # stale under this key: re-record below
    with obs.span("record", kind="phase", attrs={
            "phase": "record", "benchmark": benchmark}):
        trace = TraceRecorder(program).record(max_instructions)
    if store is not None:
        store.put(key, trace)
    return trace


def _workload_key(point: ExperimentPoint) -> tuple[str, float | None, int]:
    return (point.benchmark, point.scale, point.seed)


def _redirect_counts(points) -> Counter:
    return Counter(_workload_key(point) for point in points
                   if point.speculation == "redirect")


def amortized_workloads(points) -> list[tuple[str, float | None, int]]:
    """Workload identities whose committed trace is worth recording.

    The one place the amortization rule lives: record when at least two
    ``redirect`` points share a (benchmark, scale, seed) identity, or
    whenever the disk store is on (the recording outlives the run);
    never with ``REPRO_TRACE=0``.  First-appearance order.
    """
    mode = trace_mode()
    if mode == "off":
        return []
    return [key for key, count in _redirect_counts(points).items()
            if count >= 2 or mode == "disk"]


class SharedTraces:
    """Per-batch (or per-serial-sweep) committed-trace pool.

    ``get`` returns the trace an :func:`~repro.experiments.runner.
    execute_point` call should replay, or None for a live run.  A trace
    is recorded at most once per workload identity and dropped from the
    pool as soon as its last consumer has fetched it, bounding memory
    across long serial sweeps.
    """

    def __init__(self, points) -> None:
        points = list(points)
        self._record = amortized_workloads(points)
        self._remaining = _redirect_counts(points)
        self._traces: dict[tuple, CommittedTrace] = {}

    def get(self, point: ExperimentPoint) -> CommittedTrace | None:
        key = _workload_key(point)
        if point.speculation != "redirect" or key not in self._record:
            return None
        remaining = self._remaining[key]
        self._remaining[key] = remaining - 1
        trace = self._traces.get(key)
        if trace is None:
            trace = load_or_record(point.benchmark, point.scale, point.seed)
        if remaining > 1:
            self._traces[key] = trace
        else:
            self._traces.pop(key, None)
        return trace
