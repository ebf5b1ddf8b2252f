"""Run-ledger lines: event schema, validation, shard merging, span trees.

One telemetry *run* produces a directory (DESIGN.md §11):

* ``events.jsonl`` — the parent process's live event stream (appended a
  line at a time, flushed per line, so ``python -m repro.obs tail`` can
  follow a run in flight);
* ``shards/*.jsonl`` — one stream per pool worker process;
* ``ledger.jsonl`` — written **atomically at run close**: every stream
  merged and totally ordered by ``(ts, emitter, seq)``.  A reader either
  sees no ledger (run still live / crashed before close) or a complete
  one, never a torn merge;
* ``metrics.json`` / ``metrics.prom`` — the final metrics snapshot as a
  JSON block and a Prometheus text exposition.

Every line is one JSON object validated by :func:`validate_event`; the
schema is deliberately flat so lines grep well and any JSONL tool can
consume them.  Span events (``span_start`` / ``span_end``) carry
globally unique ids (``emitter#n``) and explicit parent ids — including
across process boundaries, because parents ship their current span id to
workers — so :func:`build_span_tree` reconstructs the full
run → plan → batch → point → phase hierarchy from a merged ledger.  A
``span_start`` with no matching ``span_end`` is how a crashed worker
looks: the tree keeps it, flagged ``closed=False``.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field

from repro import fsio

#: Versions the per-line event schema; bump when fields change meaning.
EVENT_SCHEMA_VERSION = 1

#: The closed set of line types.
EVENT_TYPES = ("span_start", "span_end", "event", "metrics")

#: Span/event kinds with reserved meaning to the CLI renderer.  ``kind``
#: is open-ended — unknown kinds validate fine — but these are the ones
#: the stack emits and the summary view groups by.
KNOWN_KINDS = (
    "run", "plan", "batch", "point", "phase", "cache", "trace",
    "interval", "metrics", "error", "view",
)


class LedgerError(RuntimeError):
    """A ledger file or line is malformed."""


def validate_event(record: object) -> list[str]:
    """Schema-check one decoded ledger line; returns human errors."""
    errors: list[str] = []
    if not isinstance(record, dict):
        return [f"line is {type(record).__name__}, not an object"]
    if record.get("v") != EVENT_SCHEMA_VERSION:
        errors.append(f"v is {record.get('v')!r}, "
                      f"expected {EVENT_SCHEMA_VERSION}")
    event = record.get("event")
    if event not in EVENT_TYPES:
        errors.append(f"event is {event!r}, expected one of {EVENT_TYPES}")
    for key, types in (("ts", (int, float)), ("run", (str,)),
                       ("emitter", (str,)), ("seq", (int,)),
                       ("name", (str,)), ("kind", (str,))):
        value = record.get(key)
        if not isinstance(value, types) or isinstance(value, bool):
            errors.append(f"{key} is {value!r}, expected {types[0].__name__}")
    if isinstance(record.get("seq"), int) and record["seq"] < 0:
        errors.append(f"seq is {record['seq']}, expected >= 0")
    if event in ("span_start", "span_end"):
        if not isinstance(record.get("span"), str) or not record["span"]:
            errors.append("span events need a non-empty 'span' id")
        parent = record.get("parent")
        if parent is not None and not isinstance(parent, str):
            errors.append(f"parent is {parent!r}, expected str or null")
    if event == "span_end":
        dur = record.get("dur")
        if not isinstance(dur, (int, float)) or isinstance(dur, bool) \
                or dur < 0:
            errors.append(f"span_end dur is {dur!r}, expected number >= 0")
    if event == "metrics" and not isinstance(record.get("metrics"), dict):
        errors.append("metrics event needs a 'metrics' object")
    attrs = record.get("attrs")
    if attrs is not None and not isinstance(attrs, dict):
        errors.append(f"attrs is {type(attrs).__name__}, expected object")
    return errors


def iter_lines(path: str | os.PathLike):
    """Yield ``(line_number, raw_line, record_or_None, decode_error)``."""
    with open(path, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            raw = raw.rstrip("\n")
            if not raw.strip():
                continue
            try:
                yield number, raw, json.loads(raw), None
            except ValueError as exc:
                yield number, raw, None, str(exc)


def read_events(path: str | os.PathLike, *,
                strict: bool = False) -> list[dict]:
    """Parse one JSONL stream; ``strict`` raises on any bad line."""
    events: list[dict] = []
    for number, _raw, record, error in iter_lines(path):
        if error is not None or validate_event(record):
            if strict:
                detail = error or "; ".join(validate_event(record))
                raise LedgerError(f"{path}:{number}: {detail}")
            continue
        events.append(record)
    return events


def sort_key(record: dict):
    return (record.get("ts", 0), record.get("emitter", ""),
            record.get("seq", 0))


def merge_streams(paths, out_path: str | os.PathLike) -> int:
    """Merge event streams into one atomically-visible ordered ledger.

    Unparseable lines are dropped (a crashed worker may leave a torn
    final line; the flight recorder must still close), the merged lines
    are totally ordered by ``(ts, emitter, seq)``, and the output file
    appears via :func:`repro.fsio.atomic_write_bytes` — a concurrent
    reader never sees a partial ledger.  Returns the number of merged
    events.
    """
    events: list[dict] = []
    for path in paths:
        try:
            events.extend(read_events(path))
        except OSError:
            continue
    events.sort(key=sort_key)
    out_path = pathlib.Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    fsio.atomic_write_bytes(out_path, "".join(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        for record in events).encode())
    return len(events)


# -- span-tree reconstruction ------------------------------------------------


@dataclass
class SpanNode:
    """One reconstructed span: its start record, children and outcome."""

    span_id: str
    start: dict
    end: dict | None = None
    children: list["SpanNode"] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.start.get("name", "?")

    @property
    def kind(self) -> str:
        return self.start.get("kind", "?")

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float | None:
        return self.end.get("dur") if self.end is not None else None

    @property
    def attrs(self) -> dict:
        return self.start.get("attrs") or {}


@dataclass
class SpanTree:
    """A merged ledger reconstructed into forests plus loose events."""

    roots: list[SpanNode]
    nodes: dict[str, SpanNode]
    orphans: list[dict]          # events whose enclosing span never started
    metrics: list[dict]          # metrics-snapshot events, in order

    def walk(self):
        """Depth-first (node, depth) over every root."""
        stack = [(node, 0) for node in reversed(self.roots)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            for child in reversed(node.children):
                stack.append((child, depth + 1))

    def find(self, kind: str) -> list[SpanNode]:
        return [node for node, _ in self.walk() if node.kind == kind]


def build_span_tree(events: list[dict]) -> SpanTree:
    """Reconstruct the span forest from merged (ordered) ledger events.

    Tolerant by construction: an unclosed span (crashed worker) stays in
    the tree with ``closed=False``; a span whose parent id never appears
    becomes a root; instant events attach to their enclosing span when
    it exists and are reported as orphans otherwise.
    """
    nodes: dict[str, SpanNode] = {}
    roots: list[SpanNode] = []
    orphans: list[dict] = []
    metrics: list[dict] = []
    pending_parents: dict[str, list[SpanNode]] = {}

    for record in events:
        event = record.get("event")
        if event == "span_start":
            node = SpanNode(span_id=record["span"], start=record)
            nodes[node.span_id] = node
            parent_id = record.get("parent")
            parent = nodes.get(parent_id) if parent_id else None
            if parent is not None:
                parent.children.append(node)
            elif parent_id:
                # Parent may merge later (shards interleave); park it.
                pending_parents.setdefault(parent_id, []).append(node)
            else:
                roots.append(node)
            for child in pending_parents.pop(node.span_id, ()):
                node.children.append(child)
        elif event == "span_end":
            node = nodes.get(record.get("span", ""))
            if node is not None:
                node.end = record
        elif event == "metrics":
            metrics.append(record)
        else:
            span = record.get("span")
            node = nodes.get(span) if span else None
            if node is not None:
                node.events.append(record)
            else:
                orphans.append(record)

    # Parked children whose parent never appeared become roots.
    for waiting in pending_parents.values():
        roots.extend(waiting)
    return SpanTree(roots=roots, nodes=nodes, orphans=orphans,
                    metrics=metrics)
