"""Run-ledger CLI: ``python -m repro.obs [summary|tail|validate] [path]``.

* ``summary`` (default) — render a finished run: the environment's
  ``REPRO_*`` snapshot, the simulation windows its points ran at, the
  reconstructed run → plan → batch → point → phase span tree
  (crashed/unclosed spans flagged), failed points (``kind="error"``
  events), per-phase timing breakdown and completed points per result
  source.
* ``tail`` — follow a *live* run: echo one formatted line per new
  event of its ``events.jsonl`` as it is written (pool workers' lines
  included: the parent relays them into that one stream).
* ``validate`` — check every line of a ledger (or of a run directory's
  ledger, or its live stream before close) against the event schema;
  exit 1 on any violation.

``path`` may be a run directory, a ledger file, or an observability
root (``REPRO_OBS_DIR``) — the newest run is picked automatically when
a root or nothing is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import time
from collections import Counter

from repro import settings
from repro.obs.ledger import (
    SpanNode,
    SpanTree,
    build_span_tree,
    iter_lines,
    read_events,
    sort_key,
    validate_event,
)


def _resolve_run(path: str | None) -> pathlib.Path:
    """Turn the CLI path argument into a run directory or ledger file."""
    candidate = pathlib.Path(path) if path else settings.current().obs_dir
    if candidate.is_file():
        return candidate
    if candidate.is_dir():
        if (candidate / "events.jsonl").exists() \
                or (candidate / "ledger.jsonl").exists():
            return candidate
        runs = sorted((entry for entry in candidate.iterdir()
                       if entry.is_dir() and entry.name.startswith("run-")),
                      key=lambda entry: entry.name)
        if runs:
            return runs[-1]
    raise SystemExit(f"no telemetry run found at {candidate}")


def _ledger_stream(run: pathlib.Path) -> pathlib.Path | None:
    """A run's one event stream: the ledger, else the live stream."""
    if run.is_file():
        return run
    for name in ("ledger.jsonl", "events.jsonl"):
        if (run / name).exists():
            return run / name
    return None


def _load_events(run: pathlib.Path) -> list[dict]:
    stream = _ledger_stream(run)
    return sorted(read_events(stream), key=sort_key) if stream else []


# -- summary ------------------------------------------------------------------

#: The run span's settings attributes, in field order.
_SETTINGS = tuple(spec.name
                  for spec in dataclasses.fields(settings.Settings))

#: The simulation-window attributes of point spans and progress events.
_WINDOW = ("scale", "warmup", "seed")


def _format_span(node: SpanNode) -> str:
    attrs = node.attrs
    bits = [node.name]
    label = {
        "run": lambda: attrs.get("label"),
        "plan": lambda: f"{attrs.get('points', '?')} points",
        "batch": lambda: " ".join(filter(None, (
            str(attrs.get("batch_id", "")),
            f"{attrs.get('points', '?')}pts",
            attrs.get("benchmark", ""),
            f"worker {attrs['worker']}" if attrs.get("worker") else ""))),
        "point": lambda: " ".join(filter(None, (
            attrs.get("benchmark", ""), attrs.get("configuration", ""),
            f"d{attrs['depth']}" if attrs.get("depth") else "",
            attrs.get("speculation", "")))),
        "phase": lambda: attrs.get("mode") or attrs.get("phase"),
    }.get(node.kind, lambda: None)()
    if label:
        bits.append(f"[{label}]")
    if node.closed:
        bits.append(f"{node.duration:.3f}s")
        error = (node.end.get("attrs") or {}).get("error")
        if error:
            bits.append(f"ERROR: {error}")
    else:
        bits.append("UNCLOSED (crashed or still running)")
    return " ".join(bits)


def _phase_breakdown(tree: SpanTree) -> dict[str, tuple[int, float]]:
    phases: dict[str, tuple[int, float]] = {}
    for node in tree.find("phase"):
        label = node.attrs.get("phase") or node.name
        count, total = phases.get(label, (0, 0.0))
        phases[label] = (count + 1, total + (node.duration or 0.0))
    return phases


def summary(run: pathlib.Path, echo=print) -> int:
    events = _load_events(run)
    if not events:
        echo(f"{run}: no events")
        return 1
    tree = build_span_tree(events)
    echo(f"run: {events[0].get('run')}  ({len(events)} events, "
         f"{len(tree.nodes)} spans)")
    for node in tree.find("run")[:1]:
        knobs = {name: node.attrs[name] for name in _SETTINGS
                 if name in node.attrs}
        if knobs:
            echo("environment (REPRO_* snapshot): " + " ".join(
                f"{name}={value}" for name, value in knobs.items()))
    # A computed point has a point span; a cache hit only its progress
    # event.  Both carry the window.
    window_attrs = [node.attrs for node in tree.find("point")]
    window_attrs += [event.get("attrs") or {} for event in events
                     if event.get("name") == "progress"]
    windows = sorted({tuple(attrs.get(name) for name in _WINDOW)
                      for attrs in window_attrs if "scale" in attrs},
                     key=repr)
    for window in windows:
        echo("window: " + " ".join(f"{name}={value}" for name, value
                                   in zip(_WINDOW, window)))
    echo("")
    for node, depth in tree.walk():
        echo("  " * depth + "- " + _format_span(node))
        for event in node.events:
            if event.get("kind") == "error":
                attrs = event.get("attrs") or {}
                echo("  " * (depth + 1) + f"* {event.get('name')}: "
                     f"{attrs.get('type')}: {attrs.get('message')}")
    unclosed = [node for node in tree.nodes.values() if not node.closed]
    if unclosed:
        echo("")
        echo(f"unclosed spans: {len(unclosed)} "
             "(crashed workers or a live run)")
    phases = _phase_breakdown(tree)
    if phases:
        echo("")
        echo("phase timing:")
        for label, (count, total) in sorted(phases.items()):
            echo(f"  {label:<12} {count:>4} span(s) {total:>9.3f}s total "
                 f"{total / count:>8.4f}s avg")
    sources = Counter((event.get("attrs") or {}).get("source")
                      for event in events if event.get("name") == "progress")
    if sources:
        echo("")
        echo("points by source:")
        for source, count in sorted(sources.items(), key=repr):
            echo(f"  {source:<12} {count:>4}")
    return 0


# -- tail ---------------------------------------------------------------------


def _format_line(record: dict) -> str:
    stamp = time.strftime("%H:%M:%S", time.localtime(record.get("ts", 0)))
    attrs = record.get("attrs") or {}
    detail = " ".join(f"{k}={v}" for k, v in attrs.items())
    dur = record.get("dur")
    dur_text = f" ({dur:.3f}s)" if isinstance(dur, (int, float)) else ""
    return (f"{stamp} {record.get('emitter', '?'):<14} "
            f"{record.get('event', '?'):<10} "
            f"{record.get('kind', '?')}/{record.get('name', '?')}"
            f"{dur_text} {detail}".rstrip())


def tail(run: pathlib.Path, *, follow: bool = True, poll: float = 0.5,
         echo=print, max_polls: int | None = None) -> int:
    """Stream events from a live run's stream as they are written."""
    stream = run if run.is_file() else run / "events.jsonl"
    offset = polls = 0
    echo(f"tailing {run}  (ctrl-c to stop)")
    while True:
        try:
            with open(stream, "r", encoding="utf-8") as handle:
                handle.seek(offset)
                chunk = handle.read()
        except OSError:
            chunk = ""
        offset += len(chunk)
        progressed = False
        for raw in chunk.splitlines():
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except ValueError:
                continue
            progressed = True
            echo(_format_line(record))
        if not follow:
            return 0
        polls += 1
        if max_polls is not None and polls >= max_polls:
            return 0
        if not progressed:
            time.sleep(poll)


# -- validate -----------------------------------------------------------------


def validate(run: pathlib.Path, echo=print) -> int:
    """Schema-check every line of the run's stream; exit 1 on violations."""
    stream = _ledger_stream(run)
    if stream is None:
        echo(f"{run}: no ledger stream found")
        return 1
    bad = total = 0
    for number, _raw, record, error in iter_lines(stream):
        total += 1
        problems = [error] if error is not None else validate_event(record)
        if problems:
            bad += 1
            echo(f"{stream}:{number}: {'; '.join(problems)}")
    echo(f"{total} line(s) in {stream.name}: "
         + ("all valid" if bad == 0 else f"{bad} invalid"))
    return 0 if bad == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect telemetry run ledgers (REPRO_OBS=1).")
    parser.add_argument("command", nargs="?", default="summary",
                        choices=("summary", "tail", "validate"),
                        help="summary (default) | tail | validate")
    parser.add_argument("path", nargs="?", default=None,
                        help="run directory, ledger file, or obs root "
                             "(default: newest run under REPRO_OBS_DIR)")
    parser.add_argument("--no-follow", action="store_true",
                        help="tail: print what exists and exit")
    parser.add_argument("--poll", type=float, default=0.5,
                        help="tail: seconds between polls (default 0.5)")
    args = parser.parse_args(argv)
    run = _resolve_run(args.path)
    if args.command == "summary":
        return summary(run)
    if args.command == "tail":
        try:
            return tail(run, follow=not args.no_follow, poll=args.poll)
        except KeyboardInterrupt:
            return 0
    return validate(run)


if __name__ == "__main__":
    sys.exit(main())
