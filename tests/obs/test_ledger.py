"""Ledger lines: schema validation, stream merging, span-tree rebuild."""

import json
import os

import pytest

from repro import obs
from repro.obs import Telemetry
from repro.obs.ledger import (
    EVENT_SCHEMA_VERSION,
    LedgerError,
    build_span_tree,
    iter_lines,
    merge_streams,
    read_events,
    sort_key,
    validate_event,
)


def _event(**overrides) -> dict:
    record = {"v": EVENT_SCHEMA_VERSION, "ts": 1.0, "run": "run-x",
              "emitter": "parent", "seq": 0, "event": "event",
              "name": "progress", "kind": "point"}
    record.update(overrides)
    return record


class TestValidation:
    def test_stack_emitted_lines_all_validate(self, tmp_path):
        """Every line the Telemetry class writes passes its own schema."""
        telemetry = Telemetry("run-t", tmp_path / "run-t")
        with telemetry.span("plan", kind="plan", attrs={"points": 2}):
            telemetry.emit("progress", kind="point", attrs={"completed": 1})
            telemetry.inc("cache.miss")
        with pytest.raises(RuntimeError):
            with telemetry.span("bad", kind="batch"):
                raise RuntimeError("boom")
        telemetry.close(merge=False)
        for number, _raw, record, error in iter_lines(telemetry.path):
            assert error is None, f"line {number}: {error}"
            assert validate_event(record) == [], f"line {number}"

    def test_good_event_validates_clean(self):
        assert validate_event(_event()) == []
        assert validate_event(_event(event="span_start", span="parent#0",
                                     parent=None)) == []
        assert validate_event(_event(event="span_end", span="parent#0",
                                     dur=0.25)) == []
        assert validate_event(_event(event="metrics", metrics={})) == []

    @pytest.mark.parametrize("mutation, fragment", [
        (dict(v=99), "v is 99"),
        (dict(event="bogus"), "event is 'bogus'"),
        (dict(ts="noon"), "ts is 'noon'"),
        (dict(seq=-1), "seq is -1"),
        (dict(seq=True), "seq is True"),
        (dict(event="span_start", span=""), "span"),
        (dict(event="span_start", span="s#0", parent=7), "parent is 7"),
        (dict(event="span_end", span="s#0", dur=-1), "dur is -1"),
        (dict(event="span_end", span="s#0"), "dur is None"),
        (dict(event="metrics"), "metrics"),
        (dict(attrs=[1, 2]), "attrs is list"),
    ])
    def test_bad_events_name_the_violation(self, mutation, fragment):
        errors = validate_event(_event(**mutation))
        assert errors
        assert any(fragment in error for error in errors), errors

    def test_non_object_line_is_rejected(self):
        assert validate_event([1, 2]) == ["line is list, not an object"]

    def test_read_events_strict_vs_lenient(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(json.dumps(_event()) + "\n"
                        + "{torn json\n"
                        + json.dumps(_event(seq=1)) + "\n")
        assert [e["seq"] for e in read_events(path)] == [0, 1]
        with pytest.raises(LedgerError, match="stream.jsonl:2"):
            read_events(path, strict=True)


class TestMerge:
    def test_merge_orders_across_streams(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text("".join(
            json.dumps(_event(ts=ts, emitter="parent", seq=i)) + "\n"
            for i, ts in enumerate((1.0, 3.0))))
        b.write_text("".join(
            json.dumps(_event(ts=ts, emitter="worker-1", seq=i)) + "\n"
            for i, ts in enumerate((2.0, 2.5))))
        out = tmp_path / "ledger.jsonl"
        assert merge_streams([a, b], out) == 4
        merged = read_events(out)
        assert [e["ts"] for e in merged] == [1.0, 2.0, 2.5, 3.0]
        assert merged == sorted(merged, key=sort_key)

    def test_merge_is_atomic_and_drops_torn_lines(self, tmp_path):
        """A crashed worker's torn final line is skipped and no temp file
        survives the merge — readers see a complete ledger or none."""
        a = tmp_path / "a.jsonl"
        a.write_text(json.dumps(_event()) + "\n" + '{"v":1,"truncat')
        out = tmp_path / "ledger.jsonl"
        assert merge_streams([a, tmp_path / "missing.jsonl"], out) == 1
        assert len(read_events(out)) == 1
        assert [p.name for p in tmp_path.glob("*.tmp")] == []


class TestSpanTree:
    def test_nesting_events_and_durations(self, tmp_path):
        telemetry = Telemetry("run-t", tmp_path / "run-t")
        with telemetry.span("run", kind="run"):
            with telemetry.span("plan", kind="plan"):
                with telemetry.span("batch-0", kind="batch"):
                    telemetry.emit("progress", kind="point",
                                   attrs={"completed": 1})
        telemetry.close(merge=False)
        tree = build_span_tree(read_events(telemetry.path))

        [root] = tree.roots
        assert [n.kind for n, _ in tree.walk()] == ["run", "plan", "batch"]
        assert root.closed and root.duration is not None
        [batch] = tree.find("batch")
        assert [e["name"] for e in batch.events] == ["progress"]
        assert tree.orphans == []
        assert len(tree.metrics) == 1     # the close-time snapshot

    def test_unclosed_span_marks_a_crash(self, tmp_path):
        """A worker killed mid-batch leaves span_start without span_end;
        the tree keeps the node, flagged closed=False."""
        telemetry = Telemetry("run-t", tmp_path / "run-t")
        outer = telemetry.begin_span("run", "run")
        telemetry.begin_span("batch-0", "batch")   # never ended: "crash"
        events = read_events(telemetry.path)
        telemetry._file.close()
        tree = build_span_tree(events)
        [batch] = tree.find("batch")
        assert not batch.closed and batch.duration is None
        assert tree.nodes[outer].closed is False

    def test_cross_stream_parent_arrives_late(self):
        """Shard lines can merge ahead of the parent's span_start (clock
        skew); the child is parked and attached when the parent shows."""
        child = _event(event="span_start", span="worker-9#0",
                       parent="parent#1", emitter="worker-9",
                       name="batch-0", kind="batch")
        parent_start = _event(event="span_start", span="parent#1",
                              parent=None, name="plan", kind="plan", seq=1)
        tree = build_span_tree([child, parent_start])
        [plan] = tree.roots
        assert [node.span_id for node in plan.children] == ["worker-9#0"]

    def test_parent_never_appears_child_becomes_root(self):
        child = _event(event="span_start", span="worker-9#0",
                       parent="parent#404", name="batch-0", kind="batch")
        orphan_event = _event(name="tick", span="gone#7", seq=1)
        tree = build_span_tree([child, orphan_event])
        assert [node.span_id for node in tree.roots] == ["worker-9#0"]
        assert [e["name"] for e in tree.orphans] == ["tick"]


class TestTelemetryPlumbing:
    def test_write_failure_disables_stream_not_simulation(self, tmp_path):
        """A torn-down filesystem mid-run must silently stop the stream."""
        telemetry = Telemetry("run-t", tmp_path / "run-t")
        telemetry._file.close()        # simulate the fs going away
        telemetry._closed = False
        telemetry.emit("after-teardown")   # must not raise
        assert telemetry._closed

    def test_close_merges_shards_and_folds_last_snapshot(
            self, tmp_path, monkeypatch):
        """Only a shard's final (cumulative) metrics snapshot is folded —
        per-batch snapshots must not double count."""
        monkeypatch.setattr(obs, "_shards", {})
        root = Telemetry("run-t", tmp_path / "run-t")
        root.inc("cache.miss", 2)
        shard = obs.worker_shard(root.context())
        assert obs.worker_shard(root.context()) is shard   # one per process
        shard.inc("points.done")
        shard.snapshot_event()            # after batch 1 (cumulative: 1)
        shard.inc("points.done")
        shard.snapshot_event()            # after batch 2 (cumulative: 2)
        shard.close(merge=False)
        ledger = root.close()

        assert ledger is not None and ledger.name == "ledger.jsonl"
        emitters = {e["emitter"] for e in read_events(ledger)}
        assert emitters == {"parent", f"worker-{os.getpid()}"}
        metrics = json.loads(
            (tmp_path / "run-t" / "metrics.json").read_text())
        counters = {entry["name"]: entry["value"]
                    for entry in metrics["counters"]}
        assert counters == {"cache.miss": 2, "points.done": 2}
        assert (tmp_path / "run-t" / "metrics.prom").read_text() \
            .startswith("# TYPE repro_cache_miss counter")
