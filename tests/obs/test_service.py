"""The flight recorder end to end, across all three backends.

The ISSUE 7 acceptance surface:

* ``REPRO_OBS=1`` leaves every ``SimulationResult`` bit-for-bit
  identical on serial, local-pool and queue backends (the do-no-harm
  invariant — telemetry observes, never feeds back);
* a queue run with an injected worker crash still yields a merged
  ledger that reconstructs the full run → plan → batch → point → phase
  span tree, including the lease-expiry/requeue lifecycle and the
  crashed worker's unclosed batch span;
* ``python -m repro.obs`` summarizes and validates those ledgers.
"""

import json

import pytest

from repro.experiments.backends import QueueBackend
from repro.experiments.plan import build_plan
from repro.experiments.scheduler import run_plan
from repro.obs.__main__ import main as obs_main
from repro.obs.ledger import build_span_tree, read_events, validate_event

PLAN_KW = dict(configurations=("baseline", "current"), depths=(20, 40),
               benchmarks=("li",), scale=0.01, warmup=50)


def small_plan():
    return build_plan(**PLAN_KW)


def queue_backend(**overrides):
    kw = dict(workers=2, lease_timeout=10.0, poll=0.01, timeout=180.0)
    kw.update(overrides)
    return QueueBackend(**kw)


@pytest.fixture(scope="module")
def reference_results():
    """The telemetry-off ground truth every obs-on run must reproduce."""
    mp = pytest.MonkeyPatch()
    mp.delenv("REPRO_OBS", raising=False)
    mp.delenv("REPRO_OBS_INTERVAL", raising=False)
    try:
        return run_plan(small_plan(), jobs=1, use_cache=False,
                        backend="serial")
    finally:
        mp.undo()


def obs_run(tmp_path, monkeypatch, *, backend, jobs=2, interval=None,
            progress=None):
    """run_plan with the flight recorder on, into a private obs root.

    Returns (results, run_dir) — exactly one run directory exists, so
    the test can inspect its ledger without racing other tests.
    """
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
    if interval is None:
        monkeypatch.delenv("REPRO_OBS_INTERVAL", raising=False)
    else:
        monkeypatch.setenv("REPRO_OBS_INTERVAL", str(interval))
    results = run_plan(small_plan(), jobs=jobs, use_cache=False,
                       backend=backend, progress=progress)
    [run_dir] = [path for path in (tmp_path / "obs").iterdir()
                 if path.name.startswith("run-")]
    return results, run_dir


def load_tree(run_dir):
    events = read_events(run_dir / "ledger.jsonl")
    assert events, "merged ledger is empty"
    for record in events:
        assert validate_event(record) == [], record
    return events, build_span_tree(events)


class TestSerialLedger:
    def test_run_matches_reference_and_ledger_reconstructs(
            self, tmp_path, monkeypatch, reference_results):
        # Interval sampling observes the *engine* commit loop; every
        # redirect point with a trace replays through the compiled
        # kernel, which has no engine loop to sample.  Turn trace replay
        # off so every point runs on the live engine and the sampler
        # runs — the results must still match the kernel-replayed
        # reference bit for bit (the standing invariant this fixture
        # exists to check).
        monkeypatch.setenv("REPRO_TRACE", "0")
        results, run_dir = obs_run(tmp_path, monkeypatch,
                                   backend="serial", jobs=1, interval=64)
        assert results == reference_results

        events, tree = load_tree(run_dir)
        [run] = tree.find("run")
        assert run.closed and tree.roots == [run]
        [plan] = tree.find("plan")
        assert plan in run.children
        points = tree.find("point")
        assert len(points) == len(small_plan())
        for point in points:
            assert point.closed
            phases = [child for child in point.children
                      if child.kind == "phase"]
            assert phases, f"point {point.attrs} has no phase span"
            assert {p.name for p in phases} <= {"record", "lower",
                                                "replay", "live"}
        # Every point streamed exactly one progress event into the tree.
        progress = [e for node, _ in tree.walk() for e in node.events
                    if e["name"] == "progress"
                    and e["attrs"]["phase"] == "point"]
        assert len(progress) == len(points)

        # Interval sampling fired (64-cycle period, li runs thousands)
        # on the live points and landed under their spans.
        intervals = [e for node, _ in tree.walk() for e in node.events
                     if e["kind"] == "interval"]
        assert intervals
        assert all(e["attrs"]["cycle"] >= 64 for e in intervals)

        metrics = json.loads((run_dir / "metrics.json").read_text())
        histograms = {entry["name"] for entry in metrics["histograms"]}
        assert "point.duration" in histograms
        assert "engine.ddt_chain_length" in histograms
        assert (run_dir / "metrics.prom").read_text().startswith("# TYPE")

    def test_cli_summary_and_validate_accept_the_run(
            self, tmp_path, monkeypatch, reference_results, capsys):
        _, run_dir = obs_run(tmp_path, monkeypatch,
                             backend="serial", jobs=1)
        assert obs_main(["summary", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "phase timing:" in out and "plan" in out
        assert "UNCLOSED" not in out
        assert obs_main(["validate", str(run_dir)]) == 0
        assert "all valid" in capsys.readouterr().out
        # tail --no-follow renders what exists and exits.
        assert obs_main(["tail", str(run_dir), "--no-follow"]) == 0

    def test_run_span_records_resolved_settings(self, tmp_path, monkeypatch,
                                                reference_results, capsys):
        """Provenance: the ledger alone says which knobs produced a run."""
        monkeypatch.setenv("REPRO_JOBS", "1")
        results, run_dir = obs_run(tmp_path, monkeypatch,
                                   backend=None, jobs=None)
        assert results == reference_results
        _, tree = load_tree(run_dir)
        [run] = tree.find("run")
        assert run.attrs["jobs"] == 1
        assert run.attrs["obs"] is True
        assert run.attrs["obs_dir"] == str(tmp_path / "obs")
        assert obs_main(["summary", str(run_dir)]) == 0
        settings_line = next(line for line in capsys.readouterr().out
                             .splitlines() if line.startswith("settings:"))
        assert "jobs=1" in settings_line.split()

    def test_cli_validate_flags_corruption(self, tmp_path, monkeypatch,
                                           reference_results, capsys):
        _, run_dir = obs_run(tmp_path, monkeypatch,
                             backend="serial", jobs=1)
        with open(run_dir / "ledger.jsonl", "a") as handle:
            handle.write('{"v": 99, "event": "bogus"}\n')
        assert obs_main(["validate", str(run_dir)]) == 1
        assert "invalid" in capsys.readouterr().out


class TestPoolLedger:
    def test_worker_shards_merge_into_one_tree(
            self, tmp_path, monkeypatch, reference_results):
        results, run_dir = obs_run(tmp_path, monkeypatch,
                                   backend="local", jobs=2)
        assert results == reference_results

        events, tree = load_tree(run_dir)
        emitters = {e["emitter"] for e in events}
        assert "parent" in emitters
        assert any(e.startswith("worker-") for e in emitters)
        # Worker batch spans attach under the parent's plan span via the
        # shipped parent ids — one tree, not per-process islands.
        [run] = tree.find("run")
        batches = tree.find("batch")
        assert batches and all(b.closed for b in batches)
        under_run = {node.span_id for node, _ in tree.walk()}
        assert {b.span_id for b in batches} <= under_run
        assert all(not b.start["emitter"].startswith("parent")
                   for b in batches)


class TestQueueCrashAcceptance:
    def test_crashed_worker_run_reconstructs_full_span_tree(
            self, tmp_path, monkeypatch, reference_results, capsys):
        """The ISSUE acceptance scenario: a queue grid whose first worker
        hard-exits mid-batch under REPRO_OBS=1.  Results must still match
        the serial telemetry-off reference, and the merged ledger must
        tell the whole story: the span tree, the lease expiry, the
        requeue, and the crashed batch's unclosed span."""
        backend = queue_backend(lease_timeout=0.5,
                                worker_args=("--crash-after-points", "1"))
        results, run_dir = obs_run(tmp_path, monkeypatch, backend=backend)
        assert results == reference_results
        assert backend.requeues >= 1 and backend.respawns >= 1

        events, tree = load_tree(run_dir)

        # The tree spans processes: parent scheduler + queue workers.
        [run] = tree.find("run")
        assert tree.roots == [run]
        [plan] = tree.find("plan")
        batches = tree.find("batch")
        assert any(b.start["emitter"].startswith("worker-")
                   for b in batches)
        # The crash left an unclosed batch span from a worker shard.
        assert any(not b.closed for b in batches)
        # ...and the healthy retry of that batch did close, with points.
        closed = [b for b in batches if b.closed]
        assert closed
        points = tree.find("point")
        assert len(points) >= len(small_plan())
        assert all(p.closed for p in [pt for b in closed
                                      for pt in b.children
                                      if pt.kind == "point"])

        # Queue lifecycle events made it into the ledger.
        names = {e["name"] for node, _ in tree.walk()
                 for e in node.events}
        assert "submit" in names
        assert "lease_expired" in names
        assert "requeue" in names
        assert "respawn" in names
        expiries = [e for node, _ in tree.walk() for e in node.events
                    if e["name"] == "lease_expired"]
        assert all("age" in e["attrs"] and "timeout" in e["attrs"]
                   for e in expiries)

        # Queue counters survived into the merged metrics snapshot.
        metrics = json.loads((run_dir / "metrics.json").read_text())
        counters = {entry["name"]: entry["value"]
                    for entry in metrics["counters"]}
        assert counters.get("queue.lease_expired", 0) >= 1
        assert counters.get("queue.requeue", 0) >= 1
        assert counters.get("queue.worker_respawn", 0) >= 1

        # The CLI renders the crash and the ledger validates clean.
        assert obs_main(["summary", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "UNCLOSED" in out
        assert "lease_expired" in out
        assert obs_main(["validate", str(run_dir)]) == 0


class TestSatellites:
    def test_progress_events_carry_timestamp_and_duration(self):
        events = []
        run_plan(small_plan(), jobs=1, use_cache=False, backend="serial",
                 progress=events.append)
        point_events = [e for e in events if e.phase == "point"]
        assert point_events
        for event in point_events:
            assert event.timestamp > 1e9          # wall clock, not zero
            assert isinstance(event.duration, float)
            assert event.duration >= 0.0

    def test_crash_report_surfaces_structured_worker_errors(self, tmp_path):
        """The crash-loop QueueError names which batch took which worker
        down, from the workers' structured error lines."""
        from repro.experiments.backends import _crash_report
        from repro.obs.ledger import append_jsonl

        append_jsonl(tmp_path / "obs" / "worker-errors.jsonl",
                     {"worker": 41, "job": "batch-0", "batch": "batch-0",
                      "error": "RuntimeError: boom",
                      "lease": "/b/leased/batch-0.msg"})
        report = _crash_report(tmp_path)
        assert "structured worker errors" in report
        assert "batch-0" in report and "RuntimeError: boom" in report

    def test_obs_disabled_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        run_plan(small_plan(), jobs=1, use_cache=False, backend="serial")
        assert not (tmp_path / "obs").exists()
