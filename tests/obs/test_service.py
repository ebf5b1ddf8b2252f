"""The flight recorder end to end, on both backends.

* ``REPRO_OBS=1`` leaves every ``SimulationResult`` bit-for-bit
  identical on serial and local-pool backends (the do-no-harm
  invariant — telemetry observes, never feeds back);
* the merged ledger reconstructs the full run → plan → batch → point →
  phase span tree, pool worker shards included, and in it each recorded
  trace is lowered once, inside a point;
* ``python -m repro.obs`` summarizes and validates those ledgers.
"""

import pytest

from repro import obs
from repro.experiments.cache import ResultCache
from repro.experiments.plan import ExperimentPoint, build_plan, point_key
from repro.experiments.runner import execute_point
from repro.experiments.scheduler import run_plan, run_points
from repro.obs.__main__ import main as obs_main
from repro.obs.ledger import (
    KNOWN_KINDS,
    build_span_tree,
    read_events,
    validate_event,
)

PLAN_KW = dict(configurations=("baseline", "current"), depths=(20, 40),
               benchmarks=("li",), scale=0.01, warmup=50)


def small_plan():
    return build_plan(**PLAN_KW)


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


def obs_run(tmp_path, monkeypatch, *, backend, jobs=2, progress=None):
    """run_plan with the flight recorder on, into a private obs root.

    Returns (results, run_dir) — exactly one run directory exists, so
    the test can inspect its ledger without racing other tests.
    """
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
    monkeypatch.delenv("REPRO_OBS_INTERVAL", raising=False)
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
        # Interval sampling observes the live engine's commit loop; the
        # plan's redirect points replay through the compiled kernel,
        # which has none.  One oracle call (trace=False) inside the same
        # telemetry run is the live point the sampler observes.
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        monkeypatch.setenv("REPRO_OBS_INTERVAL", "64")
        live_point = next(iter(small_plan()))
        telemetry = obs.start_run(label="plan")
        try:
            results = run_plan(small_plan(), jobs=1, use_cache=False,
                               backend="serial")
            live = execute_point(live_point, trace=False)
        finally:
            ledger = obs.close_run(telemetry)
        assert results == reference_results
        assert live == reference_results[live_point]

        events, tree = load_tree(ledger.parent)
        [run] = tree.find("run")
        assert run.closed and tree.roots == [run]
        [plan] = tree.find("plan")
        assert plan in run.children
        points = tree.find("point")
        assert len(points) == len(small_plan()) + 1
        for point in points:
            assert point.closed
            phases = [child for child in point.children
                      if child.kind == "phase"]
            assert phases, f"point {point.attrs} has no phase span"
            assert {p.name for p in phases} <= {"record", "lower",
                                                "replay", "live"}
        # Every plan point streamed exactly one progress event.
        progress = [e for node, _ in tree.walk() for e in node.events
                    if e["name"] == "progress"]
        assert len(progress) == len(small_plan())

        # Interval sampling fired (64-cycle period, li runs thousands)
        # on the one live point, and only there.
        [live_phase] = [node for node in tree.find("phase")
                        if node.name == "live"]
        intervals = [e for node, _ in tree.walk() for e in node.events
                     if e["kind"] == "interval"]
        assert intervals and live_phase.events == intervals
        assert all(e["attrs"]["cycle"] >= 64 for e in intervals)

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
        settings_line = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("environment (REPRO_* snapshot):"))
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


def descendants(node):
    for child in node.children:
        yield child
        yield from descendants(child)


class TestOneLoweringSite:
    @pytest.mark.parametrize("backend", ["serial", "local"])
    def test_each_trace_is_lowered_once_inside_a_point(
            self, tmp_path, monkeypatch, reference_results, backend):
        """The kernel lowers a trace in one place: the first kernel
        point that replays it, as that point's ``lower`` phase.  Two
        batches of one workload share one recording on ``serial`` (the
        sweep's pool) but record and lower once each on ``local``."""
        results, run_dir = obs_run(tmp_path, monkeypatch,
                                   backend=backend, jobs=2)
        assert results == reference_results

        _, tree = load_tree(run_dir)
        batches = tree.find("batch")
        assert len(batches) == 2
        phases = tree.find("phase")
        records = [node for node in phases if node.name == "record"]
        lowers = [node for node in phases if node.name == "lower"]
        traces = 1 if backend == "serial" else len(batches)
        assert len(records) == len(lowers) == traces
        for lower in lowers:
            assert tree.nodes[lower.start["parent"]].kind == "point"
        lowered = {node.span_id for node in lowers}
        per_batch = [sum(node.span_id in lowered
                         for node in descendants(batch))
                     for batch in batches]
        assert per_batch == ([1, 0] if backend == "serial" else [1, 1])


POISON = ExperimentPoint("no-such-benchmark", "baseline", 20, scale=0.01,
                         warmup=50)


def poisoned_run(tmp_path, monkeypatch, backend):
    """The small plan plus one poison point, under REPRO_OBS=1, into a
    private cache; returns (run_dir, cache directory)."""
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
    store = ResultCache(tmp_path / "cache")
    with pytest.raises(KeyError, match="no-such-benchmark"):
        run_points([*small_plan(), POISON], jobs=2, cache=store,
                   backend=backend)
    [run_dir] = (tmp_path / "obs").iterdir()
    return run_dir, tmp_path / "cache"


class TestLedgerTraceability:
    """From the ledger alone: which window a point ran at, which cache
    entry holds it, and only the kinds the stack documents."""

    def test_summary_names_the_window_and_keys_name_cache_files(
            self, tmp_path, monkeypatch, capsys):
        run_dir, cache_dir = poisoned_run(tmp_path, monkeypatch, "serial")
        events, _ = load_tree(run_dir)
        progress = {(e["attrs"]["benchmark"], e["attrs"]["configuration"],
                     e["attrs"]["depth"]): e["attrs"]["key"]
                    for e in events if e["name"] == "progress"}
        assert progress == {point.grid_key: point_key(point)
                            for point in small_plan()}
        assert set(progress.values()) \
            == {path.stem for path in cache_dir.glob("*.json")}

        assert obs_main(["summary", str(run_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("window:")] \
            == ["window: scale=0.01 warmup=50 seed=1"]
        by_source = lines[lines.index("points by source:") + 1:]
        assert by_source[0].split() == ["serial", str(len(small_plan()))]

    def test_warm_run_summary_names_the_window(self, tmp_path, monkeypatch,
                                               capsys):
        """A cache hit has no point span; its progress event carries the
        window, so a fully warm run still names it."""
        monkeypatch.setenv("REPRO_OBS", "1")
        plan = build_plan(configurations=("baseline",), depths=(20, 40),
                          benchmarks=("li",), scale=0.01, warmup=50)
        store = ResultCache(tmp_path / "cache")
        run_dirs = []
        for attempt in ("cold", "warm"):
            monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / attempt))
            run_points(plan, jobs=1, cache=store, backend="serial")
            [run_dir] = (tmp_path / attempt).iterdir()
            run_dirs.append(run_dir)
        events, tree = load_tree(run_dirs[1])
        assert not tree.find("point")
        progress = [e["attrs"] for e in events if e["name"] == "progress"]
        assert [attrs["source"] for attrs in progress] == ["cache"] * 2
        assert obs_main(["summary", str(run_dirs[1])]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("window:")] \
            == ["window: scale=0.01 warmup=50 seed=1"]

    @pytest.mark.parametrize("backend", ["serial", "local"])
    def test_every_emitted_kind_is_known(self, tmp_path, monkeypatch,
                                         backend):
        run_dir, _ = poisoned_run(tmp_path, monkeypatch, backend)
        kinds = {event["kind"] for event in read_events(
            run_dir / "ledger.jsonl")}
        assert "error" in kinds
        assert kinds <= set(KNOWN_KINDS)


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

    def test_obs_disabled_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        run_plan(small_plan(), jobs=1, use_cache=False, backend="serial")
        assert not (tmp_path / "obs").exists()
