"""Experiment-service trace layer: sharing policy, disk store, equality.

The satellite property for PR 4: trace-replayed grids equal live-core
grids ``==`` across workloads x configurations x depths x both
speculation modes — plus the store-robustness rules (fingerprint-keyed
staleness, corrupt files recompute, atomic writes).
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.plan import ExperimentPoint, plan_from_points
from repro.experiments.runner import execute_point
from repro.experiments.scheduler import run_plan
from repro.experiments.tracing import (
    SharedTraces,
    TraceStore,
    amortized_workloads,
    default_trace_dir,
    load_or_record,
    trace_key,
    trace_mode,
)
from repro.pipeline.trace import record_trace
from repro.workloads.registry import get_program

SCALE = 0.02
WARMUP = 200


def point(benchmark="m88ksim", configuration="baseline", depth=20,
          seed=1, speculation="redirect"):
    return ExperimentPoint(benchmark, configuration, depth, scale=SCALE,
                           warmup=WARMUP, seed=seed,
                           speculation=speculation).resolve()


class TestKnobs:
    def test_trace_mode_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert trace_mode() == "memory"
        for off in ("0", "false", "no", "off", "OFF"):
            monkeypatch.setenv("REPRO_TRACE", off)
            assert trace_mode() == "off"
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert trace_mode() == "memory"
        monkeypatch.setenv("REPRO_TRACE", "disk")
        assert trace_mode() == "disk"

    def test_default_trace_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        assert default_trace_dir() == tmp_path

    def test_trace_key_covers_workload_identity(self):
        base = trace_key("m88ksim", SCALE, 1)
        assert trace_key("m88ksim", SCALE, 1) == base  # stable
        assert trace_key("compress", SCALE, 1) != base
        assert trace_key("m88ksim", SCALE * 2, 1) != base
        assert trace_key("m88ksim", SCALE, 2) != base
        assert trace_key("m88ksim", SCALE, 1, max_instructions=10) != base

    def test_trace_key_tracks_source_fingerprint(self, monkeypatch):
        """Editing the simulator strands stale traces, like stale results."""
        import repro.experiments.tracing as tracing_module

        before = trace_key("m88ksim", SCALE, 1)
        monkeypatch.setattr(tracing_module, "code_fingerprint",
                            lambda: "deadbeef")
        assert trace_key("m88ksim", SCALE, 1) != before


class TestTraceStore:
    def test_put_get_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        program = get_program("m88ksim", scale=SCALE, seed=1)
        trace = record_trace(program)
        key = trace_key("m88ksim", SCALE, 1)
        assert store.get(key) is None and store.misses == 1
        store.put(key, trace)
        assert key in store and len(store) == 1
        loaded = store.get(key)
        assert loaded is not None and store.hits == 1
        assert loaded.pcs == trace.pcs and loaded.halted == trace.halted

    def test_corrupt_entry_is_a_miss_and_rerecorded(self, tmp_path):
        store = TraceStore(tmp_path)
        key = trace_key("m88ksim", SCALE, 1)
        store.directory.mkdir(parents=True, exist_ok=True)
        (store.directory / f"{key}.trace").write_bytes(b"garbage")
        assert store.get(key) is None
        trace = load_or_record("m88ksim", SCALE, 1, store=store)
        assert trace.length > 0
        assert store.get(key) is not None  # overwritten with a good one

    def test_stale_trace_under_colliding_key_is_rerecorded(self, tmp_path):
        """A trace of the wrong program under a key (hand-copied file)
        fails validation and is recomputed, not replayed."""
        store = TraceStore(tmp_path)
        key = trace_key("m88ksim", SCALE, 1)
        store.put(key, record_trace(get_program("compress", scale=SCALE,
                                                seed=1)))
        trace = load_or_record("m88ksim", SCALE, 1, store=store)
        assert trace.program_name == get_program(
            "m88ksim", scale=SCALE, seed=1).name
        assert store.get(key).program_name == trace.program_name

    def test_malformed_key_rejected(self, tmp_path):
        store = TraceStore(tmp_path)
        with pytest.raises(ValueError):
            store.get("../escape")

    def test_clear_removes_entries(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(trace_key("m88ksim", SCALE, 1),
                  record_trace(get_program("m88ksim", scale=SCALE, seed=1)))
        assert store.clear() == 1
        assert len(store) == 0


class TestSharedTraces:
    def test_wrongpath_points_stay_live(self):
        points = [point(speculation="wrongpath") for _ in range(3)]
        traces = SharedTraces(points)
        assert all(traces.get(p) is None for p in points)

    def test_single_redirect_point_stays_live_in_memory_mode(self,
                                                             monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        single = point()
        traces = SharedTraces([single])
        assert traces.get(single) is None  # nothing to amortize against

    def test_shared_workload_records_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        points = [point(configuration=c) for c in ("baseline", "current")]
        traces = SharedTraces(points)
        first = traces.get(points[0])
        second = traces.get(points[1])
        assert first is not None and first is second  # one recording

    def test_off_mode_disables_sharing(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        points = [point(configuration=c) for c in ("baseline", "current")]
        traces = SharedTraces(points)
        assert traces.get(points[0]) is None

    def test_pool_drops_trace_after_last_consumer(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        points = [point(configuration=c) for c in ("baseline", "current")]
        traces = SharedTraces(points)
        traces.get(points[0])
        assert traces._traces  # held for the remaining consumer
        traces.get(points[1])
        assert not traces._traces  # released: bounded memory


class TestAmortizationRule:
    """``amortized_workloads`` is the one owner of the record-or-not
    rule; the in-process pool and the queue backend both defer to it."""

    M88 = ("m88ksim", SCALE, 1)

    @pytest.mark.parametrize("mode,points,expected", [
        ("1", [point()], []),
        ("1", [point(), point(configuration="current")], [M88]),
        ("disk", [point()], [M88]),
        ("0", [point(), point(configuration="current")], []),
        ("1", [point(speculation="wrongpath"),
               point(speculation="wrongpath")], []),
        ("1", [point(), point(speculation="wrongpath")], []),
        ("1", [point(seed=1), point(seed=2)], []),
        ("1", [point(benchmark="li"), point(), point(benchmark="li"),
               point()], [("li", SCALE, 1), M88]),
    ], ids=["single-memory", "shared-memory", "single-disk", "off",
            "wrongpath-only", "wrongpath-does-not-count",
            "seeds-are-distinct", "first-appearance-order"])
    def test_rule(self, monkeypatch, mode, points, expected):
        monkeypatch.setenv("REPRO_TRACE", mode)
        assert amortized_workloads(points) == expected

    def test_queue_backend_ships_exactly_the_amortized_workloads(
            self, monkeypatch):
        import repro.experiments.tracing as tracing
        from repro.experiments.backends import QueueBackend

        class Blob:
            def __init__(self, identity):
                self.identity = identity

            def to_bytes(self):
                return repr(self.identity).encode()

        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setattr(tracing, "load_or_record",
                            lambda *identity: Blob(identity))
        batches = {
            "a": (point(), point(configuration="current")),
            "b": (point(benchmark="li"),),
            "c": (point(benchmark="compress", seed=3),
                  point(benchmark="compress", seed=3, depth=40)),
        }
        flat = [p for group in batches.values() for p in group]
        blobs = QueueBackend._trace_blobs(batches)
        assert list(blobs) == amortized_workloads(flat) == [
            self.M88, ("compress", SCALE, 3)]
        assert blobs[self.M88] == repr(self.M88).encode()


class TestExecutePointTraceArgument:
    def test_invalid_trace_values_rejected_clearly(self):
        with pytest.raises(TypeError, match="CommittedTrace"):
            execute_point(point(), trace=True)
        with pytest.raises(TypeError, match="CommittedTrace"):
            execute_point(point(), trace="yes")

    def test_explicit_trace_and_force_live_agree(self):
        program = get_program("m88ksim", scale=SCALE, seed=1)
        trace = record_trace(program)
        assert (execute_point(point(), trace=trace)
                == execute_point(point(), trace=False))


class TestDiskMode:
    def test_cold_single_point_records_then_replays(self, monkeypatch,
                                                    tmp_path):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE", "0")
        live = execute_point(point())
        monkeypatch.setenv("REPRO_TRACE", "disk")
        cold = execute_point(point())       # records into the store
        store = TraceStore(tmp_path)
        assert len(store) == 1
        warm = execute_point(point())       # replays from the store
        assert cold == live == warm

    def test_disk_mode_key_isolation_by_seed(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE", "disk")
        execute_point(point(seed=1))
        execute_point(point(seed=2))
        assert len(TraceStore(tmp_path)) == 2


class TestGridEquality:
    """The PR 4 satellite property: trace-replayed == live-core grids."""

    @settings(max_examples=5, deadline=None)
    @given(
        benchmarks=st.lists(st.sampled_from(["m88ksim", "li", "compress"]),
                            min_size=1, max_size=2, unique=True),
        configurations=st.lists(
            st.sampled_from(["baseline", "current", "load back", "perfect"]),
            min_size=1, max_size=2, unique=True),
        depths=st.lists(st.sampled_from([20, 40, 60]), min_size=1,
                        max_size=2, unique=True),
        speculation=st.sampled_from(["redirect", "wrongpath"]),
        seed=st.integers(1, 2),
    )
    def test_trace_replayed_grids_equal_live_grids(
            self, benchmarks, configurations, depths, speculation, seed):
        plan = plan_from_points([
            ExperimentPoint(benchmark, configuration, depth, scale=0.01,
                            warmup=50, seed=seed, speculation=speculation)
            for benchmark in benchmarks
            for configuration in configurations
            for depth in depths
        ])
        previous = os.environ.get("REPRO_TRACE")
        try:
            os.environ["REPRO_TRACE"] = "0"
            live = run_plan(plan, jobs=1, use_cache=False)
            os.environ["REPRO_TRACE"] = "1"
            traced_serial = run_plan(plan, jobs=1, use_cache=False)
            traced_batched = run_plan(plan, jobs=2, use_cache=False,
                                      batch=True)
        finally:
            if previous is None:
                os.environ.pop("REPRO_TRACE", None)
            else:
                os.environ["REPRO_TRACE"] = previous
        assert traced_serial == live
        assert traced_batched == live

    def test_mixed_speculation_grid_shares_only_redirect(self, monkeypatch):
        """wrongpath points in a traced grid still run live and still
        agree with an untraced run."""
        pts = [point(configuration="baseline"),
               point(configuration="current"),
               point(speculation="wrongpath"),
               point(configuration="current", speculation="wrongpath")]
        plan = plan_from_points(pts)
        monkeypatch.setenv("REPRO_TRACE", "1")
        traced = run_plan(plan, jobs=1, use_cache=False)
        monkeypatch.setenv("REPRO_TRACE", "0")
        live = run_plan(plan, jobs=1, use_cache=False)
        assert traced == live
