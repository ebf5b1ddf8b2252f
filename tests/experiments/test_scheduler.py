"""Scheduler layer: serial/parallel/cached execution paths agree.

The acceptance grid for the experiment service: a 2-benchmark x 4-config
x 2-depth sweep must produce identical keyed results under
``REPRO_JOBS=1``, ``REPRO_JOBS=4`` and a cached re-run — and the cached
replay must be at least 10x faster than the cold run.  The hypothesis
property extends the equality invariant across every execution path:
batched, unbatched-parallel, serial and cache-replayed grids are ``==``
in both speculation modes.
"""

import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.backends import _make_batches
from repro.experiments.cache import ResultCache
from repro.experiments.plan import (
    ExperimentPoint,
    build_plan,
    plan_from_points,
    point_key,
)
from repro.experiments.runner import run_suite
from repro.experiments.scheduler import run_plan, run_points
from repro.settings import SettingsError, current

GRID = dict(configurations=("baseline", "current", "load back", "perfect"),
            depths=(20, 40), benchmarks=("li", "vortex"),
            scale=0.02, warmup=200)


class TestPlan:
    def test_grid_expansion_order_and_size(self):
        plan = build_plan(GRID["configurations"], GRID["depths"],
                          GRID["benchmarks"], scale=GRID["scale"],
                          warmup=GRID["warmup"])
        assert len(plan) == 2 * 4 * 2
        first = plan.points[0]
        assert first.grid_key == ("li", "baseline", 20)
        # Every point is fully resolved.
        assert all(p.scale == 0.02 and p.warmup == 200 for p in plan)

    def test_deduplication(self):
        point = ExperimentPoint("li", "current", 20, scale=0.02, warmup=200)
        plan = plan_from_points([point, point, point])
        assert len(plan) == 1

    def test_unknown_configuration_rejected(self):
        with pytest.raises(ValueError):
            plan_from_points([ExperimentPoint("li", "magic", 20)])

    def test_execute_point_rejects_unresolved_points(self):
        from repro.experiments.runner import execute_point

        with pytest.raises(ValueError, match="resolve"):
            execute_point(ExperimentPoint("li", "current", 20))


class TestSchedulerEquivalence:
    @pytest.fixture(scope="class")
    def acceptance(self, tmp_path_factory):
        """Cold serial run (populating a fresh cache), then parallel and
        cached re-runs of the same grid, driven through ``REPRO_JOBS``."""
        cache_dir = tmp_path_factory.mktemp("cache")
        with pytest.MonkeyPatch.context() as env:
            env.setenv("REPRO_JOBS", "1")
            t0 = time.perf_counter()
            serial = run_suite(cache=ResultCache(cache_dir / "serial"),
                               **GRID)
            cold_seconds = time.perf_counter() - t0

            env.setenv("REPRO_JOBS", "4")
            parallel = run_suite(cache=ResultCache(cache_dir / "parallel"),
                                 **GRID)

            env.setenv("REPRO_JOBS", "1")
            warm_store = ResultCache(cache_dir / "warm")
            run_suite(cache=warm_store, **GRID)
            t0 = time.perf_counter()
            cached = run_suite(cache=warm_store, **GRID)
            warm_seconds = time.perf_counter() - t0

        return dict(serial=serial, parallel=parallel, cached=cached,
                    cold_seconds=cold_seconds, warm_seconds=warm_seconds,
                    warm_store=warm_store)

    def test_grid_is_fully_keyed(self, acceptance):
        serial = acceptance["serial"]
        assert len(serial) == 16
        assert ("vortex", "perfect", 40) in serial

    def test_parallel_matches_serial(self, acceptance):
        assert acceptance["parallel"] == acceptance["serial"]

    def test_cached_replay_matches_serial(self, acceptance):
        assert acceptance["cached"] == acceptance["serial"]
        assert acceptance["warm_store"].hits >= 16

    def test_cached_replay_is_10x_faster(self, acceptance):
        assert acceptance["warm_seconds"] * 10 <= acceptance["cold_seconds"], (
            f"cached replay took {acceptance['warm_seconds']:.3f}s vs "
            f"cold {acceptance['cold_seconds']:.3f}s")


class TestSchedulerBehaviour:
    def test_progress_events_stream(self, tmp_path):
        events = []
        run_suite(configurations=("baseline",), depths=(20,),
                  benchmarks=("li",), scale=0.02, warmup=200, jobs=1,
                  cache=ResultCache(tmp_path), progress=events.append)
        assert [e.source for e in events] == ["serial"]
        assert events[0].completed == events[0].total == 1
        # Second run replays from cache and says so.
        events.clear()
        run_suite(configurations=("baseline",), depths=(20,),
                  benchmarks=("li",), scale=0.02, warmup=200, jobs=1,
                  cache=ResultCache(tmp_path), progress=events.append)
        assert [e.source for e in events] == ["cache"]

    def test_progress_ticks_per_point_in_batched_grids(self):
        """The satellite fix: batched workers tick the callback once per
        completed point (carrying their batch id), not once per batch —
        large batched grids must not look stalled."""
        plan = build_plan(("baseline", "current", "load back", "perfect"),
                          (20, 40), ("li",), scale=0.01, warmup=50)
        events = []
        results = run_plan(plan, jobs=2, use_cache=False, batch=True,
                           progress=events.append)
        assert len(results) == len(plan)
        assert len(events) == len(plan)          # one event per point
        assert all(e.phase == "point" for e in events)
        assert all(e.source == "worker" for e in events)
        assert all(e.batch_id is not None for e in events)
        assert len({e.batch_id for e in events}) >= 2  # several batches
        # Monotone completion counter in emission order, ending complete.
        assert [e.completed for e in events] == list(
            range(1, len(plan) + 1))
        assert all(e.total == len(plan) for e in events)
        assert all(e.batch_size >= 1 for e in events)
        # Every point is reported exactly once.
        assert {e.point for e in events} == set(plan)

    @pytest.mark.parametrize("backend", ["serial", "local"])
    def test_progress_follows_cache_write_and_sink_delivery(
            self, tmp_path, backend):
        """Each point is cached, then handed to the sink, then reported:
        the progress callback finds the event's key in the cache and its
        result in the sink, on both backends."""
        store = ResultCache(tmp_path)
        delivered = {}

        class Sink:
            def on_plan(self, plan, keys): pass
            def on_progress(self, event): pass
            def on_failure(self, point, key, error): pass

            def on_result(self, point, key, result, *, source):
                delivered[key] = result

        checked = []

        def progress(event):
            assert event.key in store
            assert delivered[event.key] == store.get(event.key)
            checked.append(event.key)

        plan = build_plan(("baseline", "current"), (20, 40), ("li",),
                          scale=0.01, warmup=50)
        run_plan(plan, jobs=2, cache=store, backend=backend,
                 progress=progress, sink=Sink())
        assert sorted(checked) == sorted(point_key(p) for p in plan)

    def test_use_cache_false_recomputes(self, tmp_path):
        store = ResultCache(tmp_path)
        kw = dict(configurations=("baseline",), depths=(20,),
                  benchmarks=("li",), scale=0.02, warmup=200, jobs=1)
        first = run_suite(cache=store, **kw)
        store_hits_before = store.hits
        second = run_suite(use_cache=False, **kw)
        assert second == first
        assert store.hits == store_hits_before  # store untouched

    def test_parallel_pool_path(self, tmp_path):
        """Exercise the ProcessPoolExecutor branch with >1 pending point."""
        plan = build_plan(("baseline", "current"), (20,), ("li",),
                          scale=0.02, warmup=200)
        parallel = run_plan(plan, jobs=2, cache=None, use_cache=False)
        serial = run_plan(plan, jobs=1, cache=None, use_cache=False)
        assert parallel == serial

    def test_failed_point_does_not_discard_sibling_results(self, tmp_path):
        """One bad point must not throw away its siblings' completed
        work: they still land in the cache so a retry after the fix only
        recomputes the failed point."""
        store = ResultCache(tmp_path)
        good = [ExperimentPoint("li", "baseline", 20, scale=0.02,
                                warmup=200),
                ExperimentPoint("vortex", "baseline", 20, scale=0.02,
                                warmup=200)]
        bad = ExperimentPoint("no-such-benchmark", "baseline", 20,
                              scale=0.02, warmup=200)
        with pytest.raises(Exception):
            run_points([good[0], bad, good[1]], jobs=2, cache=store)
        assert all(point_key(p) in store for p in good)

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert current().jobs == 3
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert current().jobs == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        with pytest.raises(SettingsError, match="REPRO_JOBS"):
            current()
        monkeypatch.delenv("REPRO_JOBS")
        assert current().jobs == (os.cpu_count() or 1)

    def test_batch_none_means_batched(self):
        plan = build_plan(("baseline", "current"), (20,), ("li",),
                          scale=0.01, warmup=50)
        sizes = {}
        for batch in (None, True, False):
            events = []
            run_plan(plan, jobs=1, use_cache=False, batch=batch,
                     progress=events.append)
            sizes[batch] = {event.batch_size for event in events}
        assert sizes[None] == sizes[True] == {2}
        assert sizes[False] == {1}


class TestBatching:
    """In-worker point batching (ROADMAP item closed by PR 3)."""

    @given(
        groups=st.lists(
            st.tuples(st.sampled_from(["li", "vortex", "compress", "gcc"]),
                      st.sampled_from([0.01, 0.02]),
                      st.integers(1, 3),
                      st.integers(1, 9)),
            min_size=1, max_size=6, unique_by=lambda g: g[:3]),
        jobs=st.integers(1, 8),
    )
    def test_make_batches_partitions_benchmark_pure(self, groups, jobs):
        """Batches partition the pending list, never mix workloads, and
        produce enough chunks to keep every worker busy."""
        pending = [
            ExperimentPoint(benchmark, "baseline", 20, scale=scale,
                            warmup=100, seed=seed)
            for benchmark, scale, seed, count in groups
            for _ in range(count)
        ]
        batches = _make_batches(pending, jobs)
        assert all(batch for batch in batches)
        # Benchmark-pure: one workload identity per batch.
        for batch in batches:
            identities = {(p.benchmark, p.scale, p.seed) for p in batch}
            assert len(identities) == 1
        # Partition: flattening restores the pending multiset, and the
        # per-identity order is preserved.
        flattened = [point for batch in batches for point in batch]
        assert sorted(map(id, flattened)) == sorted(map(id, pending))
        for key in {(p.benchmark, p.scale, p.seed) for p in pending}:
            assert ([p for p in flattened
                     if (p.benchmark, p.scale, p.seed) == key]
                    == [p for p in pending
                        if (p.benchmark, p.scale, p.seed) == key])
        # Enough parallelism: at least min(jobs, len(pending)) batches.
        assert len(batches) >= min(jobs, len({g[:3] for g in groups}))
        assert len(batches) <= len(pending)

    @settings(max_examples=3, deadline=None)
    @given(
        benchmarks=st.lists(st.sampled_from(["li", "compress"]),
                            min_size=1, max_size=2, unique=True),
        configurations=st.lists(
            st.sampled_from(["baseline", "current", "perfect"]),
            min_size=1, max_size=2, unique=True),
        depths=st.lists(st.sampled_from([20, 40]), min_size=1, max_size=2,
                        unique=True),
        seed=st.integers(1, 2),
        speculation=st.sampled_from(["redirect", "wrongpath"]),
    )
    def test_all_backends_and_cache_replay_are_equal(
            self, benchmarks, configurations, depths, seed, speculation):
        """The cross-backend differential property: serial, local-pool
        (batched and unbatched) and cache-replayed execution return
        ``==`` results, in both speculation modes."""
        plan = plan_from_points([
            ExperimentPoint(benchmark, configuration, depth, scale=0.01,
                            warmup=50, seed=seed, speculation=speculation)
            for benchmark in benchmarks
            for configuration in configurations
            for depth in depths
        ])
        serial = run_plan(plan, jobs=1, use_cache=False)
        batched = run_plan(plan, jobs=2, use_cache=False, batch=True)
        unbatched = run_plan(plan, jobs=2, use_cache=False, batch=False)
        assert batched == serial
        assert unbatched == serial
        with tempfile.TemporaryDirectory() as tmp:
            store = ResultCache(tmp)
            for point, result in serial.items():
                store.put(point_key(point), result)
            replayed = run_plan(plan, jobs=1, cache=store)
            assert replayed == serial
            assert store.hits >= len(plan)
