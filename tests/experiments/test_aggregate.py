"""The view model and its sink (DESIGN.md §14).

Three layers of guarantees:

* aggregator semantics — views are built once at ``mark_done`` (on
  demand before it), a held snapshot never changes, duplicate
  deliveries are deduped on the canonical cell id;
* order independence — the hypothesis property: *any* permutation of
  the same event multiset (ticks, results, duplicates, the plan event)
  converges to a byte-identical final snapshot, status view included;
* the view-identity invariant — a run-attached aggregator's identity
  views equal :func:`~repro.experiments.aggregate.build_views` run
  post-hoc over the finished results, byte for byte, on serial and
  local backends, from the cache, and across interrupted / SIGKILLed
  runs resumed from their result cache (from a cache damaged on disk:
  here on the serial backend, ``test_faults.py`` on the pool).
"""

import os
import pathlib
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.aggregate import (
    ALL_VIEWS,
    IDENTITY_VIEWS,
    ViewAggregator,
    build_views,
    identity_json,
)
from repro.experiments.cache import ResultCache
from repro.experiments.plan import build_plan, point_key
from repro.experiments.scheduler import run_plan
from tests.experiments.test_faults import damage_entries

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

PLAN_KW = dict(configurations=("baseline", "current"), depths=(20, 40),
               benchmarks=("li",), scale=0.01, warmup=50)


def small_plan():
    return build_plan(**PLAN_KW)


def subprocess_env(**extra):
    env = {**os.environ, "PYTHONPATH": "src" + os.pathsep
           + os.environ.get("PYTHONPATH", "")}
    env.update(extra)
    return env


@pytest.fixture(scope="module")
def serial_results():
    return run_plan(small_plan(), jobs=1, use_cache=False,
                    backend="serial")


def live_aggregate(**run_kw):
    """run_plan with a live sink; returns (aggregator, results)."""
    aggregator = ViewAggregator()
    run_kw.setdefault("use_cache", False)
    results = run_plan(small_plan(), sink=aggregator, **run_kw)
    aggregator.mark_done()
    return aggregator, results


# -- view set -----------------------------------------------------------------


class TestViewSelection:
    def test_unknown_view_rejected(self):
        with pytest.raises(ValueError, match="nope"):
            ViewAggregator(views=("figure5", "nope"))

    def test_subset_builds_only_selected(self, serial_results):
        aggregator = ViewAggregator(views=("figure6",))
        for point, result in serial_results.items():
            aggregator.on_result(point, None, result, source="serial")
        aggregator.mark_done()
        assert set(aggregator.snapshot().views) == {"figure6"}
        assert aggregator.snapshot().views["figure6"] \
            == build_views(serial_results).views["figure6"]

    def test_identity_excludes_status(self):
        assert "status" not in IDENTITY_VIEWS
        assert set(ALL_VIEWS) == set(IDENTITY_VIEWS) | {"status"}


class TestOneResultPerFigureCell:
    """A figure cell is (benchmark, configuration, depth): the second
    speculation mode of one point must not silently replace the first."""

    @pytest.mark.parametrize("view,cell", [
        ("figure5", "li/current/depth 20"),     # figure 5 is ARVI current
        ("figure6", "li/baseline/depth 20"),
    ])
    def test_mixed_speculation_modes_raise_naming_the_cell(
            self, serial_results, view, cell):
        mixed = {**serial_results, **{
            replace(point, speculation="wrongpath"): result
            for point, result in serial_results.items()}}
        with pytest.raises(ValueError,
                           match=f"{view} view: two results for cell "
                                 f"{cell} "):
            build_views(mixed, views=(view,))
        # The speculation view is keyed by mode too and takes both.
        rows = build_views(mixed, views=("speculation",)).views[
            "speculation"]["rows"]
        assert len(rows) == 2 * len(serial_results)


# -- aggregator semantics -----------------------------------------------------


class TestAggregatorSemantics:
    def test_duplicates_deduped_first_wins(self, serial_results):
        aggregator = ViewAggregator()
        (point, result), *rest = serial_results.items()
        aggregator.on_result(point, None, result, source="worker")
        aggregator.on_result(point, None, result, source="worker")
        assert aggregator.duplicates == 1
        status = aggregator.snapshot().views["status"]
        assert status["done"] == 1
        assert status["sources"] == {"worker": 1}

    def test_snapshots_are_copy_on_write(self, serial_results):
        aggregator = ViewAggregator()
        items = iter(serial_results.items())
        point, result = next(items)
        aggregator.on_result(point, None, result, source="serial")
        held = aggregator.snapshot()
        held_bytes = held.to_json()
        point, result = next(items)
        aggregator.on_result(point, None, result, source="serial")
        assert held.to_json() == held_bytes          # held snapshot frozen
        assert aggregator.snapshot().views["status"]["done"] == 2

    def test_views_are_built_once_at_mark_done(self, serial_results,
                                               monkeypatch):
        """The sink does no view work per event: ``mark_done`` builds
        the views once, and reads after it reuse that build."""
        aggregator = ViewAggregator()
        builds = []
        real = aggregator._build
        monkeypatch.setattr(aggregator, "_build",
                            lambda: builds.append(1) or real())
        aggregator.on_plan(small_plan(), {})
        for point, result in serial_results.items():
            aggregator.on_progress(SimpleNamespace(
                phase="point", key=point_key(point)))
            aggregator.on_result(point, None, result, source="serial")
        assert builds == []
        aggregator.mark_done()
        final = aggregator.snapshot()
        assert aggregator.snapshot() is final
        assert builds == [1]
        assert final.done
        assert identity_json(final) \
            == identity_json(build_views(serial_results))

    def test_failures_surface_in_status(self):
        aggregator = ViewAggregator()
        aggregator.on_failure(None, None, RuntimeError("batch lost"))
        status = aggregator.snapshot().views["status"]
        assert status["failed"] == 1
        assert status["failures"][0]["error"] \
            == "RuntimeError: batch lost"
        assert status["failures"][0]["point"] is None

    def test_status_meta_rollups(self, serial_results):
        aggregator = ViewAggregator()
        for point, result in serial_results.items():
            aggregator.on_result(point, None, result, source="serial",
                                 meta={"kernel_source": "kernel"})
        status = aggregator.snapshot().views["status"]
        assert status["kernel_sources"] == {"kernel": len(serial_results)}


# -- order independence -------------------------------------------------------


class TestPermutationProperty:
    """Any interleaving of the same event multiset — ticks before or
    after their results, duplicate ticks, duplicate deliveries, the
    plan event anywhere — converges to a byte-identical final
    snapshot, the live ``status`` view included."""

    @staticmethod
    def event_multiset(serial_results):
        events = [("plan",)]
        for point, result in serial_results.items():
            events.append(("tick", point_key(point)))
            events.append(("result", point, result))
        first_point, first_result = next(iter(serial_results.items()))
        events.append(("tick", point_key(first_point)))      # duplicate tick
        events.append(("result", first_point, first_result))  # redelivery
        return events

    @staticmethod
    def apply(events):
        aggregator = ViewAggregator()
        for event in events:
            if event[0] == "plan":
                aggregator.on_plan(small_plan(), {})
            elif event[0] == "tick":
                aggregator.on_progress(SimpleNamespace(
                    phase="point", key=event[1]))
            else:
                aggregator.on_result(event[1], None, event[2],
                                     source="worker",
                                     meta={"kernel_source": "kernel"})
        aggregator.mark_done()
        return aggregator.snapshot()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_interleaving_converges(self, data, serial_results):
        events = self.event_multiset(serial_results)
        reference = self.apply(events).to_json()
        shuffled = data.draw(st.permutations(events))
        assert self.apply(shuffled).to_json() == reference


# -- the view-identity invariant ---------------------------------------------


class TestLiveEqualsPosthoc:
    def check(self, aggregator, results, serial_results):
        snapshot = aggregator.snapshot()
        assert results == serial_results             # standing invariant
        assert identity_json(snapshot) \
            == identity_json(build_views(results))
        assert snapshot.done
        assert snapshot.views["status"]["done"] == len(serial_results)
        assert snapshot.views["status"]["failed"] == 0

    def test_serial(self, serial_results):
        aggregator, results = live_aggregate(jobs=1, backend="serial")
        self.check(aggregator, results, serial_results)

    def test_serial_unbatched(self, serial_results):
        aggregator, results = live_aggregate(jobs=1, backend="serial",
                                             batch=False)
        self.check(aggregator, results, serial_results)

    def test_local_pool(self, serial_results):
        aggregator, results = live_aggregate(jobs=2, backend="local")
        self.check(aggregator, results, serial_results)

    def test_cache_replay(self, serial_results, tmp_path):
        cache = ResultCache(tmp_path)
        run_plan(small_plan(), jobs=1, backend="serial", cache=cache)
        aggregator = ViewAggregator()
        results = run_plan(small_plan(), jobs=1, backend="serial",
                           cache=cache, sink=aggregator)
        aggregator.mark_done()
        self.check(aggregator, results, serial_results)
        assert aggregator.snapshot().views["status"]["sources"] \
            == {"cache": len(serial_results)}

    @settings(max_examples=2, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @example(seed=7)
    def test_under_chaos(self, seed, serial_results):
        """The invariant on the serial backend with a damaged cache: a
        cold run, then a warm run after a seeded subset of the entries
        was truncated or bit-flipped on disk, both build views
        byte-identical to the post-hoc build, and each damaged entry is
        one warm miss (the pooled case is in ``test_faults.py``)."""
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(pathlib.Path(tmp))
            self.check(*live_aggregate(jobs=1, backend="serial",
                                       use_cache=True, cache=cache),
                       serial_results)                          # cold
            damaged = damage_entries(tmp, seed)
            misses_before = cache.misses
            self.check(*live_aggregate(jobs=1, backend="serial",
                                       use_cache=True, cache=cache),
                       serial_results)                          # warm
            assert cache.misses - misses_before == damaged

    def test_interrupted_run_resumes_identical(self, tmp_path,
                                               serial_results):
        """Kill a grid after two points; the resumed run's live views
        (fed by cache hits + fresh computes) equal the post-hoc build
        over the full results."""
        seen = []

        def die_after_two(event):
            seen.append(event)
            if len(seen) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_plan(small_plan(), jobs=1, cache=ResultCache(tmp_path),
                     backend="serial", progress=die_after_two,
                     sink=ViewAggregator())
        aggregator = ViewAggregator()
        resumed = run_plan(small_plan(), jobs=1, cache=ResultCache(tmp_path),
                           backend="serial", sink=aggregator)
        aggregator.mark_done()
        self.check(aggregator, resumed, serial_results)
        sources = aggregator.snapshot().views["status"]["sources"]
        assert sources["cache"] == 2

    def test_sigkilled_run_resumes_identical(self, tmp_path,
                                             serial_results):
        """The real crash: SIGKILL a separate grid process mid-run,
        resume with a live aggregator attached, and the final views
        are still byte-identical to post-hoc."""
        script = (
            "import sys\n"
            "from repro.experiments.cache import ResultCache\n"
            "from repro.experiments.plan import build_plan\n"
            "from repro.experiments.scheduler import run_plan\n"
            f"plan = build_plan(**{PLAN_KW!r})\n"
            "run_plan(plan, jobs=1, cache=ResultCache(sys.argv[1]),\n"
            "         backend='serial')\n")
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)],
            env=subprocess_env(), cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120
            while True:
                if any(tmp_path.glob("*.json")):     # first cache entry
                    break
                if proc.poll() is not None:
                    break
                assert time.monotonic() < deadline, "grid never progressed"
                time.sleep(0.005)
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        cached = len(list(tmp_path.glob("*.json")))
        assert cached >= 1
        aggregator = ViewAggregator()
        resumed = run_plan(small_plan(), jobs=1, cache=ResultCache(tmp_path),
                           backend="serial", sink=aggregator)
        aggregator.mark_done()
        self.check(aggregator, resumed, serial_results)
        sources = aggregator.snapshot().views["status"]["sources"]
        assert sources["cache"] == cached
