"""The streaming aggregation tier (ISSUE 10 / DESIGN.md §14).

Three layers of guarantees:

* aggregator semantics — copy-on-write snapshots (a held snapshot never
  mutates), monotone versions, duplicate deliveries deduped on the
  canonical cell id, delta subscribers can reconstruct every version;
* order independence — the hypothesis property: *any* permutation of
  the same event multiset (ticks, results, duplicates, the plan event)
  converges to a byte-identical final snapshot, status view included;
* the view-identity invariant — a live-attached aggregator's identity
  views equal :func:`~repro.experiments.aggregate.build_views` run
  post-hoc over the finished results, byte for byte, across
  serial/local/queue backends, under seeded chaos schedules, and
  across interrupted / SIGKILLed runs resumed from their
  ``REPRO_MANIFEST``.
"""

import os
import pathlib
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.aggregate import (
    ALL_VIEWS,
    IDENTITY_VIEWS,
    ViewAggregator,
    build_views,
    canonical_json,
    identity_json,
    views_from_env,
)
from repro.experiments.backends import QueueBackend
from repro.experiments.broker import QueueError
from repro.experiments.plan import build_plan, point_key
from repro.experiments.scheduler import run_plan
from repro.settings import current
from repro.faults.manifest import plan_hash
from repro.faults.policy import PointTimeout, RetriesExhausted

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


def queue_backend(**overrides):
    kw = dict(workers=2, lease_timeout=10.0, poll=0.01, timeout=180.0)
    kw.update(overrides)
    return QueueBackend(**kw)


@pytest.fixture(scope="module")
def serial_results():
    return run_plan(small_plan(), jobs=1, use_cache=False,
                    backend="serial")


def live_aggregate(**run_kw):
    """run_plan with a live sink; returns (aggregator, results)."""
    aggregator = ViewAggregator()
    results = run_plan(small_plan(), use_cache=False, sink=aggregator,
                       **run_kw)
    aggregator.mark_done()
    return aggregator, results


# -- view selection -----------------------------------------------------------


class TestViewSelection:
    def test_views_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_VIEWS", raising=False)
        assert views_from_env() is None
        monkeypatch.setenv("REPRO_VIEWS", "all")
        assert views_from_env() is None
        monkeypatch.setenv("REPRO_VIEWS", "figure5, status")
        assert views_from_env() == ("figure5", "status")
        monkeypatch.setenv("REPRO_VIEWS", "figure5,typo")
        with pytest.raises(ValueError, match="typo"):
            views_from_env()

    def test_unknown_view_rejected(self):
        with pytest.raises(ValueError, match="nope"):
            ViewAggregator(views=("figure5", "nope"))

    def test_subset_builds_only_selected(self, serial_results):
        aggregator = ViewAggregator(views=("figure6",))
        for point, result in serial_results.items():
            aggregator.on_result(point, None, result, source="serial")
        aggregator.mark_done()
        assert set(aggregator.snapshot().views) == {"figure6"}

    def test_identity_excludes_status(self):
        assert "status" not in IDENTITY_VIEWS
        assert set(ALL_VIEWS) == set(IDENTITY_VIEWS) | {"status"}

    def test_serve_requested_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE", raising=False)
        assert current().serve is False
        for off in ("0", "false", "off", "no", ""):
            monkeypatch.setenv("REPRO_SERVE", off)
            assert current().serve is False
        monkeypatch.setenv("REPRO_SERVE", "1")
        assert current().serve is True


# -- aggregator semantics -----------------------------------------------------


class TestAggregatorSemantics:
    def test_duplicates_deduped_first_wins(self, serial_results):
        aggregator = ViewAggregator()
        (point, result), *rest = serial_results.items()
        aggregator.on_result(point, None, result, source="queue")
        version = aggregator.snapshot().version
        aggregator.on_result(point, None, result, source="queue")
        assert aggregator.duplicates == 1
        assert aggregator.snapshot().version == version  # no-op, no bump
        status = aggregator.snapshot().views["status"]
        assert status["done"] == 1
        assert status["sources"] == {"queue": 1}

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
        assert aggregator.snapshot().version > held.version

    def test_deltas_reconstruct_every_version(self, serial_results):
        """The SSE contract: snapshot v + replace-changed-views per
        delta == snapshot v+n, for every published version."""
        aggregator = ViewAggregator()
        deltas = []
        aggregator.subscribe(deltas.append)
        base = dict(aggregator.snapshot().views)
        version = aggregator.snapshot().version
        aggregator.on_plan(small_plan(), {})
        for point, result in serial_results.items():
            aggregator.on_progress(SimpleNamespace(
                phase="point", key=point_key(point)))
            aggregator.on_result(point, None, result, source="serial")
        aggregator.mark_done()
        reconstructed = base
        for delta in deltas:
            assert delta["version"] == version + 1   # no gaps
            version = delta["version"]
            assert set(delta["views"]) == set(delta["changed"])
            reconstructed.update(delta["views"])
        final = aggregator.snapshot()
        assert version == final.version
        assert deltas[-1]["done"] is True
        assert canonical_json(reconstructed) == canonical_json(
            dict(final.views))

    def test_unsubscribe_stops_deltas(self, serial_results):
        aggregator = ViewAggregator()
        deltas = []
        unsubscribe = aggregator.subscribe(deltas.append)
        (point, result), *_ = serial_results.items()
        aggregator.on_result(point, None, result, source="serial")
        unsubscribe()
        aggregator.mark_done()
        assert len(deltas) == 1

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
                                 meta={"trace_source": "local",
                                       "kernel_source": "kernel",
                                       "phase_seconds": {"replay": 0.25}})
        status = aggregator.snapshot().views["status"]
        assert status["trace_sources"] == {"local": len(serial_results)}
        assert status["kernel_sources"] == {"kernel": len(serial_results)}
        assert status["phase_seconds"] == {
            "replay": round(0.25 * len(serial_results), 6)}


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
                                     meta={"trace_source": "local",
                                           "kernel_source": "kernel"})
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

    def test_queue(self, serial_results):
        aggregator, results = live_aggregate(jobs=2,
                                             backend=queue_backend())
        self.check(aggregator, results, serial_results)

    def test_cache_replay(self, serial_results, tmp_path):
        from repro.experiments.cache import ResultCache

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
    @given(seed=st.integers(min_value=0, max_value=10**6),
           profile=st.sampled_from(["io", "stall", "crash"]))
    def test_under_chaos(self, seed, profile, serial_results):
        """Chaos extension of the invariant: when a faulted queue grid
        completes at all, its live views are byte-identical to the
        post-hoc build (typed failure is the only other outcome)."""
        previous = os.environ.get("REPRO_FAULTS")
        os.environ["REPRO_FAULTS"] = f"{seed}:{profile}"
        try:
            aggregator = ViewAggregator()
            backend = QueueBackend(workers=2, lease_timeout=0.8,
                                   poll=0.02, timeout=240.0,
                                   max_attempts=4)
            try:
                results = run_plan(small_plan(), jobs=2, use_cache=False,
                                   backend=backend, sink=aggregator)
            except (QueueError, RetriesExhausted, PointTimeout) as exc:
                assert "timed out" not in str(exc)
            else:
                aggregator.mark_done()
                self.check(aggregator, results, serial_results)
        finally:
            if previous is None:
                os.environ.pop("REPRO_FAULTS", None)
            else:
                os.environ["REPRO_FAULTS"] = previous

    def test_interrupted_run_resumes_identical(self, tmp_path,
                                               serial_results):
        """Kill a grid after two points; the resumed run's live views
        (fed by manifest replays + fresh computes) equal the post-hoc
        build over the full results."""
        seen = []

        def die_after_two(event):
            if event.phase != "point":
                return
            seen.append(event)
            if len(seen) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_plan(small_plan(), jobs=1, use_cache=False,
                     backend="serial", manifest=tmp_path,
                     progress=die_after_two, sink=ViewAggregator())
        aggregator = ViewAggregator()
        resumed = run_plan(small_plan(), jobs=1, use_cache=False,
                           backend="serial", manifest=tmp_path,
                           sink=aggregator)
        aggregator.mark_done()
        self.check(aggregator, resumed, serial_results)
        sources = aggregator.snapshot().views["status"]["sources"]
        assert sources.get("manifest") == 2

    def test_sigkilled_run_resumes_identical(self, tmp_path,
                                             serial_results):
        """The real crash: SIGKILL a separate grid process mid-run,
        resume with a live aggregator attached, and the final views
        are still byte-identical to post-hoc."""
        script = (
            "import sys\n"
            "from repro.experiments.plan import build_plan\n"
            "from repro.experiments.scheduler import run_plan\n"
            f"plan = build_plan(**{PLAN_KW!r})\n"
            "run_plan(plan, jobs=1, use_cache=False, backend='serial',\n"
            "         manifest=sys.argv[1])\n")
        keys = [point_key(point) for point in small_plan()]
        manifest_path = tmp_path / f"{plan_hash(keys)[:32]}.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)],
            env=subprocess_env(), cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120
            while True:
                if manifest_path.is_file():
                    text = manifest_path.read_text()
                    if text.count("\n") >= 2:
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
        aggregator = ViewAggregator()
        resumed = run_plan(small_plan(), jobs=1, use_cache=False,
                           backend="serial", manifest=tmp_path,
                           sink=aggregator)
        aggregator.mark_done()
        self.check(aggregator, resumed, serial_results)
