"""Storage faults and failure reports (DESIGN.md §12).

Three layers of guarantees:

* digest-guarded cache entries turn torn or bit-flipped files into
  misses, never wrong results;
* failed points are reported once, completely — the first error is
  raised after the grid drains, with one note per other failure, one
  ``kind="error"`` ledger event per failure, and every sibling cached;
* resumable runs — a killed grid restarted with the same plan and
  result cache replays the points that reached the cache and converges
  bit-identically, serial and pooled;

plus the top-level storage property: a pooled grid run cold into a
fresh cache, then warm after a seeded subset of its entries was
truncated or bit-flipped on disk, is bit-identical to the serial run
both times, its views equal the post-hoc build, and every damaged entry
is exactly one warm-run miss.
"""

import hashlib
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.aggregate import (
    ViewAggregator,
    build_views,
    identity_json,
)
from repro.experiments.cache import ResultCache
from repro.experiments.plan import ExperimentPoint, build_plan, point_key
from repro.experiments.runner import execute_point
from repro.experiments.scheduler import run_plan, run_points
from repro.obs import __main__ as obs_cli
from repro.obs.ledger import read_events

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
def one_result():
    point = ExperimentPoint("li", "baseline", 20, scale=0.01, warmup=50)
    return execute_point(point)


@pytest.fixture(scope="module")
def serial_results():
    return run_plan(small_plan(), jobs=1, use_cache=False,
                    backend="serial")


def damage_entries(directory, seed) -> int:
    """Truncate, or flip one bit of, each entry in a seeded non-empty
    subset of the cache entries under ``directory``; returns how many
    entries were damaged."""
    rng = random.Random(seed)
    paths = sorted(pathlib.Path(directory).glob("*.json"))
    chosen = rng.sample(paths, rng.randint(1, len(paths)))
    for path in chosen:
        data = path.read_bytes()
        index = rng.randrange(len(data))
        if rng.random() < 0.5:
            damaged = data[:index]                    # torn write
        else:
            flipped = bytearray(data)
            flipped[index] ^= 1 << rng.randrange(8)   # one flipped bit
            damaged = bytes(flipped)
        path.write_bytes(damaged)
    return len(chosen)


# -- digest-guarded cache -----------------------------------------------------


class TestCacheDigestGuards:
    def key(self, tag: str) -> str:
        return hashlib.sha256(tag.encode()).hexdigest()

    def test_partial_write_is_a_miss_not_an_error(self, tmp_path,
                                                  one_result):
        store = ResultCache(tmp_path)
        key = self.key("torn")
        store.put(key, one_result)
        path = tmp_path / f"{key}.json"
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])       # simulated torn write
        assert store.get(key) is None

    def test_bit_flip_that_still_parses_is_a_miss(self, tmp_path,
                                                  one_result):
        """The format-2 digest: valid-JSON corruption must never replay
        as a silently different result."""
        store = ResultCache(tmp_path)
        key = self.key("flip")
        store.put(key, one_result)
        path = tmp_path / f"{key}.json"
        payload = json.loads(path.read_text())

        def perturb(node) -> bool:
            if isinstance(node, dict):
                for field, value in node.items():
                    if isinstance(value, (int, float)) \
                            and not isinstance(value, bool):
                        node[field] = value + 1
                        return True
                    if perturb(value):
                        return True
            if isinstance(node, list):
                return any(perturb(item) for item in node)
            return False

        assert perturb(payload["result"]), "no numeric field to perturb"
        path.write_text(json.dumps(payload))          # still valid JSON
        assert store.get(key) is None

    def test_bit_flip_that_parses_to_an_equal_result_is_a_miss(
            self, tmp_path, one_result):
        """A flip outside the digested result (here: in the entry's key
        field) still parses to the very same result; it is a miss all
        the same, so every mangled write is detected."""
        store = ResultCache(tmp_path)
        key = self.key("envelope")
        store.put(key, one_result)
        path = tmp_path / f"{key}.json"
        data = bytearray(path.read_bytes())
        data[data.index(key.encode())] ^= 0x01       # one hex digit
        path.write_bytes(bytes(data))
        assert json.loads(data)["result"] == one_result.to_dict()
        assert store.get(key) is None

    def test_injected_partial_writes_never_serve_wrong_results(
            self, tmp_path, one_result):
        store = ResultCache(tmp_path)
        keys = [self.key(f"chaos-{i}") for i in range(20)]
        for key in keys:
            store.put(key, one_result)
        rng = random.Random(13)
        torn = rng.sample(keys, 7)
        for key in torn:
            path = tmp_path / f"{key}.json"
            data = path.read_bytes()
            path.write_bytes(data[:rng.randrange(len(data))])
        misses = sum(1 for key in keys if store.get(key) is None)
        assert misses == len(torn)                    # torn <=> miss, exactly
        for key in keys:
            got = store.get(key)
            assert got is None or got == one_result


# -- failure report ----------------------------------------------------------


POISON = (ExperimentPoint("no-such-benchmark", "baseline", 20, scale=0.01,
                          warmup=50),
          ExperimentPoint("no-such-benchmark", "current", 40, scale=0.01,
                          warmup=50))


class TestFailureReport:
    @pytest.mark.parametrize("backend", ["serial", "local"])
    def test_poison_points_reported(self, tmp_path, monkeypatch, backend):
        """Two poison points among healthy siblings: the first error is
        raised once the grid drains, a note names the second point,
        every sibling reaches the cache, and the ledger holds one
        ``kind="error"`` event per failed point.  The two share a
        workload, so each also fails its trace recording."""
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        store = ResultCache(tmp_path / "cache")
        good = list(small_plan())
        with pytest.raises(KeyError, match="no-such-benchmark") as excinfo:
            run_points([good[0], POISON[0], good[1], POISON[1], *good[2:]],
                       jobs=2, cache=store, backend=backend)
        assert all(point_key(point) in store for point in good)
        labels = ("no-such-benchmark baseline d20 redirect",
                  "no-such-benchmark current d40 redirect")
        [note] = [note for note in excinfo.value.__notes__
                  if note.startswith("also failed: ")]
        assert note.startswith(f"also failed: {labels[1]}: KeyError: ")
        [run_dir] = (tmp_path / "obs").iterdir()
        errors = [event for event in read_events(run_dir / "ledger.jsonl")
                  if event["kind"] == "error"]
        assert len(errors) == 2
        assert {event["name"] for event in errors} \
            == {f"failed: {label}" for label in labels}
        assert {event["attrs"]["key"] for event in errors} \
            == {point_key(point) for point in POISON}
        for event in errors:
            assert "no-such-benchmark" in event["attrs"]["message"]
            assert event["attrs"]["type"] == "KeyError"
        lines = []
        assert obs_cli.summary(run_dir, echo=lines.append) == 0
        for label in labels:
            assert any(f"* failed: {label}: KeyError: " in line
                       for line in lines)


# -- resume from the result cache --------------------------------------------


class TestCacheResume:
    def test_interrupted_grid_resumes_bit_identical(self, tmp_path,
                                                    serial_results):
        """Kill a grid (here: an exception out of the progress callback)
        after two points; restarting with the same plan and cache
        replays them as source="cache" events and converges to the
        fault-free results."""
        seen = []

        def die_after_two(event):
            seen.append(event)
            if len(seen) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_plan(small_plan(), jobs=1, cache=ResultCache(tmp_path),
                     backend="serial", progress=die_after_two)
        events = []
        resumed = run_plan(small_plan(), jobs=1, cache=ResultCache(tmp_path),
                           backend="serial", progress=events.append)
        assert resumed == serial_results
        replayed = [e for e in events if e.source == "cache"]
        assert len(replayed) == 2
        assert len(events) == len(small_plan())

    def test_sigkilled_grid_resumes_from_cache(self, tmp_path,
                                               serial_results):
        self.sigkill_and_resume(tmp_path, serial_results, "serial", 1)

    def test_sigkilled_pooled_grid_resumes_from_cache(self, tmp_path,
                                                      serial_results):
        self.sigkill_and_resume(tmp_path, serial_results, "local", 2)

    @staticmethod
    def sigkill_and_resume(tmp_path, serial_results, backend, jobs):
        """The real crash: SIGKILL a separate grid process (and, on the
        pool, its workers) once its first cache entry lands, then resume
        in-process from the same cache on the same backend; the resumed
        run's views equal the post-hoc build."""
        script = (
            "import sys\n"
            "from repro.experiments.cache import ResultCache\n"
            "from repro.experiments.plan import build_plan\n"
            "from repro.experiments.scheduler import run_plan\n"
            f"plan = build_plan(**{PLAN_KW!r})\n"
            f"run_plan(plan, jobs={jobs}, cache=ResultCache(sys.argv[1]),\n"
            f"         backend={backend!r})\n")
        # Its own session, so one killpg takes the pool workers down with
        # the grid process.
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)],
            env=subprocess_env(), cwd=REPO_ROOT, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

        def kill_session():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass                                  # already gone
        try:
            deadline = time.monotonic() + 120
            while True:
                # Entries are renamed into place whole, so a *.json
                # file is a completed point.
                if any(tmp_path.glob("*.json")):
                    break
                if proc.poll() is not None:
                    break                             # finished before kill
                assert time.monotonic() < deadline, "grid never progressed"
                time.sleep(0.005)
            kill_session()
            proc.wait(timeout=60)
        finally:
            kill_session()
            proc.wait()
        cached = len(list(tmp_path.glob("*.json")))
        assert cached >= 1
        events = []
        sink = ViewAggregator()
        resumed = run_plan(small_plan(), jobs=jobs,
                           cache=ResultCache(tmp_path), backend=backend,
                           progress=events.append, sink=sink)
        sink.mark_done()
        assert resumed == serial_results
        assert len([e for e in events if e.source == "cache"]) == cached
        assert identity_json(sink.snapshot()) \
            == identity_json(build_views(resumed))


# -- the storage property ----------------------------------------------------


class TestChaosProperty:
    """The storage property: a pooled grid run cold into a fresh cache,
    then warm after a seeded subset of its entries was truncated or
    bit-flipped on disk, returns the serial results both times, with
    views byte-identical to the post-hoc build.  Every damaged entry is
    exactly one warm-run cache miss (a damaged entry is never served)."""

    @staticmethod
    def run_once(plan, cache):
        sink = ViewAggregator()
        results = run_plan(plan, jobs=2, backend="local", cache=cache,
                           sink=sink)
        sink.mark_done()
        return results, sink.snapshot()

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @example(seed=7)
    def test_seeded_chaos_never_hangs_or_diverges(self, seed,
                                                  serial_results):
        plan = small_plan()
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(tmp)
            cold, cold_views = self.run_once(plan, cache)
            damaged = damage_entries(tmp, seed)
            misses_before = cache.misses
            warm, warm_views = self.run_once(plan, cache)

            for results, views in ((cold, cold_views), (warm, warm_views)):
                assert results == serial_results
                assert identity_json(views) \
                    == identity_json(build_views(results))
            assert cache.misses - misses_before == damaged
