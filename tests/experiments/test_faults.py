"""The chaos harness + resilience policy layer (DESIGN.md §12).

Four layers of guarantees:

* the seeded injector itself — same ``REPRO_FAULTS`` spec, same faults
  at the same call sequence, budgets respected, retired profiles
  rejected, zero ambient effect when unset (and excluded from cache
  keys);
* durability fsyncs and digest-guarded cache entries that turn
  torn/bit-flipped files into misses, never wrong results;
* poison-point quarantine — failed points land in ``deadletter/`` while
  siblings complete, surfaced via ``python -m repro.obs deadletter``;
* resumable runs — a killed grid restarted with the same plan and
  result cache replays the points that reached the cache and converges
  bit-identically, serial and pooled;

plus the top-level chaos property: under any seeded write-fault
schedule a pooled grid, cold and then warm from the faulted cache, is
bit-identical to the fault-free serial run, its views equal the
post-hoc build, every fault is a warm-run miss, and the ledger records
every fault.
"""

import hashlib
import json
import os
import pathlib
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
from repro.faults import fsio
from repro.faults.injector import FaultInjector, active, override, parse_spec
from repro.faults.policy import DeadletterStore
from repro.obs.ledger import read_events
from repro.settings import current

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


# -- spec parsing -------------------------------------------------------------


class TestSpecParsing:
    def test_single_profile(self):
        seed, rates, budgets = parse_spec("7:corrupt")
        assert seed == "7"
        assert rates == {"corrupt": 0.5}
        assert budgets == {"corrupt": 2}

    def test_combined_profiles_take_the_max_rate(self):
        _, rates, budgets = parse_spec("s:mixed+corrupt")
        assert rates == {"corrupt": 0.5, "partial": 0.3}
        _, comma_rates, _ = parse_spec("s:mixed,corrupt")
        assert comma_rates == rates
        assert budgets == {"corrupt": 2, "partial": 2}

    def test_explicit_budget_caps_every_kind(self):
        _, rates, budgets = parse_spec("s:mixed:5")
        assert set(budgets) == set(rates)
        assert set(budgets.values()) == {5}

    def test_mixed_and_all_are_aliases(self):
        assert parse_spec("s:mixed")[1] == parse_spec("s:all")[1]
        assert set(parse_spec("s:mixed")[1]) == {"corrupt", "partial"}

    @pytest.mark.parametrize("bad", [
        "", "7", ":io", "7:", "7:nope", "7:io:x", "7:io:0", "7:io:-1",
        "7:io:1:extra", "7:corrupt:x", "7:corrupt:0", "7:corrupt:-1",
        "7:corrupt:1:extra",
        # Retired worker-side profiles: their seams are gone, so naming
        # one must fail loudly, never run clean.
        "7:crash", "7:io", "7:stall", "7:slow", "7:corrupt+crash"])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)


# -- the injector schedule ----------------------------------------------------


DATA = bytes(range(200))


def corrupt_pattern(spec: str, calls: int = 40) -> list[bool]:
    """Which of ``calls`` cache writes the schedule mangled."""
    injector = FaultInjector(spec)
    return [injector.mangle("cache.put", DATA) != DATA
            for _ in range(calls)]


class TestInjectorSchedule:
    def test_same_spec_same_schedule(self):
        assert corrupt_pattern("42:corrupt:99") \
            == corrupt_pattern("42:corrupt:99")
        assert corrupt_pattern("42:corrupt:99") \
            != corrupt_pattern("43:corrupt:99")

    def test_kind_streams_are_independent(self):
        """Enabling an extra profile must not shift the corrupt stream."""
        def corrupt_draws(spec):
            injector = FaultInjector(spec)
            draws = []
            for _ in range(40):
                injector._decide("partial")       # False when not enabled
                draws.append(injector._decide("corrupt"))
            return draws

        assert corrupt_draws("42:corrupt:99") \
            == corrupt_draws("42:corrupt+partial:99")

    def test_budget_bounds_injections(self):
        assert sum(corrupt_pattern("42:corrupt")) <= 2   # DEFAULT_BUDGETS
        assert sum(corrupt_pattern("42:corrupt:1", calls=200)) == 1

    def test_injected_log_names_kind_and_site(self):
        injector = FaultInjector("42:corrupt:1")
        for _ in range(200):
            injector.mangle("cache.put", DATA)
        assert injector.injected == [("corrupt", "cache.put")]

    def test_mangle_truncates_or_flips_one_bit(self):
        data = DATA
        partial = FaultInjector("1:partial:99")
        for _ in range(50):
            out = partial.mangle("cache.put", data)
            if out != data:
                assert out == data[:len(out)]         # pure truncation
                break
        else:
            pytest.fail("partial profile never injected in 50 calls")
        corrupt = FaultInjector("1:corrupt:99")
        for _ in range(50):
            out = corrupt.mangle("cache.put", data)
            if out != data:
                assert len(out) == len(data)
                diff = [i for i in range(len(data)) if out[i] != data[i]]
                assert len(diff) == 1                 # a single flipped bit
                assert bin(out[diff[0]] ^ data[diff[0]]).count("1") == 1
                break
        else:
            pytest.fail("corrupt profile never injected in 50 calls")

class TestActiveAndOverride:
    def test_unset_env_means_inactive(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert active() is None

    def test_env_spec_is_memoized(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "9:corrupt")
        first = active()
        assert isinstance(first, FaultInjector)
        assert first.spec == "9:corrupt"
        assert active() is first                      # same object, no reparse
        monkeypatch.setenv("REPRO_FAULTS", "9:partial")
        assert active().spec == "9:partial"           # spec change re-derives

    def test_override_pins_active(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        injector = FaultInjector("1:corrupt")
        with override(injector):
            assert active() is injector
        assert active() is None


# -- durable atomic writes + digest-guarded cache -----------------------------


class TestFsyncKnob:
    def test_default_on_and_off_values(self, monkeypatch):
        monkeypatch.delenv("REPRO_FSYNC", raising=False)
        assert current().fsync
        for off in ("0", "false", "no", "off"):
            monkeypatch.setenv("REPRO_FSYNC", off)
            assert not current().fsync
        monkeypatch.setenv("REPRO_FSYNC", "")         # empty = default
        assert current().fsync
        monkeypatch.setenv("REPRO_FSYNC", "1")
        assert current().fsync

    def test_atomic_write_replaces_durably(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FSYNC", "1")        # the fsync path itself
        path = tmp_path / "value.json"
        fsio.atomic_write_bytes(path, b"old")
        fsio.atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"
        assert list(tmp_path.glob("*.tmp")) == []     # no orphaned temps


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
        injector = FaultInjector("13:partial:99")
        keys = [self.key(f"chaos-{i}") for i in range(20)]
        with override(injector):
            for key in keys:
                store.put(key, one_result)
        mangled = sum(1 for kind, _ in injector.injected
                      if kind == "partial")
        assert mangled > 0
        misses = sum(1 for key in keys if store.get(key) is None)
        assert misses == mangled                      # torn <=> miss, exactly
        for key in keys:
            got = store.get(key)
            assert got is None or got == one_result


# -- deadletter quarantine ----------------------------------------------------


class TestDeadletterQuarantine:
    def test_serial_poison_point_is_quarantined(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_DEADLETTER_DIR", str(tmp_path / "dl"))
        store = ResultCache(tmp_path / "cache")
        good = [ExperimentPoint("li", "baseline", 20, scale=0.01,
                                warmup=50),
                ExperimentPoint("li", "current", 20, scale=0.01,
                                warmup=50)]
        bad = ExperimentPoint("no-such-benchmark", "baseline", 20,
                              scale=0.01, warmup=50)
        with pytest.raises(Exception) as excinfo:
            run_points([good[0], bad, good[1]], jobs=1, cache=store,
                       backend="serial")
        assert any("quarantined" in note for note
                   in getattr(excinfo.value, "__notes__", ()))
        assert all(point_key(p) in store for p in good)
        [entry] = DeadletterStore(tmp_path / "dl").entries()
        assert entry["point"]["benchmark"] == "no-such-benchmark"
        assert entry["key"]
        assert entry["error"]["type"]
        assert "no-such-benchmark" in entry["error"]["message"]

    def test_unwritable_deadletter_dir_keeps_the_original_error(
            self, tmp_path, monkeypatch):
        """Quarantine is best-effort: a deadletter directory that cannot
        be created (here: under a regular file) leaves the poison
        point's own error to be raised, without a quarantine note, and
        its siblings still reach the cache."""
        (tmp_path / "f").write_text("a file, not a directory")
        monkeypatch.setenv("REPRO_DEADLETTER_DIR", str(tmp_path / "f" / "dl"))
        store = ResultCache(tmp_path / "cache")
        good = ExperimentPoint("li", "baseline", 20, scale=0.01, warmup=50)
        bad = ExperimentPoint("no-such-benchmark", "baseline", 20,
                              scale=0.01, warmup=50)
        with pytest.raises(Exception, match="no-such-benchmark") as excinfo:
            run_points([good, bad], jobs=1, cache=store, backend="serial")
        assert not any("quarantined" in note for note
                       in getattr(excinfo.value, "__notes__", ()))
        assert point_key(good) in store

    def test_cli_lists_quarantined_points(self, tmp_path, capsys):
        from repro.obs import __main__ as obs_cli

        directory = tmp_path / "dl"
        assert obs_cli.main(["deadletter", str(directory)]) == 0
        assert "no quarantined points" in capsys.readouterr().out
        DeadletterStore(directory).add({
            "point": {"benchmark": "li", "configuration": "baseline",
                      "pipeline_depth": 20, "speculation": "redirect"},
            "key": "ab" * 32,
            "error": {"type": "RuntimeError", "message": "boom"},
        })
        assert obs_cli.main(["deadletter", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "1 quarantined point(s)" in out
        assert "li baseline d20" in out
        assert "RuntimeError: boom" in out


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


# -- chaos must not leak into keys or fault-free runs -------------------------


class TestFaultsAreKeyNeutral:
    def test_point_key_ignores_chaos_knobs(self, monkeypatch):
        point = ExperimentPoint("li", "baseline", 20, scale=0.01,
                                warmup=50)
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        clean = point_key(point)
        monkeypatch.setenv("REPRO_FAULTS", "7:mixed")
        assert point_key(point) == clean

    def test_faults_package_is_outside_the_code_fingerprint(self):
        from repro.experiments.plan import code_fingerprint

        before = code_fingerprint()
        # The fingerprint walk must skip src/repro/faults/ entirely —
        # the injector wraps execute_point, it never runs inside it.
        faults_dir = pathlib.Path(REPO_ROOT, "src", "repro", "faults")
        assert faults_dir.is_dir()
        sources = {path.name for path in faults_dir.glob("*.py")}
        assert "injector.py" in sources
        # Fingerprint is cached per content; recomputing with the
        # package present must equal itself and ignore those files.
        assert code_fingerprint() == before


# -- the chaos property -------------------------------------------------------


class TestChaosProperty:
    """The chaos acceptance property: under any seeded write-fault
    schedule, a pooled grid run cold into a fresh cache and then warm
    from it returns the fault-free serial results both times, with live
    views byte-identical to the post-hoc build.  Every injected fault is
    exactly one warm-run cache miss (a mangled entry is never served),
    and the run's ledger holds one ``kind="fault"`` event per fault."""

    @staticmethod
    def run_once(plan, cache, obs_root):
        """One pooled run; returns (results, views, faults, ledger
        fault events) for it."""
        injector = active()
        injected_before = len(injector.injected)
        runs_before = set(obs_root.iterdir()) if obs_root.is_dir() \
            else set()
        sink = ViewAggregator()
        results = run_plan(plan, jobs=2, backend="local", cache=cache,
                           sink=sink)
        sink.mark_done()
        [run_dir] = set(obs_root.iterdir()) - runs_before
        ledger_faults = [event for event
                         in read_events(run_dir / "ledger.jsonl")
                         if event.get("kind") == "fault"]
        return (results, sink.snapshot(),
                injector.injected[injected_before:], ledger_faults)

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           profile=st.sampled_from(["partial", "corrupt", "mixed"]))
    @example(seed=7, profile="mixed")   # faults in both the cold and warm run
    def test_seeded_chaos_never_hangs_or_diverges(self, seed, profile,
                                                  serial_results):
        plan = small_plan()
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as env:
            env.setenv("REPRO_FAULTS", f"{seed}:{profile}")
            env.setenv("REPRO_OBS", "1")
            env.setenv("REPRO_OBS_DIR", os.path.join(tmp, "obs"))
            obs_root = pathlib.Path(tmp, "obs")
            cache = ResultCache(pathlib.Path(tmp, "cache"))

            cold, cold_views, cold_faults, cold_events = self.run_once(
                plan, cache, obs_root)
            misses_before = cache.misses
            warm, warm_views, warm_faults, warm_events = self.run_once(
                plan, cache, obs_root)

            for results, views in ((cold, cold_views), (warm, warm_views)):
                assert results == serial_results
                assert identity_json(views) \
                    == identity_json(build_views(results))
            assert cache.misses - misses_before == len(cold_faults)
            for faults, events in ((cold_faults, cold_events),
                                   (warm_faults, warm_events)):
                assert [(event["attrs"]["fault"], event["attrs"]["site"])
                        for event in events] == faults
