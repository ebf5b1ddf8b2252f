"""The chaos harness + resilience policy layer (ISSUE 8 / DESIGN.md §12).

Five layers of guarantees:

* the seeded injector itself — same ``REPRO_FAULTS`` spec, same faults
  at the same call sequence, budgets respected, zero ambient effect
  when unset (and excluded from cache keys);
* the policy layer — one :class:`RetryPolicy` with deterministic
  jitter, per-point SIGALRM deadlines, durability fsyncs, and
  digest-guarded cache entries that turn torn/bit-flipped files into
  misses, never wrong results;
* poison-point quarantine — failed points land in ``deadletter/`` with
  their full attempt history while siblings complete, surfaced via
  ``python -m repro.obs deadletter``;
* resumable runs — a killed grid restarted with the same plan replays
  its crash-safe manifest and converges bit-identically;
* graceful degradation — a backend that reports itself unavailable
  hands the remainder of the grid down the queue → local → serial
  ladder without double-counting progress;

plus the top-level chaos property: under *any* seeded fault schedule a
queue grid either completes bit-identical to the fault-free serial run
or fails with a typed error — never a hang, never silent divergence.
"""

import gc
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.backends import (
    BackendUnavailable,
    ExecutionBackend,
    LocalPoolBackend,
    QueueBackend,
    SerialBackend,
    _compute_batch,
    degrade_target,
)
from repro.experiments.broker import FileBroker, QueueError
from repro.experiments.cache import ResultCache
from repro.experiments.plan import ExperimentPoint, build_plan, point_key
from repro.experiments.runner import execute_point
from repro.experiments.scheduler import run_plan, run_points
from repro.faults import fsio
from repro.faults.injector import (
    FaultInjector,
    InjectedIOError,
    active,
    override,
    parse_spec,
)
from repro.faults.manifest import RunManifest, plan_hash, resolve_manifest
from repro.faults.policy import (
    DeadletterStore,
    PointTimeout,
    RetriesExhausted,
    RetryPolicy,
    point_deadline,
)
from repro.settings import SettingsError, current

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
        seed, rates, budgets = parse_spec("7:io")
        assert seed == "7"
        assert rates == {"io": 0.5}
        assert budgets == {"io": 2}

    def test_combined_profiles_take_the_max_rate(self):
        _, rates, budgets = parse_spec("s:io+slow")
        assert set(rates) == {"io", "slow"}
        assert rates["slow"] == 1.0
        _, comma_rates, _ = parse_spec("s:io,slow")
        assert comma_rates == rates
        assert budgets == {"io": 2, "slow": 16}

    def test_explicit_budget_caps_every_kind(self):
        _, rates, budgets = parse_spec("s:mixed:5")
        assert set(budgets) == set(rates)
        assert set(budgets.values()) == {5}

    def test_mixed_and_all_are_aliases(self):
        assert parse_spec("s:mixed")[1] == parse_spec("s:all")[1]

    @pytest.mark.parametrize("bad", [
        "", "7", ":io", "7:", "7:nope", "7:io:x", "7:io:0", "7:io:-1",
        "7:io:1:extra"])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)


# -- the injector schedule ----------------------------------------------------


def io_pattern(spec: str, calls: int = 40) -> list[bool]:
    injector = FaultInjector(spec)
    pattern = []
    for _ in range(calls):
        try:
            injector.maybe_io_error("broker.tick")
            pattern.append(False)
        except InjectedIOError:
            pattern.append(True)
    return pattern


class TestInjectorSchedule:
    def test_same_spec_same_schedule(self):
        assert io_pattern("42:io:99") == io_pattern("42:io:99")
        assert io_pattern("42:io:99") != io_pattern("43:io:99")

    def test_kind_streams_are_independent(self):
        """Enabling an extra profile must not shift where io faults land."""
        assert io_pattern("42:io:99") == io_pattern("42:io+slow:99")

    def test_budget_bounds_injections(self):
        assert sum(io_pattern("42:io")) <= 2          # DEFAULT_BUDGETS["io"]
        assert sum(io_pattern("42:io:1", calls=200)) == 1

    def test_injected_log_names_kind_and_site(self):
        injector = FaultInjector("42:io:1")
        with pytest.raises(InjectedIOError) as excinfo:
            for _ in range(200):
                injector.maybe_io_error("broker.submit")
        assert "broker.submit" in str(excinfo.value)
        assert injector.injected == [("io", "broker.submit")]

    def test_mangle_truncates_or_flips_one_bit(self):
        data = bytes(range(200))
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

    def test_slow_delay_is_bounded(self):
        injector = FaultInjector("1:slow")
        delays = [injector.slow_delay("worker.point") for _ in range(20)]
        injected = [d for d in delays if d > 0.0]
        assert len(injected) == 16                    # the slow budget
        assert all(0.02 <= d <= 0.1 for d in injected)

    def test_crash_never_fires_off_main_thread(self, tmp_path):
        injector = FaultInjector("1:crash")
        outcome = []

        def run():
            injector.maybe_crash(tmp_path)            # must NOT os._exit
            outcome.append("survived")

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(10)
        assert outcome == ["survived"]
        assert injector.injected == []
        assert not (tmp_path / "faults-crash.marker").exists()


class TestActiveAndOverride:
    def test_unset_env_means_inactive(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert active() is None

    def test_env_spec_is_memoized(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "9:slow")
        first = active()
        assert isinstance(first, FaultInjector)
        assert first.spec == "9:slow"
        assert active() is first                      # same object, no reparse
        monkeypatch.setenv("REPRO_FAULTS", "9:io")
        assert active().spec == "9:io"                # spec change re-derives

    def test_override_pins_active(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        injector = FaultInjector("1:io")
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


# -- the retry policy ---------------------------------------------------------


class TestRetryPolicy:
    def test_delay_shape_and_cap(self):
        policy = RetryPolicy(max_attempts=9, backoff=0.1, factor=2.0,
                             cap=0.5)
        assert policy.delay(1, "k") == 0.0            # first try is free
        assert 0.05 <= policy.delay(2, "k") <= 0.1    # backoff * [1/2, 1]
        assert 0.1 <= policy.delay(3, "k") <= 0.2
        assert policy.delay(9, "k") <= 0.5            # capped

    def test_jitter_is_deterministic_per_key(self):
        policy = RetryPolicy(backoff=0.1)
        assert policy.delay(3, "a") == policy.delay(3, "a")
        assert policy.delay(3, "a") != policy.delay(3, "b")

    def test_call_retries_transient_then_succeeds(self):
        policy = RetryPolicy(max_attempts=3, backoff=0.0)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return 42

        assert policy.call(flaky, key="k", what="flaky op") == 42
        assert len(attempts) == 3

    def test_exhaustion_is_typed_with_history(self):
        policy = RetryPolicy(max_attempts=2, backoff=0.0)

        def always():
            raise OSError("disk on fire")

        with pytest.raises(RetriesExhausted,
                           match="failed after 2 attempt") as excinfo:
            policy.call(always, key="k", what="doomed op")
        assert excinfo.value.attempts == 2
        assert len(excinfo.value.history) == 2
        assert all("disk on fire" in line
                   for line in excinfo.value.history)

    def test_point_timeout_is_never_retried(self):
        policy = RetryPolicy(max_attempts=5, backoff=0.0)
        attempts = []

        def overrun():
            attempts.append(1)
            raise PointTimeout("too slow")

        with pytest.raises(PointTimeout):
            policy.call(overrun, key="k", what="slow op",
                        retry_on=(RuntimeError,))
        assert len(attempts) == 1                     # deadline is final

    def test_from_env_reads_backoff(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.25")
        assert RetryPolicy.from_env(max_attempts=4).backoff == 0.25
        monkeypatch.delenv("REPRO_RETRY_BACKOFF")
        assert RetryPolicy.from_env().backoff == 0.05
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "bogus")
        with pytest.raises(SettingsError, match="REPRO_RETRY_BACKOFF"):
            RetryPolicy.from_env()


# -- per-point deadlines ------------------------------------------------------


class TestPointDeadline:
    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_POINT_TIMEOUT", raising=False)
        assert current().point_timeout == 0.0
        for off in ("0", "off", "-3"):
            monkeypatch.setenv("REPRO_POINT_TIMEOUT", off)
            assert current().point_timeout == 0.0
        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "2.5")
        assert current().point_timeout == 2.5
        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "garbage")
        with pytest.raises(SettingsError, match="REPRO_POINT_TIMEOUT"):
            current()

    def test_deadline_interrupts_and_disarms(self):
        started = time.monotonic()
        with pytest.raises(PointTimeout, match="deadline"):
            with point_deadline(0.05):
                time.sleep(5)
        assert time.monotonic() - started < 2.0
        time.sleep(0.1)                               # timer must be disarmed

    def test_disabled_deadline_leaves_signal_state_alone(self):
        before = signal.getsignal(signal.SIGALRM)
        for seconds in (0, 0.0, -1):
            with point_deadline(seconds):
                assert signal.getsignal(signal.SIGALRM) is before
                assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_previous_handler_and_timer_restored(self):
        before = signal.getsignal(signal.SIGALRM)
        with point_deadline(30):
            assert signal.getsignal(signal.SIGALRM) is not before
            assert signal.getitimer(signal.ITIMER_REAL)[0] > 0.0
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_foreign_frames_are_skipped_until_a_guarded_one(self):
        """Firings inside a helper outside the ``repro`` package are
        ignored; the next firing in the frame that opened the deadline
        raises."""
        finished = []

        def spin(seconds):
            until = time.perf_counter() + seconds
            while time.perf_counter() < until:
                pass
            finished.append(True)

        with pytest.raises(PointTimeout):
            with point_deadline(0.01):
                spin(0.1)                 # many firings land here
                while True:               # the opener's own frame
                    pass
        assert finished == [True]

    def test_noop_off_main_thread(self):
        outcome = []

        def run():
            with point_deadline(0.01):
                time.sleep(0.05)
            outcome.append("survived")

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(10)
        assert outcome == ["survived"]

    def test_serial_grid_surfaces_point_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "0.001")
        point = ExperimentPoint("li", "baseline", 20, scale=0.01,
                                warmup=50)
        with pytest.raises(PointTimeout):
            run_points([point], jobs=1, use_cache=False, backend="serial")

    def test_timeout_never_raises_inside_foreign_callbacks(
            self, monkeypatch):
        """Regression: a firing that lands in a pure-Python gc callback
        must not raise there (CPython would hand the timeout to
        ``sys.unraisablehook`` and carry on); it is ignored, and a later
        firing raises in the simulator's own frames instead."""
        seen = []
        stalled = []
        thresholds = gc.get_threshold()

        def stall_once(_phase, _info):
            # The first collection after the deadline arms outlasts its
            # first firings, so they land in this (foreign) frame.
            if stalled or signal.getitimer(signal.ITIMER_REAL)[0] == 0.0:
                return
            stalled.append(True)
            gc.set_threshold(*thresholds)
            until = time.perf_counter() + 0.02
            while time.perf_counter() < until:
                pass

        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "0.001")
        point = ExperimentPoint("li", "baseline", 20, scale=0.01,
                                warmup=50)
        saved_hook = sys.unraisablehook
        sys.unraisablehook = seen.append
        gc.callbacks.append(stall_once)
        gc.set_threshold(1)  # collect on the point's first allocation
        try:
            with pytest.raises(PointTimeout):
                run_points([point], jobs=1, use_cache=False,
                           backend="serial")
        finally:
            gc.set_threshold(*thresholds)
            gc.callbacks.remove(stall_once)
            sys.unraisablehook = saved_hook
        assert stalled, "no collection ran under the deadline"
        assert seen == []

    def test_generous_deadline_changes_nothing(self, monkeypatch,
                                               serial_results):
        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "300")
        assert run_plan(small_plan(), jobs=1, use_cache=False,
                        backend="serial") == serial_results


# -- heartbeat counters vs wall-clock skew ------------------------------------


class TestHeartbeatSkew:
    def test_skewed_mtime_cannot_expire_a_live_lease(self, tmp_path):
        """A worker whose host clock is far behind keeps its lease as
        long as its monotonic counter advances."""
        broker = FileBroker(tmp_path, lease_timeout=0.2)
        broker.submit("j1", {})
        broker.lease()
        assert broker.expired() == []                 # seeds counter tracking
        lease = broker.leased_dir / "j1.msg"
        past = time.time() - 3600
        for _ in range(3):
            os.utime(lease, (past, past))             # mtime says "stale"
            broker.renew("j1")                        # counter says "alive"
            time.sleep(0.1)
            assert broker.expired() == []
        time.sleep(0.25)                              # counter now frozen
        assert broker.expired() == ["j1"]

    def test_restarted_scheduler_falls_back_to_mtime_once(self, tmp_path):
        taker = FileBroker(tmp_path, lease_timeout=0.2)
        taker.submit("j1", {})
        taker.lease()
        past = time.time() - 3600
        os.utime(taker.leased_dir / "j1.msg", (past, past))
        watcher = FileBroker(tmp_path, lease_timeout=0.2)  # fresh scheduler
        assert watcher.expired() == ["j1"]            # mtime fallback fires

    def test_coarse_mtime_cannot_expire_a_fresh_lease_on_first_sight(
            self, tmp_path):
        """The one-shot mtime fallback carries a staleness floor: on a
        filesystem that rounds st_mtime to whole seconds, a sub-second
        ``lease_timeout`` must not expire a lease taken *just now* the
        first time a restarted scheduler observes it."""
        taker = FileBroker(tmp_path, lease_timeout=0.2)
        taker.submit("j1", {})
        taker.lease()
        # Worst-case coarse-mtime rounding: the file looks 0.9s old the
        # instant after the lease was taken (> lease_timeout, < floor).
        past = time.time() - 0.9
        os.utime(taker.leased_dir / "j1.msg", (past, past))
        watcher = FileBroker(tmp_path, lease_timeout=0.2)
        assert watcher.expired() == []         # floored, joins tracking
        time.sleep(0.25)                       # counter never advances...
        assert watcher.expired() == ["j1"]     # ...so it expires properly

    def test_first_sight_orphan_has_unknown_lease_age(self, tmp_path):
        """A lease expired via the one-shot mtime fallback was never
        heartbeat-observed by this watcher, so its age is genuinely
        unknown: ``lease_age`` returns None (rendered "unknown" in the
        QueueError retry reason and the lease_expired ledger event),
        never a skew-poisoned ``time.time() - st_mtime`` number."""
        taker = FileBroker(tmp_path, lease_timeout=0.2)
        taker.submit("j1", {})
        taker.lease()
        past = time.time() - 3600
        os.utime(taker.leased_dir / "j1.msg", (past, past))
        watcher = FileBroker(tmp_path, lease_timeout=0.2)
        assert watcher.expired() == ["j1"]     # the scheduler's sequence:
        assert watcher.lease_age("j1") is None  # ...then age -> unknown

    def test_lease_age_is_monotonic_once_observed(self, tmp_path):
        broker = FileBroker(tmp_path, lease_timeout=5.0)
        broker.submit("j1", {})
        assert broker.lease_age("j1") is None  # not leased at all
        broker.lease()
        assert broker.lease_age("j1") is None  # leased, never observed
        assert broker.expired() == []          # first observation
        age = broker.lease_age("j1")
        assert age is not None and age >= 0.0
        time.sleep(0.05)
        later = broker.lease_age("j1")
        assert later is not None and later >= age
        # A future-skewed mtime must not clamp the age to a bogus 0.0.
        ahead = time.time() + 3600
        os.utime(broker.leased_dir / "j1.msg", (ahead, ahead))
        skewed = broker.lease_age("j1")
        assert skewed is not None and skewed >= later


# -- graceful SIGTERM ---------------------------------------------------------


class TestGracefulSigterm:
    def test_sigterm_releases_lease_and_loses_no_ticks(self, tmp_path):
        """SIGTERM mid-batch: the worker finishes its in-flight point,
        hands the lease back to the queue (not left to expire) and
        exits 0; every tick written before the signal survives and a
        second worker completes the batch."""
        broker = FileBroker(tmp_path, lease_timeout=30.0)
        point = ExperimentPoint("li", "baseline", 20, scale=0.01,
                                warmup=50).to_dict()
        total = 12
        broker.submit("j1", {"job_id": "j1", "batch_id": "b0",
                             "attempt": 1, "points": [point] * total})
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.worker", "--broker",
             str(tmp_path), "--poll", "0.01"],
            env=subprocess_env(REPRO_FAULTS="1:slow"), cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        first_ticks: set[int] = set()
        try:
            deadline = time.monotonic() + 60
            while not first_ticks:
                assert time.monotonic() < deadline, "worker never ticked"
                first_ticks.update(            # drop LOWER_TICK pseudo-ticks
                    index for _job, index, _dur in broker.drain_ticks()
                    if index >= 0)
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        first_ticks.update(
            index for _job, index, _dur in broker.drain_ticks()
            if index >= 0)
        # The lease went back to the queue, nothing was published, and
        # the ticks on disk are exactly the completed prefix.
        assert broker.queued_count() == 1
        assert broker.leased_count() == 0
        assert broker.collect_results() == []
        assert first_ticks == set(range(len(first_ticks)))
        assert 0 < len(first_ticks) < total
        # A fresh worker drains the released job to completion.
        finisher = subprocess.run(
            [sys.executable, "-m", "repro.worker", "--broker",
             str(tmp_path), "--poll", "0.01", "--max-jobs", "1"],
            env=subprocess_env(), cwd=REPO_ROOT, timeout=300,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        assert finisher.returncode == 0
        [(job_id, message)] = broker.collect_results()
        assert job_id == "j1"
        entries = message.payload["entries"]
        assert len(entries) == total
        assert all(status == "ok" for status, *_ in entries)
        second_ticks = {index for _job, index, _dur
                        in broker.drain_ticks() if index >= 0}
        assert first_ticks | second_ticks == set(range(total))


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

    def test_queue_poison_job_records_full_attempt_history(
            self, tmp_path, monkeypatch):
        """A job that can never produce a valid result exhausts its
        bounded attempts; every point lands in deadletter/ with the
        complete per-attempt history."""
        monkeypatch.setenv("REPRO_DEADLETTER_DIR", str(tmp_path / "dl"))
        backend = QueueBackend(workers=1, lease_timeout=10.0, poll=0.01,
                               timeout=120.0, max_attempts=2,
                               worker_args=("--corrupt-results", "99"))
        with pytest.raises(QueueError, match="after 2 attempt"):
            run_plan(small_plan(), jobs=2, use_cache=False,
                     backend=backend)
        entries = DeadletterStore(tmp_path / "dl").entries()
        assert len(entries) == len(small_plan())
        for entry in entries:
            assert len(entry["history"]) == 2
            assert any("corrupt result" in line
                       for line in entry["history"])

    def test_quarantine_can_be_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLETTER_DIR", str(tmp_path / "dl"))
        monkeypatch.setenv("REPRO_DEADLETTER", "0")
        bad = ExperimentPoint("no-such-benchmark", "baseline", 20,
                              scale=0.01, warmup=50)
        with pytest.raises(Exception):
            run_points([bad], jobs=1, use_cache=False, backend="serial")
        assert DeadletterStore(tmp_path / "dl").entries() == []

    def test_cli_lists_quarantined_points(self, tmp_path, capsys):
        from repro.obs import __main__ as obs_cli

        directory = tmp_path / "dl"
        assert obs_cli.main(["deadletter", str(directory)]) == 0
        assert "no quarantined points" in capsys.readouterr().out
        DeadletterStore(directory).add({
            "point": {"benchmark": "li", "configuration": "baseline",
                      "pipeline_depth": 20, "speculation": "redirect"},
            "key": "ab" * 32,
            "error": {"type": "QueueError", "message": "boom"},
            "history": ["attempt 1: corrupt result payload"],
        })
        assert obs_cli.main(["deadletter", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "1 quarantined point(s)" in out
        assert "li baseline d20" in out
        assert "QueueError: boom" in out
        assert "attempt 1: corrupt result payload" in out


# -- crash-safe run manifests -------------------------------------------------


class TestRunManifest:
    KEYS = ["k-alpha", "k-beta", "k-gamma"]

    def test_record_and_reopen(self, tmp_path):
        manifest = RunManifest.open(tmp_path, self.KEYS)
        manifest.record("k-alpha", {"ipc": 1.0})
        manifest.record("k-beta", {"ipc": 2.0})
        manifest.record("k-alpha", {"ipc": 99.0})     # idempotent per key
        manifest.close()
        reopened = RunManifest.open(tmp_path, self.KEYS)
        assert reopened.completed == {"k-alpha": {"ipc": 1.0},
                                      "k-beta": {"ipc": 2.0}}
        reopened.close()

    def test_torn_final_line_is_skipped(self, tmp_path):
        manifest = RunManifest.open(tmp_path, self.KEYS)
        manifest.record("k-alpha", {"ipc": 1.0})
        manifest.close()
        with open(manifest.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "result", "key": "k-beta", "pay')
        reopened = RunManifest.open(tmp_path, self.KEYS)
        assert set(reopened.completed) == {"k-alpha"}
        reopened.record("k-beta", {"ipc": 2.0})       # appends fine after
        reopened.close()

    def test_tampered_line_fails_its_self_digest(self, tmp_path):
        manifest = RunManifest.open(tmp_path, self.KEYS)
        manifest.record("k-alpha", {"ipc": 1.0})
        manifest.close()
        lines = manifest.path.read_text().splitlines()
        assert '"ipc":1.0' in lines[1]                # canonical JSON
        lines[1] = lines[1].replace('"ipc":1.0', '"ipc":7.0')
        manifest.path.write_text("\n".join(lines) + "\n")
        reopened = RunManifest.open(tmp_path, self.KEYS)
        assert reopened.completed == {}               # tamper => recompute
        reopened.close()

    def test_foreign_header_restarts_the_manifest(self, tmp_path):
        plan = plan_hash(self.KEYS)
        path = tmp_path / f"{plan[:32]}.jsonl"
        path.write_text('{"kind": "plan", "plan": "someone-else", '
                        '"v": 1}\n')
        manifest = RunManifest.open(tmp_path, self.KEYS)
        assert manifest.completed == {}
        manifest.close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["plan"] == plan                 # rewritten for us

    def test_resolve_manifest_modes(self, tmp_path, monkeypatch):
        assert resolve_manifest(False, self.KEYS) is None
        monkeypatch.delenv("REPRO_MANIFEST", raising=False)
        assert resolve_manifest(None, self.KEYS) is None
        monkeypatch.setenv("REPRO_MANIFEST", "1")
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        via_env = resolve_manifest(None, self.KEYS)
        assert isinstance(via_env, RunManifest)
        via_env.close()
        explicit = resolve_manifest(tmp_path, self.KEYS)
        assert explicit.path == via_env.path
        explicit.close()


class TestManifestResume:
    def test_interrupted_grid_resumes_bit_identical(self, tmp_path,
                                                    serial_results):
        """Kill a grid (here: an exception out of the progress callback)
        after two points; restarting with the same plan and manifest
        directory replays them as source="manifest" events and
        converges to the fault-free results."""
        seen = []

        def die_after_two(event):
            if event.phase != "point":                # skip lower ticks
                return
            seen.append(event)
            if len(seen) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_plan(small_plan(), jobs=1, use_cache=False,
                     backend="serial", manifest=tmp_path,
                     progress=die_after_two)
        events = []
        resumed = run_plan(small_plan(), jobs=1, use_cache=False,
                           backend="serial", manifest=tmp_path,
                           progress=events.append)
        assert resumed == serial_results
        replayed = [e for e in events if e.source == "manifest"]
        assert len(replayed) == 2
        assert len([e for e in events if e.phase == "point"]) \
            == len(small_plan())

    def test_sigkilled_grid_resumes_from_manifest(self, tmp_path,
                                                  serial_results):
        """The real crash: SIGKILL a separate grid process mid-run, then
        resume in-process from its manifest."""
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
                    # header + >=1 complete result line
                    if text.count("\n") >= 2:
                        break
                if proc.poll() is not None:
                    break                             # finished before kill
                assert time.monotonic() < deadline, "grid never progressed"
                time.sleep(0.005)
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        events = []
        resumed = run_plan(small_plan(), jobs=1, use_cache=False,
                           backend="serial", manifest=tmp_path,
                           progress=events.append)
        assert resumed == serial_results
        assert [e for e in events if e.source == "manifest"]


# -- graceful degradation -----------------------------------------------------


class TestDegradation:
    def test_ladder_shape(self):
        fallback = degrade_target(QueueBackend(workers=0,
                                               broker_dir="unused"))
        assert isinstance(fallback, LocalPoolBackend)
        floor = degrade_target(fallback)
        assert isinstance(floor, SerialBackend)
        assert degrade_target(floor) is None
        assert issubclass(BackendUnavailable, QueueError)

    def test_midgrid_degradation_keeps_progress_consistent(
            self, serial_results):
        """A backend that delivers part of the grid then reports itself
        unavailable: the fallback runs only the remainder, and the
        progress stream still shows exactly one event per point with a
        monotone counter."""

        class FlakyBackend(ExecutionBackend):
            name = "queue"
            source = "queue"

            def execute(self, batches, report, *, jobs):
                batch_id = next(iter(batches))
                [(status, payload, _meta)] = _compute_batch(
                    (batches[batch_id][0],))
                assert status == "ok"
                report.deliver(batch_id, 0, payload)
                report.tick(batch_id, 0)
                raise BackendUnavailable("injected: backend fell over")

        events = []
        plan = small_plan()
        results = run_plan(plan, jobs=2, use_cache=False,
                           backend=FlakyBackend(),
                           progress=events.append)
        assert results == serial_results
        point_events = [e for e in events if e.phase == "point"]
        assert len(point_events) == len(plan)
        assert {e.point for e in point_events} == set(plan)
        assert [e.completed for e in point_events] == list(
            range(1, len(plan) + 1))
        assert {e.source for e in point_events} == {"queue", "worker"}

    def test_crash_looping_queue_degrades_to_local(self, serial_results):
        """The real thing: a queue whose workers can never start (bad
        CLI flag) reports BackendUnavailable and the grid completes on
        the local pool with identical results."""
        backend = QueueBackend(workers=1, lease_timeout=10.0, poll=0.01,
                               timeout=120.0,
                               worker_args=("--definitely-not-a-flag",))
        events = []
        results = run_plan(small_plan(), jobs=2, use_cache=False,
                           backend=backend, progress=events.append)
        assert results == serial_results
        point_events = [e for e in events if e.phase == "point"]
        assert len(point_events) == len(small_plan())
        assert {e.source for e in point_events} == {"worker"}

    def test_degradation_can_be_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEGRADE", "0")

        class DeadBackend(ExecutionBackend):
            name = "queue"
            source = "queue"

            def execute(self, batches, report, *, jobs):
                raise BackendUnavailable("injected: no workers here")

        with pytest.raises(BackendUnavailable, match="no workers"):
            run_plan(small_plan(), jobs=2, use_cache=False,
                     backend=DeadBackend())


# -- chaos must not leak into keys or fault-free runs -------------------------


class TestFaultsAreKeyNeutral:
    def test_point_key_ignores_chaos_knobs(self, monkeypatch):
        point = ExperimentPoint("li", "baseline", 20, scale=0.01,
                                warmup=50)
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        clean = point_key(point)
        monkeypatch.setenv("REPRO_FAULTS", "7:mixed")
        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "60")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.5")
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
    """ISSUE 8's hypothesis-backed acceptance property: under any
    seeded fault schedule the queue grid completes with results equal
    to the fault-free serial run, or fails with a typed error naming
    the fault — never a hang (the backend's hard timeout raising would
    fail the test), never silent divergence."""

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           profile=st.sampled_from(
               ["io", "partial", "corrupt", "stall", "slow", "crash",
                "mixed"]))
    def test_seeded_chaos_never_hangs_or_diverges(self, seed, profile,
                                                  serial_results):
        previous = os.environ.get("REPRO_FAULTS")
        os.environ["REPRO_FAULTS"] = f"{seed}:{profile}"
        try:
            backend = QueueBackend(workers=2, lease_timeout=0.8,
                                   poll=0.02, timeout=240.0,
                                   max_attempts=4)
            try:
                results = run_plan(small_plan(), jobs=2, use_cache=False,
                                   backend=backend)
            except (QueueError, RetriesExhausted, PointTimeout) as exc:
                # A typed failure is an acceptable outcome — but a
                # backend timeout would mean the grid hung.
                assert "timed out" not in str(exc)
            else:
                assert results == serial_results
        finally:
            if previous is None:
                os.environ.pop("REPRO_FAULTS", None)
            else:
                os.environ["REPRO_FAULTS"] = previous
