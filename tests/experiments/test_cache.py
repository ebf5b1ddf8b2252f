"""Result-cache layer: robustness against corrupt entries, hit fidelity."""

import json
import pathlib
import shutil

import pytest

from repro.experiments.cache import CACHE_FORMAT_VERSION, ResultCache
from repro.experiments.plan import ExperimentPoint, point_key
from repro.experiments.runner import execute_point
from repro.pipeline.stats import SimulationResult

SMALL = dict(scale=0.02, warmup=200)


@pytest.fixture
def point():
    return ExperimentPoint("li", "current", 20, **SMALL)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def test_miss_on_empty_cache(cache, point):
    assert cache.get(point_key(point)) is None
    assert cache.misses == 1


def test_hit_returns_equal_result(cache, point):
    fresh = execute_point(point)
    key = point_key(point)
    cache.put(key, fresh)
    replayed = cache.get(key)
    assert replayed == fresh
    assert replayed.ipc == fresh.ipc
    assert replayed.memory == fresh.memory
    assert replayed.calculated.accuracy == fresh.calculated.accuracy


def test_round_trip_is_lossless(point):
    fresh = execute_point(point)
    assert SimulationResult.from_dict(
        json.loads(json.dumps(fresh.to_dict()))) == fresh


@pytest.mark.parametrize("payload", [
    "",                                       # empty file
    "{not json",                              # syntactically broken
    '{"format": 999, "result": {}}',          # future format version
    '{"result": {"instructions": 1}}',        # missing format marker
    '{"format": %d, "result": {"instructions": 5}}' % CACHE_FORMAT_VERSION,
    '{"format": %d}' % CACHE_FORMAT_VERSION,  # truncated: no result
    '[1, 2, 3]',                              # wrong top-level type
])
def test_corrupt_entry_is_a_miss(cache, point, payload):
    key = point_key(point)
    cache.directory.mkdir(parents=True, exist_ok=True)
    (cache.directory / f"{key}.json").write_text(payload)
    assert cache.get(key) is None


def test_truncated_nested_counters_are_a_miss(cache, point):
    """A valid-looking entry missing one nested counter must not load
    with silently zero-filled statistics."""
    key = point_key(point)
    cache.put(key, execute_point(point))
    path = cache.directory / f"{key}.json"
    payload = json.loads(path.read_text())
    del payload["result"]["memory"]["dtlb_misses"]
    path.write_text(json.dumps(payload))
    assert cache.get(key) is None


def test_corrupt_entry_is_recomputed_and_repaired(cache, point):
    """A scheduler run over a corrupt entry recomputes and rewrites it."""
    from repro.experiments.scheduler import run_points

    key = point_key(point)
    cache.directory.mkdir(parents=True, exist_ok=True)
    (cache.directory / f"{key}.json").write_text("{truncated")
    results = run_points([point], jobs=1, cache=cache)
    fresh = execute_point(point)
    assert list(results.values()) == [fresh]
    # The store now holds a valid entry again.
    assert cache.get(key) == fresh


def test_put_is_atomic_no_tmp_left_behind(cache, point):
    fresh = execute_point(point)
    cache.put(point_key(point), fresh)
    leftovers = list(cache.directory.glob("*.tmp"))
    assert leftovers == []
    assert len(cache) == 1


def test_clear_removes_entries_and_orphaned_temp_files(cache, point):
    cache.put(point_key(point), execute_point(point))
    # Simulate a writer killed between mkstemp and os.replace.
    (cache.directory / "orphan.tmp").write_text("{half-written")
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0
    assert list(cache.directory.glob("*.tmp")) == []


def test_malformed_key_rejected(cache):
    with pytest.raises(ValueError):
        cache.get("../../etc/passwd")
    with pytest.raises(ValueError):
        cache.put("UPPER", SimulationResult())


def test_cache_disabled_via_env(monkeypatch):
    from repro.experiments.cache import default_cache

    monkeypatch.setenv("REPRO_CACHE", "0")
    assert default_cache() is None
    monkeypatch.setenv("REPRO_CACHE", "1")
    assert default_cache() is not None


def test_cache_dir_override(monkeypatch, tmp_path):
    from repro.experiments.cache import default_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    store = default_cache()
    assert store is not None
    assert store.directory == tmp_path / "elsewhere"


def test_key_covers_every_knob(point):
    """Changing any outcome-affecting knob changes the content hash."""
    from dataclasses import replace

    from repro.core.arvi import ARVIConfig

    base = point_key(point)
    variants = [
        replace(point, benchmark="vortex"),
        replace(point, configuration="baseline"),
        replace(point, pipeline_depth=40),
        replace(point, scale=0.03),
        replace(point, warmup=300),
        replace(point, seed=2),
        replace(point, arvi_config=ARVIConfig(sets=1024)),
        replace(point, speculation="wrongpath"),
    ]
    keys = {base} | {point_key(variant) for variant in variants}
    assert len(keys) == len(variants) + 1


def test_baseline_key_ignores_arvi_config():
    """The baseline configuration never consults ARVI, so attaching an
    ARVI config must not change its identity (no spurious recomputes)."""
    from dataclasses import replace

    from repro.core.arvi import ARVIConfig

    base = ExperimentPoint("li", "baseline", 20, **SMALL)
    with_cfg = replace(base, arvi_config=ARVIConfig(sets=1024))
    assert point_key(with_cfg) == point_key(base)
    assert with_cfg.resolve() == base.resolve()


def test_key_covers_simulator_code(point, monkeypatch):
    """A different package-source fingerprint yields different keys, so
    editing the simulator can never replay stale cached results."""
    import repro.experiments.plan as plan_module

    base = point_key(point)
    monkeypatch.setattr(plan_module, "code_fingerprint",
                        lambda: "0" * 64)
    assert point_key(point) != base


#: Harness files a fingerprint must ignore, and simulator files it must
#: cover (paths relative to ``src/repro``).
HARNESS = ("fsio.py", "settings.py", "obs/ledger.py",
           "experiments/scheduler.py")
SIMULATOR = ("experiments/runner.py", "pipeline/engine.py")


def test_harness_edits_keep_the_code_fingerprint(tmp_path, monkeypatch):
    """Fingerprint a copy of the package: editing a harness file leaves
    the fingerprint (and so every cached result) valid; editing the
    simulator invalidates it."""
    import repro.experiments.plan as plan_module

    real = plan_module.code_fingerprint()
    copy = tmp_path / "repro"
    shutil.copytree(pathlib.Path(plan_module.__file__).parents[1], copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(plan_module, "__file__",
                        str(copy / "experiments" / "plan.py"))

    def fingerprint(edited=None) -> str:
        if edited is not None:
            with open(copy / edited, "a") as handle:
                handle.write("\n# edited\n")
        plan_module.code_fingerprint.cache_clear()
        return plan_module.code_fingerprint()

    try:
        base = fingerprint()
        assert base == real
        for rel in HARNESS:
            assert fingerprint(rel) == base, rel
        for rel in SIMULATOR:
            assert fingerprint(rel) != base, rel
            base = fingerprint()
    finally:
        monkeypatch.undo()
        plan_module.code_fingerprint.cache_clear()


def test_key_resolves_environment(point, monkeypatch):
    """An unresolved point keys against the active REPRO_* environment."""
    bare = ExperimentPoint("li", "current", 20)
    monkeypatch.setenv("REPRO_SCALE", "0.02")
    monkeypatch.setenv("REPRO_WARMUP", "200")
    assert point_key(bare) == point_key(point)
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    assert point_key(bare) != point_key(point)
