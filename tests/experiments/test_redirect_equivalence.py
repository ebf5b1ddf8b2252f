"""Speculation-off equivalence guard.

``speculation="redirect"`` (the default) must produce results bit-for-bit
equal to the seed engine: the speculation subsystem may add knobs and
counters, but it must never silently drift the paper figures.  The golden
file was generated by the *pre-subsystem* engine (PR 1 tree) over a small
benchmark x configuration x depth grid; every field it records must match
a fresh run exactly.  If a future change legitimately alters simulation
outcomes, regenerate the goldens in the same PR and say so — this test
exists to make that an explicit decision rather than an accident.

The first test runs each spec on the live engine (``trace=False``); the
kernel test replays the same specs through the compiled kernel, which
ties the kernel to the seed engine's numbers rather than only to the
live engine of the same commit.
"""

import json
import pathlib

import pytest

from repro.experiments.plan import ExperimentPoint, point_key
from repro.experiments import runner
from repro.experiments.runner import execute_point, run_point, run_suite
from repro.pipeline.trace import TraceRecorder
from repro.workloads.registry import get_program

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_redirect.json")
GOLDEN_SCALE = 0.05
GOLDEN_WARMUP = 500


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def mismatches(expected: dict, actual: dict, prefix: str = "") -> list:
    """Recursively compare every golden field against the fresh result.

    The fresh result may carry *extra* fields (the speculation counters
    post-date the goldens); every field the golden records must be equal.
    """
    bad = []
    for key, value in expected.items():
        if isinstance(value, dict):
            bad.extend(mismatches(value, actual[key], f"{prefix}{key}."))
        elif actual[key] != value:
            bad.append((f"{prefix}{key}", value, actual[key]))
    return bad


class TestRedirectEquivalence:
    @pytest.mark.parametrize("spec", sorted(load_golden()))
    def test_redirect_matches_seed_golden(self, spec):
        benchmark, configuration, depth = spec.split("/")
        point = ExperimentPoint(benchmark, configuration,
                                int(depth)).resolve(
            scale=GOLDEN_SCALE, warmup=GOLDEN_WARMUP, seed=1)
        result = execute_point(point, trace=False)
        bad = mismatches(load_golden()[spec], result.to_dict())
        assert not bad, f"{spec} drifted from seed behaviour: {bad}"

    def test_kernel_replay_matches_seed_golden(self, monkeypatch):
        replays = []
        real = runner.kernel_run

        def counting(*args, **kwargs):
            replays.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "kernel_run", counting)
        golden = load_golden()
        traces = {}
        drifted = {}
        for spec in sorted(golden):
            benchmark, configuration, depth = spec.split("/")
            if benchmark not in traces:  # one shared recording per workload
                traces[benchmark] = TraceRecorder(get_program(
                    benchmark, scale=GOLDEN_SCALE, seed=1)).record()
            point = ExperimentPoint(benchmark, configuration,
                                    int(depth)).resolve(
                scale=GOLDEN_SCALE, warmup=GOLDEN_WARMUP, seed=1)
            result = execute_point(point, trace=traces[benchmark])
            bad = mismatches(golden[spec], result.to_dict())
            if bad:
                drifted[spec] = bad
        assert not drifted, f"kernel drifted from seed behaviour: {drifted}"
        assert len(replays) == len(golden)      # every spec on the kernel

    def test_redirect_runs_report_no_speculation_activity(self):
        result = run_point(ExperimentPoint("m88ksim", "baseline", 20),
                           scale=GOLDEN_SCALE, warmup=GOLDEN_WARMUP)
        assert result.speculation == "redirect"
        assert result.wrong_path_instructions == 0
        assert result.rollbacks == 0
        assert result.squashed_tokens == 0
        assert result.memory.wrong_path_l1i_accesses == 0
        assert result.memory.wrong_path_l1d_accesses == 0


class TestSpeculationInTheService:
    def test_speculation_mode_forks_the_cache_key(self):
        redirect = ExperimentPoint("m88ksim", "baseline", 20,
                                   scale=1.0, warmup=0)
        wrongpath = ExperimentPoint("m88ksim", "baseline", 20,
                                    scale=1.0, warmup=0,
                                    speculation="wrongpath")
        assert point_key(redirect) != point_key(wrongpath)
        assert point_key(redirect) == point_key(
            ExperimentPoint("m88ksim", "baseline", 20, scale=1.0, warmup=0,
                            speculation="redirect"))

    def test_resolve_preserves_speculation(self):
        point = ExperimentPoint("m88ksim", "baseline", 20,
                                speculation="wrongpath")
        resolved = point.resolve(scale=0.1, warmup=100)
        assert resolved.speculation == "wrongpath"
        # The baseline ARVI-config strip must not touch the mode either.
        assert point.resolve(scale=0.1, warmup=100,
                             speculation="redirect").speculation == "redirect"

    def test_unknown_speculation_mode_rejected(self):
        point = ExperimentPoint("m88ksim", "baseline", 20,
                                speculation="sideways")
        with pytest.raises(ValueError, match="speculation"):
            point.resolve(scale=0.1, warmup=100).validate()

    def test_suite_runs_in_both_modes(self):
        kwargs = dict(configurations=("baseline",), depths=(20,),
                      benchmarks=("m88ksim",), scale=GOLDEN_SCALE,
                      warmup=GOLDEN_WARMUP, jobs=1, use_cache=False)
        redirect = run_suite(speculation="redirect", **kwargs)
        wrongpath = run_suite(speculation="wrongpath", **kwargs)
        key = ("m88ksim", "baseline", 20)
        assert redirect[key].wrong_path_instructions == 0
        assert wrongpath[key].speculation == "wrongpath"
        assert wrongpath[key].wrong_path_instructions > 0
        assert wrongpath[key].rollbacks > 0

    def test_wrongpath_result_round_trips_losslessly(self):
        result = run_point(
            ExperimentPoint("m88ksim", "baseline", 20,
                            speculation="wrongpath"),
            scale=GOLDEN_SCALE, warmup=GOLDEN_WARMUP)
        from repro.pipeline.stats import SimulationResult
        assert SimulationResult.from_dict(result.to_dict()) == result
