"""Workload correctness tests: halting, determinism, branch character."""

import pytest

from repro.pipeline.functional import FunctionalCore
from repro.workloads import BENCHMARKS, get_program, get_spec, table3_rows
from repro.workloads.common import scaled, skewed_bytes, rng_for

SMALL = 0.1


def run_stream(name, scale=SMALL, seed=1, limit=500_000):
    program = get_spec(name).instantiate(scale=scale, seed=seed)
    core = FunctionalCore(program)
    branches = total = taken = 0
    checksum = 0
    for dyn in core.run(limit):
        total += 1
        if dyn.is_cond_branch:
            branches += 1
            taken += bool(dyn.taken)
        if dyn.result is not None:
            checksum = (checksum * 31 + dyn.result) & 0xFFFFFFFF
    return core, total, branches, taken, checksum


class TestAllWorkloads:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_halts(self, name):
        core, total, *_ = run_stream(name)
        assert core.halted, f"{name} did not halt"
        assert total > 1000

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_deterministic(self, name):
        _, total1, _, _, checksum1 = run_stream(name)
        _, total2, _, _, checksum2 = run_stream(name)
        assert total1 == total2
        assert checksum1 == checksum2

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_seed_changes_behaviour(self, name):
        _, _, _, _, checksum1 = run_stream(name, seed=1)
        _, _, _, _, checksum2 = run_stream(name, seed=2)
        assert checksum1 != checksum2

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_branch_fraction_realistic(self, name):
        """SPECint-like kernels: 5%..35% conditional branches."""
        _, total, branches, _, _ = run_stream(name)
        fraction = branches / total
        assert 0.05 < fraction < 0.35, f"{name}: {fraction:.3f}"

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_branches_not_monotone(self, name):
        """Both directions must occur (no degenerate branch behaviour)."""
        _, _, branches, taken, _ = run_stream(name)
        assert 0 < taken < branches

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_scale_controls_length(self, name):
        _, small, *_ = run_stream(name, scale=SMALL)
        _, large, *_ = run_stream(name, scale=1.0, limit=1_000_000)
        assert large > small * 1.5


class TestRegistry:
    def test_all_eight_benchmarks(self):
        assert set(BENCHMARKS) == {
            "gcc", "compress", "go", "ijpeg", "li", "m88ksim", "perl",
            "vortex",
        }

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            get_spec("doom")

    def test_program_caching(self):
        first = get_program("li", scale=SMALL)
        second = get_program("li", scale=SMALL)
        assert first is second

    def test_table3_rows(self):
        rows = table3_rows()
        assert len(rows) == 8
        names = [row[0] for row in rows]
        assert "m88ksim" in names
        window = dict((row[0], row[2]) for row in rows)
        assert window["compress"] == "3000M-3100M"  # paper Table 3


class TestCommonHelpers:
    def test_scaled_minimum(self):
        assert scaled(10, 0.0) == 1
        assert scaled(10, 2.0) == 20

    def test_skewed_bytes_properties(self):
        data = skewed_bytes(rng_for(1, "test"), 500)
        assert len(data) == 500
        assert all(1 <= byte <= 26 for byte in data)
        # Phrase repetition: distinct values well below stream length.
        assert len(set(data)) < 60

    def test_rng_streams_independent(self):
        a = rng_for(1, "a").random()
        b = rng_for(1, "b").random()
        assert a != b


class TestM88ksimStructure:
    def test_walk_branch_labels_exist(self):
        program = get_program("m88ksim", scale=SMALL)
        assert "walk" in program.labels
        assert "lookupdisasm" in program.labels

    def test_value_determined_exits(self):
        """Same key must always walk the same number of iterations."""
        program = get_spec("m88ksim").instantiate(scale=SMALL, seed=1)
        core = FunctionalCore(program)
        walk_pc = program.labels["walk"]
        key_iters: dict[int, set[int]] = {}
        current_key = None
        iters = 0
        for dyn in core.run(300_000):
            if dyn.pc == program.labels["lookupdisasm"]:
                current_key = dyn.sval1  # andi reads the key in a0
                iters = 0
            if dyn.pc == walk_pc:
                iters += 1
            if dyn.inst.op.name == "JR" and current_key is not None:
                key_iters.setdefault(current_key, set()).add(iters)
                current_key = None
        assert key_iters
        for key, counts in key_iters.items():
            assert len(counts) == 1, f"key {key} varied: {counts}"
