"""Machine configuration (paper Tables 2/4) tests."""

import pytest

from repro.pipeline.config import (
    CacheConfig,
    MachineConfig,
    PredictorLatencies,
    TLBConfig,
    machine_for_depth,
    table2_rows,
    table4_rows,
)


class TestMachineForDepth:
    @pytest.mark.parametrize("depth", [20, 40, 60])
    def test_valid_depths(self, depth):
        config = machine_for_depth(depth)
        assert config.pipeline_depth == depth

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            machine_for_depth(30)

    def test_latencies_scale_with_depth(self):
        """Table 2: cache/memory latencies grow with pipeline length."""
        shallow, mid, deep = (machine_for_depth(d) for d in (20, 40, 60))
        assert (shallow.dcache.hit_latency < mid.dcache.hit_latency
                < deep.dcache.hit_latency)
        assert (shallow.l2cache.hit_latency < mid.l2cache.hit_latency
                < deep.l2cache.hit_latency)
        assert (shallow.memory_latency < mid.memory_latency
                < deep.memory_latency)

    def test_predictor_latencies_table4(self):
        """Table 4: ARVI is 6/12/18; hybrid 2/4/6."""
        for depth, hybrid, arvi in ((20, 2, 6), (40, 4, 12), (60, 6, 18)):
            lat = machine_for_depth(depth).predictor_latencies
            assert lat.level2_hybrid == hybrid
            assert lat.level2_arvi == arvi

    def test_overrides(self):
        config = machine_for_depth(20, rob_entries=64)
        assert config.rob_entries == 64
        assert config.pipeline_depth == 20

    @pytest.mark.parametrize("field", [
        "fetch_width", "commit_width", "rob_entries", "lsq_entries",
        "int_alus", "int_muldiv", "dcache_ports"])
    def test_widths_and_capacities_validated(self, field):
        with pytest.raises(ValueError, match=field):
            machine_for_depth(20, **{field: 0})


class TestTable2Values:
    def test_paper_parameters(self):
        config = machine_for_depth(20)
        assert config.fetch_width == 4
        assert config.rob_entries == 256
        assert config.lsq_entries == 32
        assert config.int_alus == 4
        assert config.int_muldiv == 1
        assert config.icache.size_bytes == 64 * 1024
        assert config.icache.assoc == 4
        assert config.icache.line_bytes == 32
        assert config.l2cache.size_bytes == 512 * 1024
        assert config.itlb.entries == 64
        assert config.dtlb.entries == 128
        assert config.itlb.miss_penalty == 30

    def test_physical_registers_cover_early_rename(self):
        """Early rename needs a physical register per ROB entry."""
        config = machine_for_depth(20)
        assert config.num_phys_regs == 32 + 256

    def test_frontend_depth(self):
        assert machine_for_depth(20).frontend_depth == 18
        assert machine_for_depth(60).frontend_depth == 58


class TestCacheConfig:
    def test_num_sets(self):
        cache = CacheConfig("x", 64 * 1024, 4, 32, 2)
        assert cache.num_sets == 512

    def test_geometry_validated(self):
        with pytest.raises(ValueError):
            CacheConfig("x", 1000, 3, 32, 1)

    def test_tlb_sets(self):
        assert TLBConfig("x", 64, 4).num_sets == 16


class TestRenderedTables:
    def test_table2_rows_cover_parameters(self):
        rows = dict(table2_rows(machine_for_depth(20)))
        assert rows["ROB entries"] == "256"
        assert "4 ALUs" in rows["Integer units"]
        assert "64 KB" in rows["L1I"]
        # Printed from the paper, not modelled (DESIGN.md §2).
        assert rows["Fetch queue"] == "4 entries"
        assert rows["Floating point units"] == "4 ALUs, 1 mult/div"

    def test_table4_rows(self):
        rows = {name: (l20, l40, l60)
                for name, _, l20, l40, l60 in table4_rows()}
        assert rows["Level-1 hybrid"] == (1, 1, 1)
        assert rows["Level-2 hybrid"] == (2, 4, 6)
        assert rows["Level-2 ARVI"] == (6, 12, 18)
