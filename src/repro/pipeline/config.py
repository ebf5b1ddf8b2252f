"""Machine and predictor configuration (paper Tables 2 and 4).

``MachineConfig`` mirrors Table 2 of the paper; ``machine_for_depth``
builds the 20/40/60-stage machines with access latencies that scale with
pipeline length.  The exact latency digits in Table 2 were corrupted in the
text extraction; the values here follow the paper's stated rule (latencies
grow with pipeline depth, motivated by Agarwal et al., ISCA 2000) and are
recorded as a substitution in DESIGN.md.

``PredictorLatencies`` mirrors Table 4: a 32 KB level-2 hybrid at
{2, 4, 6} cycles and a comparably sized ARVI at {6, 12, 18} cycles for the
three machines (the 4 KB level-1 2Bc-gskew answers in one cycle, which
fetch absorbs).  Table 2's 4-entry fetch queue and floating-point units
are printed by :func:`table2_rows` but not modelled: no workload issues
an FP instruction and fetch feeds rename directly (DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.isa.instructions import NUM_LOGICAL_REGS

PIPELINE_DEPTHS = (20, 40, 60)

#: Valid ``MachineConfig.speculation`` values: ``redirect`` is the seed's
#: accounting model (no wrong-path instructions), ``wrongpath`` materializes
#: the wrong-path stream with checkpoint/rollback recovery (DESIGN.md §2.2).
SPECULATION_MODES = ("redirect", "wrongpath")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and hit latency of one cache level."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int
    hit_latency: int

    def __post_init__(self) -> None:
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError(f"{self.name}: size not divisible by way size")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(frozen=True)
class TLBConfig:
    """TLB geometry (Table 2: 8 KB pages, 30-cycle miss)."""

    name: str
    entries: int
    assoc: int
    page_bytes: int = 8192
    miss_penalty: int = 30

    @property
    def num_sets(self) -> int:
        return self.entries // self.assoc


@dataclass(frozen=True)
class PredictorLatencies:
    """Paper Table 4: second-level predictor access times."""

    level2_hybrid: int = 2
    level2_arvi: int = 6


@dataclass(frozen=True)
class MachineConfig:
    """Paper Table 2 plus the structures the DDT/ARVI hardware needs."""

    pipeline_depth: int = 20          # stages, fetch through execute
    fetch_width: int = 4
    commit_width: int = 4
    rob_entries: int = 256
    lsq_entries: int = 32
    int_alus: int = 4
    int_muldiv: int = 1
    dcache_ports: int = 2
    alu_latency: int = 1
    mult_latency: int = 3
    div_latency: int = 20
    icache: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L1I", 64 * 1024, 4, 32, 2))
    dcache: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L1D", 64 * 1024, 4, 32, 2))
    l2cache: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L2", 512 * 1024, 4, 64, 12))
    itlb: TLBConfig = field(default_factory=lambda: TLBConfig("ITLB", 64, 4))
    dtlb: TLBConfig = field(default_factory=lambda: TLBConfig("DTLB", 128, 4))
    memory_latency: int = 60
    predictor_latencies: PredictorLatencies = field(
        default_factory=PredictorLatencies)
    # Speculation model (DESIGN.md §2.2): "redirect" keeps the seed's
    # accounting (bit-for-bit unchanged results); "wrongpath" materializes
    # wrong-path fetch with checkpoint/rollback recovery.
    speculation: str = "redirect"
    # Safety cap on wrong-path instructions per episode, on top of the
    # fetch-bandwidth x resolve-delay window (ROB-sized by default).
    wrongpath_fetch_limit: int = 256

    def __post_init__(self) -> None:
        # Both timing tiers size their bandwidth cursors, occupancy
        # windows and unit pools from these without checking them.
        for name in ("fetch_width", "commit_width", "rob_entries",
                     "lsq_entries", "int_alus", "int_muldiv",
                     "dcache_ports"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}")
        if self.speculation not in SPECULATION_MODES:
            raise ValueError(
                f"speculation must be one of {SPECULATION_MODES}, "
                f"got {self.speculation!r}")

    @property
    def num_phys_regs(self) -> int:
        """Logical + ROB registers: the rename free list never runs dry.

        Early rename maps every ROB entry.  Outside the free list are the
        32 mapped registers plus one displaced register per destination
        writer in flight, so the list holds ``rob_entries - writers``.
        The ROB stall keeps fewer than ``rob_entries`` instructions in
        flight when one renames, and a wrong-path episode renames at most
        ``rob_entries - in_flight`` instructions, so neither the engine,
        its episodes nor the kernel checks the free list: an empty
        ``deque.popleft()`` would still fail loudly.
        """
        return NUM_LOGICAL_REGS + self.rob_entries

    @property
    def frontend_depth(self) -> int:
        """Cycles from fetch to earliest dispatch (depth minus execute)."""
        return max(2, self.pipeline_depth - 2)

    @property
    def rename_offset(self) -> int:
        """Cycles from fetch to rename; the paper renames early (at fetch)
        so that the DDT is updated in the first pipeline stages."""
        return 1


# Per-depth latency scaling: (L1 hit, L2 hit, memory, L2-hybrid predictor,
# ARVI predictor).  The ARVI latencies are stated exactly in the paper
# ("2, 4, and 6 cycles" for the BVIT RAM; ARVI total 6/12/18 with the
# staging of Figure 2).
_DEPTH_LATENCIES = {
    20: (2, 12, 60, 2, 6),
    40: (4, 16, 100, 4, 12),
    60: (6, 20, 140, 6, 18),
}


def machine_for_depth(depth: int, **overrides) -> MachineConfig:
    """Build the paper's machine for a 20/40/60-stage pipeline."""
    if depth not in _DEPTH_LATENCIES:
        raise ValueError(
            f"depth must be one of {sorted(_DEPTH_LATENCIES)}, got {depth}")
    l1, l2, mem, hyb, arvi = _DEPTH_LATENCIES[depth]
    config = MachineConfig(
        pipeline_depth=depth,
        icache=CacheConfig("L1I", 64 * 1024, 4, 32, l1),
        dcache=CacheConfig("L1D", 64 * 1024, 4, 32, l1),
        l2cache=CacheConfig("L2", 512 * 1024, 4, 64, l2),
        memory_latency=mem,
        predictor_latencies=PredictorLatencies(
            level2_hybrid=hyb, level2_arvi=arvi),
    )
    if overrides:
        config = replace(config, **overrides)
    return config


def table2_rows(config: MachineConfig) -> list[tuple[str, str]]:
    """Render the machine as the rows of paper Table 2."""
    caches = (config.icache, config.dcache, config.l2cache)
    return [
        ("Fetch queue", "4 entries"),
        ("Fetch, decode width", f"{config.fetch_width} instructions"),
        ("ROB entries", str(config.rob_entries)),
        ("Load/Store queue entries", str(config.lsq_entries)),
        ("Integer units", f"{config.int_alus} ALUs, {config.int_muldiv} mult/div"),
        ("Floating point units", "4 ALUs, 1 mult/div"),
        ("Instruction TLB",
         f"{config.itlb.entries} ({config.itlb.num_sets}x{config.itlb.assoc}-way)"
         f" 8K pages, {config.itlb.miss_penalty} cycle miss"),
        ("Data TLB",
         f"{config.dtlb.entries} ({config.dtlb.num_sets}x{config.dtlb.assoc}-way)"
         f" 8K pages, {config.dtlb.miss_penalty} cycle miss"),
    ] + [
        (cache.name,
         f"{cache.size_bytes // 1024} KB, {cache.assoc}-way, "
         f"{cache.line_bytes}B line, {cache.hit_latency} cycles")
        for cache in caches
    ] + [
        ("Memory latency", f"{config.memory_latency} cycles initial"),
        ("Pipeline depth", f"{config.pipeline_depth} stages"),
        ("Speculation", config.speculation
         + (f" (wrong-path fetch limit {config.wrongpath_fetch_limit})"
            if config.speculation == "wrongpath" else "")),
    ]


def table4_rows() -> list[tuple[str, str, int, int, int]]:
    """Paper Table 4: (predictor, size, 20-, 40-, 60-stage latency)."""
    latencies = {d: _DEPTH_LATENCIES[d] for d in PIPELINE_DEPTHS}
    return [
        ("Level-1 hybrid", "4 KB", 1, 1, 1),
        ("Level-2 hybrid", "32 KB",
         latencies[20][3], latencies[40][3], latencies[60][3]),
        ("Level-2 ARVI", "32 KB",
         latencies[20][4], latencies[40][4], latencies[60][4]),
    ]
