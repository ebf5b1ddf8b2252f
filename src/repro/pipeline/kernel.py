"""Compiled replay kernel: lower a committed trace once, replay it fast.

Every redirect timing point of a workload sweeps the same committed
instruction stream (recorded once by :mod:`repro.pipeline.trace`)
through a different machine.  A :class:`LoweredTrace` converts the
:class:`~repro.pipeline.trace.CommittedTrace` columns into dense
per-instruction lists plus precomputed metadata, **once per workload
identity**, shared read-only by every redirect timing point of a batch:

* a per-instruction *kernel class* (ALU / frontend-other / load /
  store / mult / div / conditional branch), fused per L1I/ITLB geometry
  with the I-fetch stream: in redirect mode both are private to fetch
  and accessed in program order, so whether each new fetch line misses
  either is timing-independent (:class:`_FetchStream`; only the L1I
  misses reach the shared L2, which runs live),
* dependence distances from a one-shot DDT-style last-writer pass
  (``dep1``/``dep2`` name the producing *stream index* of each source
  register — exactly what renamed physical-register readiness resolves
  to in the engine, see DESIGN.md §10),
* store-forwarding sources per memory op (the latest prior store to the
  same word — the engine's ``pending_stores`` dict, precomputed),
* ROB/LSQ occupancy metadata (memory-op stream positions, so the
  occupancy heads are plain list lookups per config),
* prefix sums for the measured-window load/store statistics, the RAS
  accuracy stream, and per-predictor-kind branch decision streams (the
  two-level gskew interplay is timing-independent, so its outcome
  sequence is simulated once and shared across every config).

:func:`kernel_run` then evaluates one timing configuration as a lean
pass over the lowered form: the same fetch/issue/commit arithmetic as
:meth:`~repro.pipeline.engine.PipelineEngine.run`, stage for stage,
minus everything that cannot affect a redirect-mode result.  For the
hybrid/none kinds that strips *all* rename/DDT/RSE/shadow maintenance
(their decisions precompute into shared streams); for the ARVI kinds a
fused pass (DESIGN.md §13) keeps exactly the state the BVIT lookup keys
read — the DDT retirement window, pending/shadow register values and
load-hoist times, which are timing-*dependent* per configuration — as
plain local ints and lists (the DDT rows and the RSE register sets are
int bitmasks, the BVIT a list of dicts), and reuses precomputed
level-1/confidence streams.  Results are
**bit-for-bit equal** to the live engine (the independent oracle) —
enforced by the equality suites (``tests/pipeline/test_kernel.py``,
``tests/pipeline/test_kernel_arvi.py``) and by the frozen seed goldens
(``tests/experiments/test_redirect_equivalence.py``).

Anything the lowered form cannot express raises
:class:`KernelUnsupported` — ``wrongpath`` speculation (needs live
architectural state) and non-standard predictor stacks; the experiment
service never routes those here.  A budget that would step past a
truncated recording raises :class:`~repro.pipeline.trace.TraceError`
instead of silently running shorter.  Which path ran is observable as
the point's ``replay`` or ``live`` ledger phase (see
:func:`~repro.experiments.runner.execute_point`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from heapq import heappop, heappush

from repro.core.arvi import ARVIConfig, ValueMode
from repro.core.bvit import COUNTER_MAX, PERF_INIT, PERF_MAX
from repro.isa import regs
from repro.isa.decoded import (
    FU_ALU as K_ALU,
    FU_DIV as K_DIV,
    FU_LOAD as K_LOAD,
    FU_MULT as K_MULT,
    FU_OTHER as K_OTHER,
    FU_STORE as K_STORE,
    KCLASS_BRANCH as K_BRANCH,
    RAS_PUSH,
)
from repro.isa.instructions import NUM_LOGICAL_REGS
from repro.isa.program import DATA_BASE, STACK_TOP, Program
from repro.pipeline.caches import TLB, MemoryHierarchy, SetAssociativeCache
from repro.pipeline.config import MachineConfig
from repro.pipeline.functional import DEFAULT_MAX_INSTRUCTIONS
from repro.pipeline.rename import RenameError
from repro.pipeline.stats import BranchClassStats, SimulationResult
from repro.pipeline.trace import CommittedTrace, TraceError
from repro.predictors.confidence import ConfidenceEstimator
from repro.predictors.gskew import level1_gskew, level2_gskew
from repro.predictors.twolevel import LevelTwoKind

__all__ = [
    "KernelUnsupported",
    "LoweredTrace",
    "ensure_lowered",
    "is_lowered",
    "kernel_run",
]

#: Fetch-miss flags folded into the per-geometry fused codes (``code &
#: 7`` recovers the kernel class — FU_* 0-5 plus KCLASS_BRANCH, see
#: DecodedProgram.static_columns): the instruction's fetch starts a new
#: I-cache line and misses the ITLB / the L1I there.
_ITLB_MISS = 8
_L1I_MISS = 16
_FETCH_MISS = _ITLB_MISS | _L1I_MISS

_REDIRECT_LATENCY = 1  # keep in sync with pipeline.engine

#: The ARVI pass shifts its DDT rows down to the oldest in-flight token
#: once the newest token is this far above the rows' base (FastDDT's
#: renormalization interval).
_RENORM = 4096

#: A cycle no fetch reaches: when a pending value no mode exposes
#: becomes available.
_NEVER = 1 << 62


def _bvit_age(entry: list[int]) -> list[int]:
    """BVIT replacement order of a ``[tag, counter, perf, last_used]``
    entry: the lowest ``(perf, last_used)`` is evicted."""
    return entry[2:]


_SUPPORTED_KINDS = (LevelTwoKind.HYBRID, LevelTwoKind.NONE,
                    LevelTwoKind.ARVI)

#: Level-2 kinds whose branch decisions are fully timing-independent and
#: therefore precompute into shared :class:`_BranchStreams` — the form
#: the flattened stream loop replays.  ARVI
#: is supported by :func:`kernel_run` but runs its own fused pass: only
#: its level-1/confidence streams are timing-independent; the BVIT/RSE
#: side reads live DDT and register-timing state per configuration.
_STREAM_KINDS = (LevelTwoKind.HYBRID, LevelTwoKind.NONE)


class KernelUnsupported(RuntimeError):
    """The kernel cannot express this configuration (run it on the live
    engine instead; never silently diverge)."""


class _BranchStreams:
    """Per-predictor-kind branch decision streams and stat prefix sums.

    The two-level hybrid's decisions depend only on the (pc, taken)
    branch sequence — never on cycle timing — so one pass over the
    recorded outcomes yields, for every branch *j* of the stream:
    whether the final prediction was wrong (``bad``, a redirect), and
    whether level 2 overrode level 1 (``override``, a fetch bubble on a
    correct final prediction).  The cumulative arrays turn the engine's
    measured-window branch statistics into prefix-sum differences.
    """

    __slots__ = ("bad", "override", "cum_final", "cum_l1", "cum_override",
                 "cum_helpful", "cum_harmful")

    def __init__(self, bpcs: list[int], btaken: list[bool],
                 kind: LevelTwoKind) -> None:
        hybrid = kind is LevelTwoKind.HYBRID
        level1 = level1_gskew()
        level2 = level2_gskew() if hybrid else None
        bad: list[bool] = []
        override: list[bool] = []
        cf = [0]
        cl1 = [0]
        cov = [0]
        chp = [0]
        chm = [0]
        for pc, taken in zip(bpcs, btaken):
            l1_pred = level1.predict(pc)
            if hybrid:
                l2_pred = level2.predict(pc)
                used = l2_pred != l1_pred
                final = l2_pred if used else l1_pred
            else:
                used = False
                final = l1_pred
            final_correct = final == taken
            l1_correct = l1_pred == taken
            bad.append(not final_correct)
            override.append(used)
            cf.append(cf[-1] + final_correct)
            cl1.append(cl1[-1] + l1_correct)
            cov.append(cov[-1] + used)
            chp.append(chp[-1] + (used and final_correct and not l1_correct))
            chm.append(chm[-1] + (used and l1_correct and not final_correct))
            level1.update(pc, taken)
            if hybrid:
                level2.update(pc, taken)
        self.bad = bad
        self.override = override
        self.cum_final = cf
        self.cum_l1 = cl1
        self.cum_override = cov
        self.cum_helpful = chp
        self.cum_harmful = chm


class _ARVIPreStreams:
    """Timing-independent per-branch ARVI inputs, shared across configs.

    For the ARVI configurations only the level-1 gskew prediction and
    the confidence verdict are timing-independent: both consume nothing
    but the committed (pc, taken) branch sequence, and each branch's
    predict immediately precedes its own train in program order (no
    other instruction touches either structure).  The BVIT/RSE side is
    *not* precomputable — its lookup keys read the live DDT retirement
    window, shadow values and load-hoist timing, which differ per
    machine configuration — so :func:`kernel_run` replays it live in
    the fused ARVI pass while reusing these streams.
    """

    __slots__ = ("l1_pred", "confident")

    def __init__(self, bpcs: list[int], btaken: list[bool]) -> None:
        level1 = level1_gskew()
        confidence = ConfidenceEstimator()
        l1_predict = level1.predict
        l1_update = level1.update
        is_confident = confidence.is_confident
        conf_update = confidence.update
        l1_pred: list[bool] = []
        confident: list[bool] = []
        for pc, taken in zip(bpcs, btaken):
            l1 = l1_predict(pc)
            l1_pred.append(l1)
            confident.append(is_confident(pc))
            l1_update(pc, taken)
            conf_update(pc, l1 == taken, taken)
        self.l1_pred = l1_pred
        self.confident = confident


class _FetchStream:
    """The I-fetch stream of one trace under one L1I/ITLB geometry.

    In redirect mode the L1I and the ITLB are private to fetch, and fetch
    accesses them in program order — once per new I-cache line — so
    their hit/miss sequence depends on the trace and the geometry alone.
    One pass through a real :class:`SetAssociativeCache` and :class:`TLB`
    folds the outcome of every line fetch into the fused ``codes``;
    the kernel then calls the shared L2 (whose state the D-side also
    drives) live on exactly the L1I misses, and sets the L1I/ITLB
    counters from the position lists.
    """

    __slots__ = ("codes", "line_pos", "l1i_miss_pos", "itlb_miss_pos")

    def __init__(self, lowered: "LoweredTrace",
                 config: MachineConfig) -> None:
        l1i = SetAssociativeCache(config.icache)
        itlb = TLB(config.itlb)
        line_mask = ~(config.icache.line_bytes - 1)
        codes = list(lowered.kclass)
        line_pos: list[int] = []
        l1i_miss_pos: list[int] = []
        itlb_miss_pos: list[int] = []
        last = -1
        for i, pc in enumerate(lowered.pcs):
            byte_pc = pc * 4
            line = byte_pc & line_mask
            if line == last:
                continue
            last = line
            line_pos.append(i)
            if itlb.access(byte_pc):
                codes[i] |= _ITLB_MISS
                itlb_miss_pos.append(i)
            if not l1i.access(byte_pc):
                codes[i] |= _L1I_MISS
                l1i_miss_pos.append(i)
        self.codes = codes
        self.line_pos = line_pos
        self.l1i_miss_pos = l1i_miss_pos
        self.itlb_miss_pos = itlb_miss_pos

    def count_into(self, memory: MemoryHierarchy, n_run: int) -> None:
        """Set ``memory``'s L1I/ITLB counters for the first ``n_run``
        instructions (the accesses the kernel did not make live)."""
        lines = bisect_left(self.line_pos, n_run)
        misses = bisect_left(self.l1i_miss_pos, n_run)
        memory.l1i.hits = lines - misses
        memory.l1i.misses = misses
        misses = bisect_left(self.itlb_miss_pos, n_run)
        memory.itlb.hits = lines - misses
        memory.itlb.misses = misses


class LoweredTrace:
    """Dense array form of one committed trace, shared across configs."""

    __slots__ = (
        "program", "trace", "length",
        "pcs", "kclass", "dep1", "dep2",
        "mem_pos", "mem_addr", "store_dep",
        "load_prefix", "store_prefix",
        "branch_pos", "branch_pcs", "branch_taken",
        "jr_pos", "jr_correct_cum", "_hasres",
        "_fetch", "_streams", "_values", "_arvi_pre",
    )

    # -- derived caches ------------------------------------------------------

    def fetch_stream(self, config: MachineConfig) -> _FetchStream:
        """The I-fetch stream for ``config``'s L1I/ITLB geometry (cached,
        keyed by every field the hit/miss sequence depends on)."""
        icache = config.icache
        itlb = config.itlb
        key = (icache.line_bytes, icache.num_sets, icache.assoc,
               itlb.page_bytes, itlb.num_sets, itlb.assoc)
        stream = self._fetch.get(key)
        if stream is None:
            stream = _FetchStream(self, config)
            self._fetch[key] = stream
        return stream

    def streams_for(self, kind: LevelTwoKind) -> _BranchStreams:
        """Branch decision streams for one level-2 kind (cached)."""
        streams = self._streams.get(kind)
        if streams is None:
            if kind not in _STREAM_KINDS:
                raise KernelUnsupported(
                    f"replay of {self.program.name!r}: level-2 kind "
                    f"{kind.value!r} has no precomputable decision stream "
                    "(its decisions read live DDT/timing state)")
            streams = _BranchStreams(self.branch_pcs, self.branch_taken,
                                     kind)
            self._streams[kind] = streams
        return streams

    def values(self) -> list[int]:
        """Dense committed result values, one entry per instruction.

        ``values()[i]`` is the committed result of instruction *i* (the
        engine's ``dyn.result``) or 0 when the opcode produces none —
        the densification of the trace's sparse ``results`` column via
        the static ``has_result`` table.  Built lazily (only the ARVI
        pass reads values) and cached for every config of a batch.
        """
        vals = self._values
        if vals is not None:
            return vals
        results = self.trace.results
        hasres_tab = self._hasres
        vals = [0] * self.length
        ri = 0
        try:
            for i, pc in enumerate(self.pcs):
                if hasres_tab[pc]:
                    vals[i] = results[ri]
                    ri += 1
        except IndexError:
            ri = -1
        if ri != len(results):
            raise TraceError(
                f"trace of {self.trace.program_name!r} is internally "
                "inconsistent (column lengths do not match the stream)")
        self._values = vals
        return vals

    def arvi_prestreams(self) -> _ARVIPreStreams:
        """Shared level-1/confidence streams for the ARVI pass (cached)."""
        pre = self._arvi_pre
        if pre is None:
            pre = _ARVIPreStreams(self.branch_pcs, self.branch_taken)
            self._arvi_pre = pre
        return pre


def _lower(program: Program, trace: CommittedTrace) -> LoweredTrace:
    trace.validate_for(program)
    cls_tab, src1_tab, src2_tab, wr_tab, ras_tab, hasres_tab = \
        program.decoded().static_columns()
    n = trace.length
    branches = trace.branch_count
    pcs_list = trace.pcs.tolist()

    lowered = LoweredTrace.__new__(LoweredTrace)
    lowered.program = program
    lowered.trace = trace
    lowered.length = n
    lowered.pcs = pcs_list
    lowered._hasres = hasres_tab
    lowered._fetch = {}
    lowered._streams = {}
    lowered._values = None
    lowered._arvi_pre = None

    kclass = [cls_tab[pc] for pc in pcs_list]
    lowered.kclass = kclass
    load_prefix = [0] * (n + 1)
    store_prefix = [0] * (n + 1)
    mem_pos: list[int] = []
    branch_pos: list[int] = []
    branch_pcs: list[int] = []
    loads = stores = 0
    for i, k in enumerate(kclass):
        if k == K_LOAD:
            loads += 1
            mem_pos.append(i)
        elif k == K_STORE:
            stores += 1
            mem_pos.append(i)
        elif k == K_BRANCH:
            branch_pos.append(i)
            branch_pcs.append(pcs_list[i])
        load_prefix[i + 1] = loads
        store_prefix[i + 1] = stores
    lowered.load_prefix = load_prefix
    lowered.store_prefix = store_prefix
    lowered.mem_pos = mem_pos
    lowered.branch_pos = branch_pos
    lowered.branch_pcs = branch_pcs
    taken_bits = trace.taken_bits
    lowered.branch_taken = [
        bool((taken_bits[j >> 3] >> (j & 7)) & 1)
        for j in range(branches)]
    ras_events = [i for i, pc in enumerate(pcs_list) if ras_tab[pc]]

    if (len(lowered.branch_pos) != branches
            or len(lowered.mem_pos) != len(trace.addrs)):
        raise TraceError(
            f"trace of {trace.program_name!r} is internally inconsistent "
            "(column lengths do not match the stream)")

    # One-shot DDT-style dependence pass: each source register resolves
    # to the stream index of its last prior writer (the instruction whose
    # physical destination register the engine's rename map would read).
    dep1 = [-1] * n
    dep2 = [-1] * n
    last_writer = [-1] * 32
    for i, pc in enumerate(pcs_list):
        src = src1_tab[pc]
        if src >= 0:
            dep1[i] = last_writer[src]
        src = src2_tab[pc]
        if src >= 0:
            dep2[i] = last_writer[src]
        dest = wr_tab[pc]
        if dest >= 0:
            last_writer[dest] = i
    lowered.dep1 = dep1
    lowered.dep2 = dep2

    # Store-forwarding sources: for each load, the stream index of the
    # latest prior store to the same word — the engine's never-cleared
    # ``pending_stores`` dict, resolved ahead of time.
    mem_addr = trace.addrs.tolist()
    lowered.mem_addr = mem_addr
    store_dep = [-1] * len(mem_addr)
    last_store: dict[int, int] = {}
    for m, pos in enumerate(lowered.mem_pos):
        word = mem_addr[m] & ~3
        if kclass[pos] == K_LOAD:
            store_dep[m] = last_store.get(word, -1)
        else:
            last_store[word] = pos
    lowered.store_dep = store_dep

    # Return-address-stack accuracy stream (depth 16, circular overwrite
    # on overflow, underflow pops count as incorrect — predictors/ras.py
    # semantics).  The stack evolves forward only, so every prefix of
    # the stream is valid for budget-truncated replays.
    jr_pos: list[int] = []
    jr_correct_cum = [0]
    stack: list[int] = []
    final_next_pc = trace.final_next_pc
    for pos in ras_events:
        pc = pcs_list[pos]
        if ras_tab[pc] == RAS_PUSH:
            if len(stack) >= 16:
                stack.pop(0)
            stack.append(pc + 1)
        else:
            target = pcs_list[pos + 1] if pos + 1 < n else final_next_pc
            correct = bool(stack) and stack.pop() == target
            jr_pos.append(pos)
            jr_correct_cum.append(jr_correct_cum[-1] + correct)
    lowered.jr_pos = jr_pos
    lowered.jr_correct_cum = jr_correct_cum
    return lowered


def is_lowered(trace: CommittedTrace, program: Program | None = None) -> bool:
    """Whether ``trace`` already carries a (matching) lowered form."""
    cached = trace._lowered_cache
    if cached is None:
        return False
    return program is None or cached.program is program


def ensure_lowered(program: Program, trace: CommittedTrace) -> LoweredTrace:
    """Lower (and cache) ``trace`` for ``program``.

    The lowered form is built once per (trace, program) pair and shared
    read-only by every replay of the trace — a batch of redirect timing
    points pays the lowering cost exactly once per workload identity.
    """
    cached = trace._lowered_cache
    if cached is not None and cached.program is program:
        return cached
    lowered = _lower(program, trace)
    trace._lowered_cache = lowered
    return lowered


def kernel_run(program: Program, trace: CommittedTrace,
               config: MachineConfig,
               kind: LevelTwoKind = LevelTwoKind.HYBRID, *,
               warmup_instructions: int = 0,
               max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
               value_mode: ValueMode = ValueMode.CURRENT,
               arvi_config: ARVIConfig | None = None,
               ) -> SimulationResult:
    """Replay one timing configuration over the lowered trace.

    Produces a :class:`SimulationResult` bit-for-bit equal to the live
    ``PipelineEngine(program, config, build_predictor(kind, config,
    arvi_config), value_mode=..., warmup_instructions=...)
    .run(max_instructions)`` for every supported configuration (``trace``
    must be ``program``'s recorded committed stream); raises
    :class:`KernelUnsupported` for anything else.  The L1D, DTLB and L2
    run live, in the engine's exact access order — the shared L2 couples
    I-side and D-side state, and store-forwarding outcomes depend on
    per-config timing, so their latencies cannot be precomputed.  The
    L1I and ITLB outcomes come from the trace's shared fetch stream for
    the configuration's geometry; only L1I misses access the L2.

    ``LevelTwoKind.ARVI`` (``value_mode`` / ``arvi_config`` select the
    paper's evaluation configurations) runs the fused ARVI pass: the
    shared level-1/confidence streams are precomputed once per trace,
    while the DDT/RSE/BVIT machinery replays live per configuration —
    its lookup keys depend on per-config retirement timing.
    """
    if config.speculation != "redirect":
        raise KernelUnsupported(
            f"replay of {trace.program_name!r}: the replay kernel models "
            "redirect speculation only; wrongpath synthesis reads live "
            "architectural state")
    if kind not in _SUPPORTED_KINDS:
        raise KernelUnsupported(
            f"replay of {trace.program_name!r}: the replay kernel cannot "
            f"express level-2 kind {kind.value!r}")
    lowered = ensure_lowered(program, trace)
    n = lowered.length
    if max_instructions > n and not trace.halted:
        # A budget past a truncated recording is an error, never a
        # silently shorter run.
        raise TraceError(
            f"trace of {trace.program_name!r} exhausted at instruction "
            f"{n}: it was truncated at max_instructions="
            f"{trace.max_instructions}; use a live FunctionalCore or "
            "record a longer trace")
    n_run = n if n < max_instructions else max_instructions
    if n_run < 0:
        n_run = 0

    if kind is LevelTwoKind.ARVI:
        return _arvi_replay(program, lowered, config, value_mode,
                            arvi_config, warmup_instructions, n_run)

    streams = lowered.streams_for(kind)
    memory = MemoryHierarchy(config)
    fetch_stream = lowered.fetch_stream(config)

    # ---- hot locals (mirrors the engine's fused loop) ---------------------
    pcs = lowered.pcs
    codes = fetch_stream.codes
    dep1 = lowered.dep1
    dep2 = lowered.dep2
    mem_pos = lowered.mem_pos
    mem_addr = lowered.mem_addr
    store_dep = lowered.store_dep
    branch_bad = streams.bad
    branch_override = streams.override
    l2_access = memory.l2.access
    mem_dlat = memory.data_latency
    itlb_penalty = config.itlb.miss_penalty
    l2_hit = config.l2cache.hit_latency
    l2_miss = l2_hit + config.memory_latency
    frontend_depth = config.frontend_depth
    fetch_width = config.fetch_width
    commit_width = config.commit_width
    rob_capacity = config.rob_entries
    lsq_capacity = config.lsq_entries
    alu_latency = config.alu_latency
    mult_latency = config.mult_latency
    div_latency = config.div_latency
    if kind is LevelTwoKind.HYBRID:
        override_redirect = config.predictor_latencies.level2_hybrid + 1
    else:
        override_redirect = 1  # unreachable: NONE never overrides
    muldiv_scalar = config.int_muldiv == 1

    complete_arr = [0] * n_run
    commit_arr = [0] * n_run
    alu_free = [0] * config.int_alus     # zeros are already a valid heap
    dcache_free = [0] * config.dcache_ports
    muldiv_free = 0
    muldiv_heap = [0] * config.int_muldiv
    fetch_barrier = 0
    fetch_cycle = fetch_used = 0
    commit_cycle = commit_used = 0
    last_commit = 0
    mem_i = 0
    branch_i = 0

    for i in range(n_run):
        code = codes[i]
        k = code & 7

        # ---- fetch (barrier -> ROB -> LSQ -> I-cache -> bandwidth) --------
        earliest = fetch_barrier
        if i >= rob_capacity:
            free_at = commit_arr[i - rob_capacity] + 1
            if free_at > earliest:
                earliest = free_at
        if k == K_LOAD or k == K_STORE:
            if mem_i >= lsq_capacity:
                free_at = commit_arr[mem_pos[mem_i - lsq_capacity]] + 1
                if free_at > earliest:
                    earliest = free_at
        if code & _FETCH_MISS:
            if code & _ITLB_MISS:
                earliest += itlb_penalty
            if code & _L1I_MISS:
                earliest += l2_hit if l2_access(pcs[i] * 4) else l2_miss
        if earliest > fetch_cycle:
            fetch_cycle = earliest
            fetch_used = 0
        if fetch_used >= fetch_width:
            fetch_cycle += 1
            fetch_used = 0
        fetch_used += 1
        fetch = fetch_cycle

        # ---- issue / execute ---------------------------------------------
        ready = fetch + frontend_depth
        dep = dep1[i]
        if dep >= 0:
            when = complete_arr[dep]
            if when > ready:
                ready = when
        dep = dep2[i]
        if dep >= 0:
            when = complete_arr[dep]
            if when > ready:
                ready = when
        if k == K_ALU or k == K_BRANCH:
            server_free = heappop(alu_free)
            issue = ready if ready >= server_free else server_free
            heappush(alu_free, issue + 1)
            complete = issue + alu_latency
        elif k == K_LOAD:
            server_free = heappop(alu_free)
            issue = ready if ready >= server_free else server_free
            heappush(alu_free, issue + 1)
            agen1 = issue + 1
            server_free = heappop(dcache_free)
            access = agen1 if agen1 >= server_free else server_free
            heappush(dcache_free, access + 1)
            source = store_dep[mem_i]
            if source >= 0 and commit_arr[source] > access:
                data_ready = complete_arr[source]
                complete = (access if access >= data_ready
                            else data_ready) + 1
            else:
                complete = access + mem_dlat(mem_addr[mem_i])
            mem_i += 1
        elif k == K_STORE:
            server_free = heappop(alu_free)
            issue = ready if ready >= server_free else server_free
            heappush(alu_free, issue + 1)
            complete = issue + 1
            mem_i += 1
        elif k == K_OTHER:
            server_free = heappop(alu_free)
            issue = ready if ready >= server_free else server_free
            heappush(alu_free, issue + 1)
            complete = issue + 1
        elif k == K_MULT:
            if muldiv_scalar:
                issue = ready if ready >= muldiv_free else muldiv_free
                muldiv_free = issue + 1
            else:
                server_free = heappop(muldiv_heap)
                issue = ready if ready >= server_free else server_free
                heappush(muldiv_heap, issue + 1)
            complete = issue + mult_latency
        else:  # K_DIV (unpipelined)
            if muldiv_scalar:
                issue = ready if ready >= muldiv_free else muldiv_free
                muldiv_free = issue + div_latency
            else:
                server_free = heappop(muldiv_heap)
                issue = ready if ready >= server_free else server_free
                heappush(muldiv_heap, issue + div_latency)
            complete = issue + div_latency

        # ---- commit -------------------------------------------------------
        commit_req = complete + 1
        if commit_req < last_commit:
            commit_req = last_commit
        if commit_req > commit_cycle:
            commit_cycle = commit_req
            commit_used = 0
        if commit_used >= commit_width:
            commit_cycle += 1
            commit_used = 0
        commit_used += 1
        last_commit = commit_cycle
        commit_arr[i] = last_commit
        complete_arr[i] = complete

        # ---- control flow resolution -------------------------------------
        if k == K_BRANCH:
            if branch_bad[branch_i]:
                barrier = complete + _REDIRECT_LATENCY
                if barrier > fetch_barrier:
                    fetch_barrier = barrier
            elif branch_override[branch_i]:
                barrier = fetch + override_redirect
                if barrier > fetch_barrier:
                    fetch_barrier = barrier
            branch_i += 1

    # ---- statistics (prefix-sum differences over the shared streams) ----
    result = _timing_result(lowered, config, f"2-level {kind.value}",
                            warmup_instructions, n_run, last_commit,
                            commit_arr, memory, fetch_stream)
    branch_lo = bisect_left(lowered.branch_pos,
                            min(warmup_instructions, n_run))
    branch_hi = bisect_left(lowered.branch_pos, n_run)
    result.cond_branches = branch_hi - branch_lo
    result.final_correct = (streams.cum_final[branch_hi]
                            - streams.cum_final[branch_lo])
    result.l1_correct = (streams.cum_l1[branch_hi]
                         - streams.cum_l1[branch_lo])
    overrides = (streams.cum_override[branch_hi]
                 - streams.cum_override[branch_lo])
    result.overrides = overrides
    result.l2_used = overrides  # hybrid uses L2 exactly when it overrides
    result.overrides_helpful = (streams.cum_helpful[branch_hi]
                                - streams.cum_helpful[branch_lo])
    result.overrides_harmful = (streams.cum_harmful[branch_hi]
                                - streams.cum_harmful[branch_lo])
    return result


def _timing_result(lowered: LoweredTrace, config: MachineConfig,
                   configuration: str, warmup: int, n_run: int,
                   last_commit: int, commit_arr: list[int],
                   memory: MemoryHierarchy,
                   fetch_stream: _FetchStream) -> SimulationResult:
    """The statistics both passes share: a pure function of the lowered
    trace and the timing loop's ``(last_commit, commit_arr)``."""
    result = SimulationResult(
        benchmark=lowered.program.name,
        configuration=configuration,
        pipeline_depth=config.pipeline_depth,
        warmup_instructions=warmup,
        speculation=config.speculation,
    )
    measured_lo = warmup if warmup < n_run else n_run
    result.loads = (lowered.load_prefix[n_run]
                    - lowered.load_prefix[measured_lo])
    result.stores = (lowered.store_prefix[n_run]
                     - lowered.store_prefix[measured_lo])
    result.total_instructions = n_run
    result.total_cycles = last_commit
    measured_start_cycle = commit_arr[warmup] if warmup < n_run else 0
    result.instructions = max(n_run - warmup, 0)
    result.cycles = max(last_commit - measured_start_cycle, 0)
    fetch_stream.count_into(memory, n_run)
    result.memory = memory.stats()

    pops = bisect_left(lowered.jr_pos, n_run)
    correct_pops = lowered.jr_correct_cum[pops]
    result.ras_accuracy = correct_pops / pops if pops else 1.0
    return result


def _arvi_replay(program: Program, lowered: LoweredTrace,
                 config: MachineConfig, value_mode: ValueMode,
                 arvi_config: ARVIConfig | None, warmup: int,
                 n_run: int) -> SimulationResult:
    """The fused ARVI pass: engine semantics, flat-loop mechanics.

    Mirrors :meth:`PipelineEngine.run` stage for stage for the ARVI
    configurations.  The timing arithmetic (fetch / issue / commit /
    redirect) is the stream kernel's; on top of it the pass keeps, as
    plain local ints and lists, exactly the state the ARVI lookup keys
    read: which chain instructions are still in flight, which leaf
    registers are pending, their committed (or exposed) value bits, and
    the chain-depth span.  The level-1 prediction and the confidence
    verdict are timing-independent and come from the shared
    :class:`_ARVIPreStreams`; everything else runs per configuration
    (DESIGN.md §13):

    * **Retirement** — a redirect replay never rolls back, so
      instruction *i*'s DDT token is *i*, commits happen in stream
      order, and the in-flight window is ``[lo, i)``: ``lo`` is the
      first instruction whose commit cycle is past the rename cycle, a
      bisect over the monotone ``commit_arr``.  Only a branch reads the
      window, so ``lo`` is brought up to date there (and where the rows
      renormalize or a rename might find the free list empty).
    * **Free list** — a FIFO: rename pops its head, and a renaming
      instruction's commit appends the register it displaced.  Commits
      come in program order, so appending at rename instead puts every
      register at the same place in the queue; no per-token retire
      record is needed.  It could only pop a register not yet freed if
      the list ran dry, which the in-flight writer count checks first.
    * **DDT** (paper Section 2, Figure 1) — ``rows[preg]`` is the
      physical register's dependence row as an int whose bit *b* is
      token ``base + b``.  Rows are written unmasked and read through
      the window (``row >> (lo - base)``): a bit below ``lo`` never
      becomes valid again, so masking at read time equals the
      hardware's masking at write time.  Once the newest token is
      ``_RENORM`` above ``base``, the rows — and the chain being
      built — shift down to ``lo``.
    * **RSE** — per writer token, one int packs the physical-register
      bitmask of its sources and, shifted up by ``n_pregs``, the bit of
      its destination (loads terminate chains and pack 0), in a ring of
      ROB size.  ORing the packs of the chain's tokens gives ``sources
      | targets << n_pregs``, and the register set is ``sources &
      ~targets``.  The set stays keyed by physical register, not by
      producing token: a committed leaf register has left the token
      window but still belongs to the set.
    * **Leaf state** — ``writer[preg]`` is the last instruction that
      renamed ``preg``, so the register is pending while ``writer >=
      lo``.  ``vbits[preg]`` holds the value bits the BVIT index XORs
      in — the shadow register file's committed value or the exposed
      pending value, one array for both because a register's value is
      fixed from rename to commit.  A pending value counts as available
      from fetch cycle ``avail_at[preg]``: the load's hoisted arrival
      under *load back*, at once under *perfect*, never otherwise.
    * **BVIT** (paper Section 4.1) — ``sets`` list buckets of ``[tag,
      counter, perf, last_used]`` entries, ``tag = id_tag << depth_bits
      | depth_tag``.  Lookup and update of one branch are adjacent in
      redirect mode, so the update trains the entry the lookup found;
      the tick advances by two per branch, as the table's does, and a
      full set evicts its ``min`` by ``(perf, last_used)`` (never a
      tie: every update stamps a fresh tick).

    The DDT never fills: the ROB stall keeps at most ``rob_entries - 1``
    instructions in flight when one renames, so the engine's ``DDTError``
    is unreachable.  The free list can run dry only if that bound broke;
    the pass then raises :class:`RenameError` like the engine's rename
    map, at the same instruction.
    """
    _cls, src1_tab, src2_tab, wr_tab, _ras, _hr = \
        program.decoded().static_columns()
    pre = lowered.arvi_prestreams()
    acfg = arvi_config or ARVIConfig()
    memory = MemoryHierarchy(config)
    fetch_stream = lowered.fetch_stream(config)
    n_pregs = config.num_phys_regs

    # ---- configuration constants ------------------------------------------
    index_mask = (1 << acfg.index_bits) - 1
    value_index_mask = ((1 << acfg.value_bits) - 1) & index_mask
    # The shadow map keeps the id tag's width of each logical id.
    id_mask = (1 << acfg.id_tag_bits) - 1 if acfg.use_id_tag else 0
    depth_bits = acfg.depth_bits
    depth_limit = (1 << depth_bits) - 1
    use_depth_tag = acfg.use_depth_tag
    allocate_soft = not acfg.allocate_only_hard
    bvit_sets = acfg.sets
    bvit_ways = acfg.ways
    load_back = value_mode is ValueMode.LOAD_BACK
    pending_avail = 0 if value_mode is ValueMode.PERFECT else _NEVER
    free_slots = n_pregs - NUM_LOGICAL_REGS

    # ---- rename map, free list and per-preg state -------------------------
    rename_map = list(range(NUM_LOGICAL_REGS))
    free_list = deque(range(NUM_LOGICAL_REGS, n_pregs))
    free_popleft = free_list.popleft
    free_append = free_list.append
    registers = [0] * NUM_LOGICAL_REGS
    registers[regs.sp] = STACK_TOP
    registers[regs.gp] = DATA_BASE
    vbits = [0] * n_pregs
    ids = [0] * n_pregs
    for logical, value in enumerate(registers):
        vbits[logical] = value & value_index_mask
        ids[logical] = logical & id_mask
    writer = [-1] * n_pregs
    avail_at = [0] * n_pregs
    rows = [0] * n_pregs
    src_bit = [1 << preg for preg in range(n_pregs)]
    dest_bit = [1 << (n_pregs + preg) for preg in range(n_pregs)]
    src_half = (1 << n_pregs) - 1
    # In-flight tokens span less than the ROB, so a ring indexed by the
    # token's low bits holds every chain token's pack.
    ring_mask = (1 << (config.rob_entries - 1).bit_length()) - 1
    rse = [0] * (ring_mask + 1)
    base = lo = 0
    bvit = [[] for _ in range(bvit_sets)]
    bvit_tick = bvit_hits = 0

    # ---- hot locals (the stream kernel's, plus the ARVI state) ------------
    pcs = lowered.pcs
    codes = fetch_stream.codes
    dep1 = lowered.dep1
    dep2 = lowered.dep2
    mem_pos = lowered.mem_pos
    mem_addr = lowered.mem_addr
    store_dep = lowered.store_dep
    values = lowered.values()
    branch_taken = lowered.branch_taken
    l1_stream = pre.l1_pred
    conf_stream = pre.confident
    l2_access = memory.l2.access
    mem_dlat = memory.data_latency
    itlb_penalty = config.itlb.miss_penalty
    l2_hit = config.l2cache.hit_latency
    l2_miss = l2_hit + config.memory_latency
    frontend_depth = config.frontend_depth
    rename_offset = config.rename_offset
    fetch_width = config.fetch_width
    commit_width = config.commit_width
    rob_capacity = config.rob_entries
    lsq_capacity = config.lsq_entries
    alu_latency = config.alu_latency
    mult_latency = config.mult_latency
    div_latency = config.div_latency
    override_redirect = config.predictor_latencies.level2_arvi + 1
    muldiv_scalar = config.int_muldiv == 1
    renorm = _RENORM

    complete_arr = [0] * n_run
    commit_arr = [0] * n_run
    alu_free = [0] * config.int_alus
    dcache_free = [0] * config.dcache_ports
    muldiv_free = 0
    muldiv_heap = [0] * config.int_muldiv
    fetch_barrier = 0
    fetch_cycle = fetch_used = 0
    commit_cycle = commit_used = 0
    last_commit = 0
    mem_i = 0
    branch_i = 0

    cond_branches = final_correct_n = l1_correct_n = 0
    overrides_n = helpful_n = harmful_n = l2_used_n = 0
    calc_b = calc_c = load_b = load_c = 0

    for i in range(n_run):
        code = codes[i]
        k = code & 7

        # ---- fetch (barrier -> ROB -> LSQ -> I-cache -> bandwidth) --------
        earliest = fetch_barrier
        if i >= rob_capacity:
            free_at = commit_arr[i - rob_capacity] + 1
            if free_at > earliest:
                earliest = free_at
        if k == K_LOAD or k == K_STORE:
            if mem_i >= lsq_capacity:
                free_at = commit_arr[mem_pos[mem_i - lsq_capacity]] + 1
                if free_at > earliest:
                    earliest = free_at
        if code & _FETCH_MISS:
            if code & _ITLB_MISS:
                earliest += itlb_penalty
            if code & _L1I_MISS:
                earliest += l2_hit if l2_access(pcs[i] * 4) else l2_miss
        if earliest > fetch_cycle:
            fetch_cycle = earliest
            fetch_used = 0
        if fetch_used >= fetch_width:
            fetch_cycle += 1
            fetch_used = 0
        fetch_used += 1
        fetch = fetch_cycle

        # ---- rename (early, one cycle after fetch) -----------------------
        pc = pcs[i]
        s1 = src1_tab[pc]
        if s1 >= 0:
            preg = rename_map[s1]
            chain = rows[preg]
            srcs = src_bit[preg]
            s2 = src2_tab[pc]
            if s2 >= 0:
                preg = rename_map[s2]
                chain |= rows[preg]
                srcs |= src_bit[preg]
        else:
            chain = srcs = 0

        # ---- ARVI decision (reads the DDT *before* the branch inserts) ----
        is_branch = k == K_BRANCH
        if is_branch:
            lo = bisect_right(commit_arr, fetch + rename_offset, lo, i)
            taken = branch_taken[branch_i]
            l1_pred = l1_stream[branch_i]
            confident = conf_stream[branch_i]
            # The chain's in-flight tokens; bit b is token lo + b.
            shift = lo - base
            window = chain >> shift
            packed = srcs
            depth_tag = 0
            if window:
                if use_depth_tag:
                    span = i - lo - (window & -window).bit_length() + 1
                    depth_tag = span if span < depth_limit else depth_limit
                oldest = lo - 1
                while window:
                    low = window & -window
                    window ^= low
                    packed |= rse[(oldest + low.bit_length()) & ring_mask]
            regset = packed & src_half & ~(packed >> n_pregs)
            # Key formation (XOR fold, id sum and any() are order-free).
            index = pc & index_mask
            id_sum = 0
            is_load_branch = False
            while regset:
                low = regset & -regset
                regset ^= low
                preg = low.bit_length() - 1
                if writer[preg] < lo or avail_at[preg] <= fetch:
                    index ^= vbits[preg]
                else:
                    is_load_branch = True
                id_sum += ids[preg]
            tag = (id_sum & id_mask) << depth_bits | depth_tag
            bucket = bvit[index % bvit_sets]
            for entry in bucket:
                if entry[0] == tag:
                    bvit_hits += 1
                    use_arvi = not confident
                    final = entry[1] >= 2 if use_arvi else l1_pred
                    break
            else:
                entry = None
                use_arvi = False
                final = l1_pred

        # ---- destination rename + DDT / RSE insert ------------------------
        rd = wr_tab[pc]
        if rd >= 0:
            if i - lo >= free_slots:
                lo = bisect_right(commit_arr, fetch + rename_offset, lo, i)
                if i - lo >= free_slots and sum(
                        1 for t in range(lo, i)
                        if wr_tab[pcs[t]] >= 0) >= free_slots:
                    raise RenameError("free list underflow")
            if i - base >= renorm:
                lo = bisect_right(commit_arr, fetch + rename_offset, lo, i)
                shift = lo - base
                rows = [row >> shift for row in rows]
                chain >>= shift
                base = lo
            dest = free_popleft()
            free_append(rename_map[rd])
            rename_map[rd] = dest
            ids[dest] = rd & id_mask
            rows[dest] = chain | 1 << (i - base)
            writer[dest] = i
            vbits[dest] = values[i] & value_index_mask
            avail_at[dest] = pending_avail
            rse[i & ring_mask] = 0 if k == K_LOAD else srcs | dest_bit[dest]

        # ---- issue / execute ---------------------------------------------
        operands = 0
        dep = dep1[i]
        if dep >= 0:
            operands = complete_arr[dep]
        dep = dep2[i]
        if dep >= 0:
            when = complete_arr[dep]
            if when > operands:
                operands = when
        ready = fetch + frontend_depth
        if operands > ready:
            ready = operands
        if k == K_ALU or k == K_BRANCH:
            server_free = heappop(alu_free)
            issue = ready if ready >= server_free else server_free
            heappush(alu_free, issue + 1)
            complete = issue + alu_latency
        elif k == K_LOAD:
            server_free = heappop(alu_free)
            issue = ready if ready >= server_free else server_free
            heappush(alu_free, issue + 1)
            agen1 = issue + 1
            server_free = heappop(dcache_free)
            access = agen1 if agen1 >= server_free else server_free
            heappush(dcache_free, access + 1)
            source = store_dep[mem_i]
            if source >= 0 and commit_arr[source] > access:
                data_ready = complete_arr[source]
                complete = (access if access >= data_ready
                            else data_ready) + 1
            else:
                complete = access + mem_dlat(mem_addr[mem_i])
            if load_back and rd >= 0:
                # Hoisted availability (engine _hoist_available): operand
                # readiness, gated by the forwarding store's data, plus
                # the load's actual latency.
                hoist_start = operands
                if source >= 0:
                    data_ready = complete_arr[source]
                    if data_ready > hoist_start:
                        hoist_start = data_ready
                avail_at[dest] = hoist_start + (complete - issue)
            mem_i += 1
        elif k == K_STORE:
            server_free = heappop(alu_free)
            issue = ready if ready >= server_free else server_free
            heappush(alu_free, issue + 1)
            complete = issue + 1
            mem_i += 1
        elif k == K_OTHER:
            server_free = heappop(alu_free)
            issue = ready if ready >= server_free else server_free
            heappush(alu_free, issue + 1)
            complete = issue + 1
        elif k == K_MULT:
            if muldiv_scalar:
                issue = ready if ready >= muldiv_free else muldiv_free
                muldiv_free = issue + 1
            else:
                server_free = heappop(muldiv_heap)
                issue = ready if ready >= server_free else server_free
                heappush(muldiv_heap, issue + 1)
            complete = issue + mult_latency
        else:  # K_DIV (unpipelined)
            if muldiv_scalar:
                issue = ready if ready >= muldiv_free else muldiv_free
                muldiv_free = issue + div_latency
            else:
                server_free = heappop(muldiv_heap)
                issue = ready if ready >= server_free else server_free
                heappush(muldiv_heap, issue + div_latency)
            complete = issue + div_latency

        # ---- commit -------------------------------------------------------
        commit_req = complete + 1
        if commit_req < last_commit:
            commit_req = last_commit
        if commit_req > commit_cycle:
            commit_cycle = commit_req
            commit_used = 0
        if commit_used >= commit_width:
            commit_cycle += 1
            commit_used = 0
        commit_used += 1
        last_commit = commit_cycle
        commit_arr[i] = last_commit
        complete_arr[i] = complete

        # ---- control flow resolution + BVIT training ----------------------
        if is_branch:
            final_correct = final == taken
            override = use_arvi and final != l1_pred
            if not final_correct:
                barrier = complete + _REDIRECT_LATENCY
                if barrier > fetch_barrier:
                    fetch_barrier = barrier
            elif override:
                barrier = fetch + override_redirect
                if barrier > fetch_barrier:
                    fetch_barrier = barrier
            bvit_tick += 2  # one lookup and one update per branch
            if entry is not None:
                counter = entry[1]
                if (counter >= 2) == taken:
                    if entry[2] < PERF_MAX:
                        entry[2] += 1
                elif entry[2] > 0:
                    entry[2] -= 1
                if taken:
                    if counter < COUNTER_MAX:
                        entry[1] = counter + 1
                elif counter > 0:
                    entry[1] = counter - 1
                entry[3] = bvit_tick
            elif not confident or allocate_soft:
                if len(bucket) >= bvit_ways:
                    bucket.remove(min(bucket, key=_bvit_age))
                bucket.append([tag, 2 if taken else 1, PERF_INIT,
                               bvit_tick])
            if i >= warmup:
                cond_branches += 1
                l1_correct = l1_pred == taken
                if final_correct:
                    final_correct_n += 1
                if l1_correct:
                    l1_correct_n += 1
                if override:
                    overrides_n += 1
                    if final_correct and not l1_correct:
                        helpful_n += 1
                    elif l1_correct and not final_correct:
                        harmful_n += 1
                if use_arvi:
                    l2_used_n += 1
                if is_load_branch:
                    load_b += 1
                    if final_correct:
                        load_c += 1
                else:
                    calc_b += 1
                    if final_correct:
                        calc_c += 1
            branch_i += 1

    # ---- statistics -------------------------------------------------------
    result = _timing_result(lowered, config, f"arvi {value_mode.value}",
                            warmup, n_run, last_commit, commit_arr, memory,
                            fetch_stream)
    result.cond_branches = cond_branches
    result.final_correct = final_correct_n
    result.l1_correct = l1_correct_n
    result.overrides = overrides_n
    result.overrides_helpful = helpful_n
    result.overrides_harmful = harmful_n
    result.l2_used = l2_used_n
    result.calculated = BranchClassStats(branches=calc_b, correct=calc_c)
    result.load = BranchClassStats(branches=load_b, correct=load_c)
    result.arvi_lookups = branch_i
    result.arvi_bvit_hits = bvit_hits
    return result
