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
  accuracy stream, and the per-branch decision inputs that read nothing
  but the (pc, taken) branch sequence: the level-1 gskew prediction, the
  confidence verdict and the hybrid's level-2 gskew prediction
  (:class:`_BranchStreams`),
* per ROB size, built on the first ARVI replay: every branch's DDT chain
  and RSE register set as a function of the one timing-dependent cut
  ``lo``, the oldest token still in flight (:class:`_ARVIChains`).

:func:`kernel_run` then evaluates one timing configuration of any
level-2 kind as one pass over the lowered form: the same
fetch/issue/commit/redirect arithmetic as
:meth:`~repro.pipeline.engine.PipelineEngine.run`, stage for stage,
minus everything that cannot affect a redirect-mode result.  Per branch
the pass needs a final prediction and whether level 2 was used.  The
hybrid reads its level-2 stream and the single-level machine its
level-1 stream; ARVI decides live (DESIGN.md §13): per configuration it
keeps only ``lo``, the hoisted arrival of each load under *load back*
and the BVIT, and reads the chain, depth span and register set of a
branch from its lowered tables at that ``lo``.  Results are
**bit-for-bit equal** to the live
engine (the independent oracle) — enforced by the equality suites
(``tests/pipeline/test_kernel.py``, ``tests/pipeline/test_kernel_arvi.py``)
and by the frozen seed goldens
(``tests/experiments/test_redirect_equivalence.py``).

``wrongpath`` speculation, which needs live architectural state, raises
:class:`KernelUnsupported`; the experiment service never routes it here.
A budget that would step past a truncated recording raises
:class:`~repro.pipeline.trace.TraceError` instead of silently running
shorter.  Which path ran is observable as the point's ``replay`` or
``live`` ledger phase (see :func:`~repro.experiments.runner.execute_point`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
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
from repro.pipeline.engine import _REDIRECT_LATENCY, RenameError
from repro.pipeline.functional import DEFAULT_MAX_INSTRUCTIONS
from repro.pipeline.stats import BranchClassStats, SimulationResult
from repro.pipeline.trace import _U32, CommittedTrace, TraceError
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

#: The chain lowering shifts its DDT rows down once this many tokens lie
#: below every window still to come (FastDDT's renormalization interval).
_RENORM = 4096

#: Leaf key of an absent source (other keys are a writer's stream index
#: or ``-1 - reg`` for the initial value of ``reg``).
_NO_LEAF = -1 - NUM_LOGICAL_REGS


def _bvit_age(entry: list[int]) -> list[int]:
    """BVIT replacement order of a ``[tag, counter, perf, last_used]``
    entry: the lowest ``(perf, last_used)`` is evicted."""
    return entry[2:]


class KernelUnsupported(RuntimeError):
    """The kernel cannot express this configuration (run it on the live
    engine instead; never silently diverge)."""


class _BranchStreams:
    """Timing-independent per-branch decision inputs, shared by every
    configuration of a trace.

    The level-1 gskew, the confidence estimator and the hybrid's level-2
    gskew consume nothing but the committed (pc, taken) branch sequence,
    and each branch's predict immediately precedes its own train in
    program order (no other instruction touches them).  So one pass over
    the recorded outcomes gives, for every branch *j*, the level-1
    prediction (``l1_pred``), the confidence verdict (``confident``, read
    by ARVI) and the level-2 gskew prediction (``l2_pred``, the hybrid's
    final prediction: it overrides level 1 exactly when they disagree).
    ARVI's own level-2 side reads the timing-dependent cut of each
    chain and the BVIT, so :func:`kernel_run` computes it per
    configuration.
    """

    __slots__ = ("l1_pred", "confident", "l2_pred")

    def __init__(self, bpcs: list[int], btaken: list[bool]) -> None:
        level1 = level1_gskew()
        level2 = level2_gskew()
        confidence = ConfidenceEstimator()
        l1_predict = level1.predict
        l1_update = level1.update
        l2_predict = level2.predict
        l2_update = level2.update
        is_confident = confidence.is_confident
        conf_update = confidence.update
        l1_pred: list[bool] = []
        confident: list[bool] = []
        l2_pred: list[bool] = []
        for pc, taken in zip(bpcs, btaken):
            l1 = l1_predict(pc)
            l1_pred.append(l1)
            confident.append(is_confident(pc))
            l2_pred.append(l2_predict(pc))
            l1_update(pc, taken)
            conf_update(pc, l1 == taken, taken)
            l2_update(pc, taken)
        self.l1_pred = l1_pred
        self.confident = confident
        self.l2_pred = l2_pred


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


class _ARVIChains:
    """Every conditional branch's DDT chain and RSE register set, lowered
    once per trace and ROB size (DESIGN.md §13).

    Branch *j* at stream position *i* reads the DDT before it inserts.
    Its chain is the dependence closure of its source registers over the
    in-flight window ``[lo, i)``, and only ``lo`` depends on the timing.
    Commits are in order, so a committed token's ancestors are committed
    too: the chain is ``C(i)`` cut at ``lo``, where ``C(i)`` is the same
    closure over the window ``(i - rob_entries, i)`` that the ROB stall
    keeps around ``[lo, i)``.  Flat offset/slice tables hold, per branch,
    distances back from the branch, ``d = i - x`` (2 bytes for any ROB up
    to 65,536 entries), so a configuration reads them with ``D = i - lo``:

    * ``dist[tok_off[j]:tok_off[j + 1]]`` — the tokens of ``C(i)``, newest
      first (distances ascending): the oldest chain token at or above
      ``lo`` is the last distance ``<= D``, one ``bisect``, and that
      distance is the depth span;
    * ``leaf_*[leaf_off[j]:leaf_off[j + 1]]`` — the register-set leaves,
      one per distinct value the set can hold, keyed by ``leaf_writer``:
      the writer's stream index, or ``-1 - reg`` for the initial value
      of ``reg``.  Each has its logical id ``leaf_id``, its raw committed
      value ``value[leaf_writer]`` (initial values sit at the negative
      indices), and a range of ``lo`` in which it belongs to the set.
      The range ends once ``lo`` passes the last non-load chain token
      that sources the leaf (``D < leaf_near``).  It starts at once for a
      load or an initial register, and for any other writer when the
      writer commits (``lo > writer``): until then the writer is a chain
      token whose target cancels it.  So a leaf whose writer is at or
      above ``lo`` is either a pending load or out of the set.  The
      leaves come in ``leaf_near`` order, so those past their last
      reader are cut off by one ``bisect``.

    Leaves are keyed by writer, not by physical register, and no two
    leaves of one branch share a register: a register is freed only when
    the writer that displaces it commits, and that writer is younger than
    a chain token that reads the leaf, so it is still in flight.
    """

    __slots__ = ("tok_off", "dist", "leaf_off", "leaf_near", "leaf_writer",
                 "leaf_id", "value")

    def __init__(self, lowered: "LoweredTrace", rob_entries: int) -> None:
        _cls, src1_tab, src2_tab, wr_tab, _ras, hasres_tab = \
            lowered.program.decoded().static_columns()
        pcs = lowered.pcs
        kclass = lowered.kclass
        dep1 = lowered.dep1
        dep2 = lowered.dep2
        results = lowered.trace.results
        n = lowered.length
        # Per leaf key (a writer's stream index, or ``-1 - reg`` for the
        # initial value of ``reg``): the committed value (0 if the opcode
        # produces none) and logical id.  Per instruction: the keys of
        # the sources it marks in the RSE (loads mark none: ``_NO_LEAF``).
        values = array(_U32, bytes(4 * (n + NUM_LOGICAL_REGS)))
        ids = array("B", bytes(n + NUM_LOGICAL_REGS))
        for reg in range(NUM_LOGICAL_REGS):
            ids[-1 - reg] = reg
        values[-1 - regs.sp] = STACK_TOP
        values[-1 - regs.gp] = DATA_BASE
        key1 = array("i", [_NO_LEAF]) * n
        key2 = array("i", [_NO_LEAF]) * n
        ri = 0
        try:
            for i, pc in enumerate(pcs):
                if hasres_tab[pc]:
                    values[i] = results[ri]
                    ri += 1
                if wr_tab[pc] >= 0:
                    ids[i] = wr_tab[pc]
                if kclass[i] == K_LOAD:
                    continue
                src = src1_tab[pc]
                if src >= 0:
                    key1[i] = dep1[i] if dep1[i] >= 0 else -1 - src
                    src = src2_tab[pc]
                    if src >= 0:
                        key2[i] = dep2[i] if dep2[i] >= 0 else -1 - src
        except IndexError:
            ri = -1
        if ri != len(results):
            raise TraceError(
                f"trace of {lowered.trace.program_name!r} is internally "
                "inconsistent (column lengths do not match the stream)")

        code = "H" if rob_entries <= 1 << 16 else "i"
        reach = rob_entries - 1       # a window is (i - rob_entries, i)
        tok_off = array("i", [0])
        dist = array(code)
        leaf_off = array("i", [0])
        leaf_near = array(code)
        leaf_writer = array("i")
        leaf_id = array("B")
        dist_append = dist.append
        # rows[reg]: the DDT row of reg's current value as an int whose
        # bit b is token base + b, written unmasked (no window reads a
        # bit below its own start) and shifted down once ``_RENORM``
        # tokens lie below every window still to come.
        rows = [0] * NUM_LOGICAL_REGS
        base = 0
        renorm_at = reach + _RENORM
        for i, pc in enumerate(pcs):
            k = kclass[i]
            rd = wr_tab[pc]
            if rd < 0 and k != K_BRANCH:
                continue
            src = src1_tab[pc]
            if src >= 0:
                chain = rows[src]
                src = src2_tab[pc]
                if src >= 0:
                    chain |= rows[src]
            else:
                chain = 0
            if k == K_BRANCH:
                first = i - reach if i > reach else 0
                top = i - first
                window = chain >> (first - base)
                # Newest token first, so each leaf's first reader is its
                # last (``near``) and the dict keeps ``near`` order.
                near_of = {key1[i]: 0}
                near_of.setdefault(key2[i], 0)
                setdefault = near_of.setdefault
                while window:
                    b = window.bit_length() - 1
                    window ^= 1 << b
                    d = top - b
                    dist_append(d)
                    setdefault(key1[i - d], d)
                    setdefault(key2[i - d], d)
                tok_off.append(len(dist))
                near_of.pop(_NO_LEAF, None)
                leaf_near.extend(near_of.values())
                leaf_writer.extend(near_of)
                leaf_id.extend(map(ids.__getitem__, near_of))
                leaf_off.append(len(leaf_near))
            if rd >= 0:
                if i - base >= renorm_at:
                    shift = i - reach - base
                    rows = [row >> shift for row in rows]
                    chain >>= shift
                    base += shift
                rows[rd] = chain | 1 << (i - base)
        self.tok_off = tok_off
        self.dist = dist
        self.leaf_off = leaf_off
        self.leaf_near = leaf_near
        self.leaf_writer = leaf_writer
        self.leaf_id = leaf_id
        self.value = values


class LoweredTrace:
    """Dense array form of one committed trace, shared across configs."""

    __slots__ = (
        "program", "trace", "length",
        "pcs", "kclass", "dep1", "dep2",
        "mem_pos", "mem_addr", "store_dep",
        "load_prefix", "store_prefix",
        "branch_pos", "branch_pcs", "branch_taken",
        "jr_pos", "jr_correct_cum", "branch_streams",
        "_fetch", "_chains",
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

    def arvi_chains(self, rob_entries: int) -> _ARVIChains:
        """Every branch's chain and register-set tables for a ROB of
        ``rob_entries`` (cached: only the window size keys them; the
        ``ARVIConfig`` widths are masked in when the tables are read)."""
        chains = self._chains.get(rob_entries)
        if chains is None:
            chains = _ARVIChains(self, rob_entries)
            self._chains[rob_entries] = chains
        return chains


def _lower(program: Program, trace: CommittedTrace) -> LoweredTrace:
    trace.validate_for(program)
    cls_tab, src1_tab, src2_tab, wr_tab, ras_tab, _hasres = \
        program.decoded().static_columns()
    n = trace.length
    branches = trace.branch_count
    pcs_list = trace.pcs.tolist()

    lowered = LoweredTrace.__new__(LoweredTrace)
    lowered.program = program
    lowered.trace = trace
    lowered.length = n
    lowered.pcs = pcs_list
    lowered._fetch = {}
    lowered._chains = {}

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
    lowered.branch_streams = _BranchStreams(branch_pcs, lowered.branch_taken)
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
    .run(max_instructions)`` for every level-2 kind (``trace`` must be
    ``program``'s recorded committed stream); ``wrongpath`` speculation
    raises :class:`KernelUnsupported`.  The L1D, DTLB and L2 run live, in
    the engine's exact access order — the shared L2 couples I-side and
    D-side state, and store-forwarding outcomes depend on per-config
    timing, so their latencies cannot be precomputed.  The L1I and ITLB
    outcomes come from the trace's shared fetch stream for the
    configuration's geometry; only L1I misses access the L2.

    Per conditional branch the pass needs the ``final`` prediction and
    whether level 2 was used; ``final != l1_pred`` is an override in
    every kind.  ``HYBRID`` reads its level-2 gskew stream and ``NONE``
    its level-1 stream.  ``LevelTwoKind.ARVI`` (``value_mode`` /
    ``arvi_config`` select the paper's evaluation configurations) reads
    the shared level-1/confidence streams and the trace's lowered chain
    tables for ``config.rob_entries`` (:class:`_ARVIChains`), and decides
    per configuration (DESIGN.md §13); ``value_mode`` and
    ``arvi_config`` mean nothing to the other kinds, as in the engine:

    * **Retirement** — a redirect replay never rolls back, so
      instruction *i*'s DDT token is *i*, commits happen in stream
      order, and the in-flight window is ``[lo, i)``: ``lo`` is the
      first instruction whose commit cycle is past the rename cycle, a
      bisect over the monotone ``commit_arr``.  It is brought up to date
      where it is read: at a branch, and where a rename might find the
      free list empty.
    * **Chain and register set** (paper Sections 2 and 4.2) — the
      table's chain of the branch cut at ``lo`` gives the depth span, and
      its leaves in range at ``lo`` the register set.  ``ARVIConfig``'s
      ``value_bits``, ``id_tag_bits`` and ``depth_bits`` are applied
      here, when the tables are read, so only the ROB size keys them.
    * **Leaf state** — a leaf whose writer is at or above ``lo`` is a
      pending load.  Its value counts as available at once under
      *perfect*, never under *current*, and under *load back* from
      fetch cycle ``avail_at[writer]``, the load's hoisted arrival,
      written when the load executes.  Any other leaf is committed, and
      its value is the shadow register file's.
    * **BVIT** (paper Section 4.1) — ``bvit`` list buckets of ``[tag,
      counter, perf, last_used]`` entries, ``tag = id_tag << depth_bits
      | depth_tag``.  Lookup and update of one branch are adjacent in
      redirect mode, so the update trains the entry the lookup found;
      the tick advances by two per branch, as the table's does, and a
      full set evicts its ``min`` by ``(perf, last_used)`` (never a
      tie: every update stamps a fresh tick).

    The DDT never fills: the ROB stall keeps at most ``rob_entries - 1``
    instructions in flight when one renames, so the engine's ``DDTError``
    is unreachable.  For the same reason the free list can run dry only
    if it has fewer than ``rob_entries`` slots (``MachineConfig`` gives
    it exactly that many); on such a machine a writer that finds
    ``free_slots`` writers in flight raises :class:`RenameError` like the
    engine's rename stage, at the same instruction.
    """
    if config.speculation != "redirect":
        raise KernelUnsupported(
            f"replay of {trace.program_name!r}: the replay kernel models "
            "redirect speculation only; wrongpath synthesis reads live "
            "architectural state")
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
    warmup = warmup_instructions
    memory = MemoryHierarchy(config)
    fetch_stream = lowered.fetch_stream(config)
    streams = lowered.branch_streams

    # ---- level-2 decision inputs ------------------------------------------
    arvi = kind is LevelTwoKind.ARVI
    l1_stream = streams.l1_pred
    final_stream = (streams.l2_pred if kind is LevelTwoKind.HYBRID
                    else l1_stream)  # ARVI decides live instead
    latencies = config.predictor_latencies
    # NONE never overrides, so its override latency is never read.
    override_redirect = (latencies.level2_arvi if arvi
                         else latencies.level2_hybrid) + 1
    load_back = arvi and value_mode is ValueMode.LOAD_BACK
    # Per-branch ARVI outputs; the stream kinds never set them.
    use_arvi = is_load_branch = False
    # The ROB stall keeps fewer than rob_entries instructions in flight,
    # so only a free list with fewer slots than that can run dry.
    check_free = False

    if arvi:
        # ---- ARVI configuration constants -----------------------------
        acfg = arvi_config or ARVIConfig()
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
        perfect = value_mode is ValueMode.PERFECT
        conf_stream = streams.confident
        wr_tab = program.decoded().static_columns()[3]
        free_slots = config.num_phys_regs - NUM_LOGICAL_REGS
        check_free = free_slots < config.rob_entries
        rename_offset = config.rename_offset

        # ---- lowered chains; per configuration only lo, avail_at, BVIT
        chains = lowered.arvi_chains(config.rob_entries)
        tok_off = chains.tok_off
        dist = chains.dist
        leaf_off = chains.leaf_off
        leaf_near = chains.leaf_near
        leaf_writer = chains.leaf_writer
        leaf_id = chains.leaf_id
        value = chains.value
        kclass = lowered.kclass
        # A pending load's hoisted arrival under *load back*, by writer.
        avail_at = [0] * n_run if load_back else None
        lo = 0
        bvit = [[] for _ in range(bvit_sets)]
        bvit_tick = bvit_hits = 0

    # ---- hot locals (mirrors the engine's fused loop) ---------------------
    pcs = lowered.pcs
    codes = fetch_stream.codes
    dep1 = lowered.dep1
    dep2 = lowered.dep2
    mem_pos = lowered.mem_pos
    mem_addr = lowered.mem_addr
    store_dep = lowered.store_dep
    branch_taken = lowered.branch_taken
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

    complete_arr = [0] * n_run
    commit_arr = [0] * n_run
    alu_free = [0] * config.int_alus     # zeros are already a valid heap
    dcache_free = [0] * config.dcache_ports
    muldiv_free = [0] * config.int_muldiv
    fetch_barrier = 0
    fetch_cycle = fetch_used = 0
    commit_cycle = commit_used = 0
    last_commit = 0
    mem_i = 0
    branch_i = 0

    cond_branches = final_correct_n = overrides_n = helpful_n = 0
    l2_used_n = load_b = load_c = 0

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

        if check_free and i - lo >= free_slots and wr_tab[pcs[i]] >= 0:
            # ---- rename (one cycle after fetch): the free list can only
            # run dry with free_slots writers in flight -----------------
            lo = bisect_right(commit_arr, fetch + rename_offset, lo, i)
            if i - lo >= free_slots and sum(
                    1 for t in range(lo, i)
                    if wr_tab[pcs[t]] >= 0) >= free_slots:
                raise RenameError("free list underflow")

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
            if load_back:
                # Hoisted availability (engine _hoist_available): operand
                # readiness, gated by the forwarding store's data, plus
                # the load's actual latency.  Only a writing load's entry
                # is ever read.
                dep = dep1[i]
                hoist_start = complete_arr[dep] if dep >= 0 else 0
                for dep in (dep2[i], source):
                    if dep >= 0 and complete_arr[dep] > hoist_start:
                        hoist_start = complete_arr[dep]
                avail_at[i] = hoist_start + (complete - issue)
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
            server_free = heappop(muldiv_free)
            issue = ready if ready >= server_free else server_free
            heappush(muldiv_free, issue + 1)
            complete = issue + mult_latency
        else:  # K_DIV (unpipelined)
            server_free = heappop(muldiv_free)
            issue = ready if ready >= server_free else server_free
            heappush(muldiv_free, issue + div_latency)
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

        # ---- control flow resolution (+ ARVI decision and training) ----
        if k == K_BRANCH:
            taken = branch_taken[branch_i]
            l1_pred = l1_stream[branch_i]
            if arvi:
                # The DDT as the branch renamed: its lowered chain cut at
                # lo, the oldest token still in flight.
                lo = bisect_right(commit_arr, fetch + rename_offset, lo, i)
                confident = conf_stream[branch_i]
                back = i - lo
                depth_tag = 0
                if use_depth_tag:
                    start = tok_off[branch_i]
                    oldest = bisect_right(dist, back, start,
                                          tok_off[branch_i + 1]) - 1
                    if oldest >= start:
                        span = dist[oldest]
                        depth_tag = (span if span < depth_limit
                                     else depth_limit)
                # Key formation over the register set (the XOR fold, id
                # sum and any() are order-free): the leaves whose last
                # reader is in flight, less the in-flight non-loads.
                index = pcs[i] & index_mask
                id_sum = 0
                is_load_branch = False
                start = leaf_off[branch_i]
                for x in range(start, bisect_right(
                        leaf_near, back, start, leaf_off[branch_i + 1])):
                    writer = leaf_writer[x]
                    if writer < lo:
                        index ^= value[writer] & value_index_mask
                    elif kclass[writer] != K_LOAD:
                        continue
                    elif perfect or (load_back
                                     and avail_at[writer] <= fetch):
                        index ^= value[writer] & value_index_mask
                    else:
                        is_load_branch = True
                    id_sum += leaf_id[x]
                tag = (id_sum & id_mask) << depth_bits | depth_tag
                # BVIT lookup and update (paper Section 4.1) are adjacent
                # in redirect mode: the update trains the entry found.
                bvit_tick += 2
                bucket = bvit[index % bvit_sets]
                for entry in bucket:
                    if entry[0] == tag:
                        bvit_hits += 1
                        use_arvi = not confident
                        counter = entry[1]
                        final = counter >= 2 if use_arvi else l1_pred
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
                        break
                else:
                    use_arvi = False
                    final = l1_pred
                    if not confident or allocate_soft:
                        if len(bucket) >= bvit_ways:
                            bucket.remove(min(bucket, key=_bvit_age))
                        bucket.append([tag, 2 if taken else 1, PERF_INIT,
                                       bvit_tick])
            else:
                final = final_stream[branch_i]
            final_correct = final == taken
            override = final != l1_pred
            if not final_correct:
                barrier = complete + _REDIRECT_LATENCY
                if barrier > fetch_barrier:
                    fetch_barrier = barrier
            elif override:
                barrier = fetch + override_redirect
                if barrier > fetch_barrier:
                    fetch_barrier = barrier
            if i >= warmup:
                cond_branches += 1
                if final_correct:
                    final_correct_n += 1
                if override:
                    overrides_n += 1
                    if final_correct:
                        helpful_n += 1
                if use_arvi:
                    l2_used_n += 1
                if is_load_branch:
                    load_b += 1
                    if final_correct:
                        load_c += 1
            branch_i += 1

    # ---- statistics -------------------------------------------------------
    result = SimulationResult(
        benchmark=program.name,
        configuration=(f"arvi {value_mode.value}" if arvi
                       else f"2-level {kind.value}"),
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

    # An override flips a binary prediction: it is helpful exactly when
    # the final prediction is right, and level 1 was right exactly when
    # the final prediction was not.
    harmful_n = overrides_n - helpful_n
    result.cond_branches = cond_branches
    result.final_correct = final_correct_n
    result.l1_correct = final_correct_n - helpful_n + harmful_n
    result.overrides = overrides_n
    result.overrides_helpful = helpful_n
    result.overrides_harmful = harmful_n
    if arvi:
        result.l2_used = l2_used_n
        result.calculated = BranchClassStats(
            branches=cond_branches - load_b,
            correct=final_correct_n - load_c)
        result.load = BranchClassStats(branches=load_b, correct=load_c)
        result.arvi_lookups = branch_i
        result.arvi_bvit_hits = bvit_hits
    else:
        # The hybrid uses level 2 exactly when it overrides; NONE never.
        result.l2_used = overrides_n
    return result
