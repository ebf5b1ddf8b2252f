"""Out-of-order superscalar timing engine.

A cycle-accounting model of the paper's Table 2 machine: instructions are
processed in program order (driven by the functional oracle) and each one
receives fetch / rename / issue / complete / commit timestamps subject to

* fetch and commit bandwidth (4/cycle), I-cache and ITLB stalls,
* ROB (256) and LSQ (32) occupancy,
* data dependences through renamed physical registers,
* functional unit and D-cache port contention,
* frontend depth (pipeline_depth - 2 cycles from fetch to earliest issue),
* branch redirects: a level-2 override costs its predictor latency; a
  final misprediction restarts fetch after the branch executes, so the
  penalty scales with pipeline depth as in the paper.

The engine owns the DDT/RSE/shadow machinery: every instruction is renamed
early (one cycle after fetch, as ARVI requires), inserted into the DDT,
and retired from it when its commit cycle passes.  Conditional branches
consult the two-level predictor; in ARVI configurations the engine builds
the RSE register-set view according to the value mode (current / load
back / perfect).

Two speculation models are available (``MachineConfig.speculation``,
DESIGN.md §2.2-§2.3):

* ``redirect`` (default) — wrong-path instructions are not materialized;
  their cost is carried by the redirect accounting alone, and results are
  bit-for-bit identical to the seed engine.
* ``wrongpath`` — on a misprediction the engine checkpoints its rename
  map and shadow map in locals, takes the wrong-path instruction stream
  from its episode store, renames it into the DDT and lets it pollute
  the memory hierarchy, then squashes it through the DDT's ROB-style
  ``rollback_to`` when the branch resolves and restores the checkpoint
  in place.  The store (``repro.speculation.wrongpath.EpisodeStore``,
  private unless the caller passes ``episodes=``) holds each branch's
  stream once per workload: the first engine to mispredict the branch
  synthesizes it against a copied register file and copy-on-write
  memory, checkpointing and restoring the predictor histories its
  wrong-path branches shift, and every engine reads the prefix it
  needs (the prefix property, DESIGN.md §2.2).  Wrong-path
  instructions do not contend for functional units or fetch/commit
  bandwidth (their timing cost stays with the redirect accounting); their
  modelled effects are cache/TLB pollution, DDT/rename occupancy and
  speculative predictor history, repaired by checkpoint restore.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.core.arvi import (
    ARVIConfig,
    ARVIPredictor,
    ARVIRequest,
    RegisterView,
    ValueMode,
)
from repro.core.ddt import CrossCheckedDDT, FastDDT
from repro.core.rse import ChainInfoTable
from repro.core.shadow import ShadowMapTable, ShadowRegisterFile
from repro.isa import regs
from repro.isa.decoded import (
    FU_ALU,
    FU_DIV,
    FU_LOAD,
    FU_MULT,
    FU_STORE,
    DecodedInst,
)
from repro.isa.instructions import NUM_LOGICAL_REGS, Op
from repro.isa.program import Program
from repro.pipeline.caches import MemoryHierarchy
from repro.pipeline.config import MachineConfig
from repro.pipeline.functional import (
    DEFAULT_MAX_INSTRUCTIONS,
    DynInst,
    FunctionalCore,
)
from repro.pipeline.stats import SimulationResult
from repro.predictors.confidence import ConfidenceEstimator
from repro.predictors.gskew import level1_gskew, level2_gskew
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.twolevel import LevelTwoKind, TwoLevelPredictor
from repro.speculation.wrongpath import EpisodeStore, WrongPathCore

_REDIRECT_LATENCY = 1  # cycles to restart fetch after a resolved mispredict

_OP_JAL = int(Op.JAL)
_OP_JR = int(Op.JR)


@dataclass(slots=True)
class TimingRecord:
    """Per-instruction timing exposed to observers (applications layer)."""

    seq: int
    pc: int
    op: int
    fetch: int
    dispatch: int
    issue: int
    complete: int
    commit: int
    chain_length: int
    is_load: bool
    is_branch: bool
    mispredicted: bool


Observer = Callable[[TimingRecord, DynInst], None]


class RenameError(RuntimeError):
    """Raised when a destination finds the rename free list empty."""


# Retire-queue entries are plain tuples on the per-instruction path:
# (token, dest_preg, value, commit, displaced).
_RETIRE_COMMIT = 3  # tuple index of the commit cycle


class PipelineEngine:
    """One simulation: a program on a machine with a predictor stack."""

    def __init__(self, program: Program, config: MachineConfig,
                 predictor: TwoLevelPredictor,
                 *, value_mode: ValueMode = ValueMode.CURRENT,
                 warmup_instructions: int = 0,
                 observers: list[Observer] | None = None,
                 ddt_cross_check: bool = False,
                 sampler=None,
                 episodes: EpisodeStore | None = None) -> None:
        self.program = program
        self.config = config
        self.predictor = predictor
        self.value_mode = value_mode
        self.warmup_instructions = warmup_instructions
        self.observers = observers or []
        # Optional read-only interval telemetry (duck-typed so the
        # pipeline layer does not depend on repro.obs): an object with
        # ``first_threshold`` and ``record(cycle, seq, rob_occupancy,
        # ddt, src_pregs, cond_branches, final_correct) -> next
        # threshold`` — see ``repro.obs.interval.IntervalSampler``.
        # Sampling only *reads* engine state; results are bit-for-bit
        # identical with or without it (identity suite in tests/obs/).
        self.sampler = sampler
        # Wrong-path episodes run only in wrongpath mode, so the redirect
        # path stays byte-identical to the seed engine.
        self._wrongpath = config.speculation == "wrongpath"
        # A workload's points may share one store (the experiment
        # harness does); by default every engine has its own.
        self.episodes = episodes if episodes is not None else EpisodeStore()
        if self._wrongpath:
            self.episodes.bind(program, config.icache.line_bytes)
        self.core = FunctionalCore(program)
        self.memory = MemoryHierarchy(config)
        self.ras = ReturnAddressStack()

        n_pregs = config.num_phys_regs
        # Early rename (R10000/21264 style): logical r starts in physical
        # r; a renamed destination takes the free list's head, and the
        # register it displaced is appended back when it commits.
        self.rename_map = list(range(NUM_LOGICAL_REGS))
        self.free_list: deque[int] = deque(range(NUM_LOGICAL_REGS, n_pregs))
        # Cross-check mode mirrors every DDT operation into the
        # hardware-faithful DDT (tests of the in-engine rollback).
        self.ddt = (CrossCheckedDDT(n_pregs, config.rob_entries)
                    if ddt_cross_check
                    else FastDDT(n_pregs, config.rob_entries))
        self.chains = ChainInfoTable()
        acfg = (predictor.arvi.config if predictor.arvi is not None
                else ARVIConfig())
        self.shadow_values = ShadowRegisterFile(n_pregs, acfg.value_bits)
        # The shadow map keeps as many low id bits as the id tag sums.
        self.shadow_map = ShadowMapTable(n_pregs, acfg.id_tag_bits)
        self._preg_ready = [0] * n_pregs
        self._preg_value = [0] * n_pregs
        for logical, preg in enumerate(self.rename_map):
            value = self.core.registers[logical]
            self.shadow_map.record(preg, logical)
            self.shadow_values.write(preg, value)
            self._preg_value[preg] = value
        self._preg_pending = [False] * n_pregs
        self._preg_is_load = [False] * n_pregs
        self._preg_hoist_avail = [0] * n_pregs

        self._retire_queue: deque[tuple] = deque()
        # The fetch state a branch resolution writes (the barrier) and a
        # wrong-path episode starts from (the line); run() keeps the rest
        # of its timing state in locals.
        self._fetch_barrier = 0
        self._last_fetch_line = -1
        # Pending stores for forwarding: word addr -> (data ready, commit).
        self._pending_stores: dict[int, tuple[int, int]] = {}

        # Hot-loop constants and views, hoisted out of the per-instruction
        # path (attribute chains through config are surprisingly costly).
        self._decoded = program.decoded().insts
        self._frontend_depth = config.frontend_depth
        self._rename_offset = config.rename_offset
        self._icache_hit_latency = config.icache.hit_latency
        self._alu_latency = config.alu_latency
        self._mult_latency = config.mult_latency
        self._div_latency = config.div_latency

        self.result = SimulationResult(
            benchmark=program.name,
            configuration=self._config_name(),
            pipeline_depth=config.pipeline_depth,
            warmup_instructions=warmup_instructions,
            speculation=config.speculation,
        )
        self._line_mask = ~(config.icache.line_bytes - 1)

    def _config_name(self) -> str:
        if self.predictor.kind is LevelTwoKind.ARVI:
            return f"arvi {self.value_mode.value}"
        return f"2-level {self.predictor.kind.value}"

    # -- public API ---------------------------------------------------------------

    def run(self, max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
            ) -> SimulationResult:
        """Simulate until HALT or the instruction budget; returns stats.

        Runs once per engine.  The per-instruction pipeline stages are
        one loop body working on local aliases of every hot structure —
        attribute traffic and per-stage call overhead dominate the
        pure-Python cycle model.  The timing state lives in locals, as
        in the replay kernel: the fetch and commit bandwidth cursors
        (``*_cycle``/``*_used``), the ROB/LSQ occupancy windows (deques
        of the occupants' commit cycles) and the functional-unit pools
        (min-heaps of each server's next free cycle).  Results are
        bit-for-bit identical to the frozen redirect goldens.
        """
        stream = self.core.run(max_instructions)

        # ---- hot locals ---------------------------------------------------
        decoded = self._decoded
        warmup = self.warmup_instructions
        line_mask = self._line_mask
        rename_offset = self._rename_offset
        frontend_depth = self._frontend_depth
        icache_hit_latency = self._icache_hit_latency
        alu_latency = self._alu_latency
        mult_latency = self._mult_latency
        div_latency = self._div_latency
        memory = self.memory
        mem_ilat = memory.instruction_latency
        mem_dlat = memory.data_latency
        rename_map = self.rename_map
        free_list = self.free_list
        ddt_allocate = self.ddt.allocate
        chains_info = self.chains._info
        shadow_record = self.shadow_map.record
        preg_ready = self._preg_ready
        preg_value = self._preg_value
        preg_pending = self._preg_pending
        preg_is_load = self._preg_is_load
        preg_hoist = self._preg_hoist_avail
        pending_stores = self._pending_stores
        retire_queue = self._retire_queue
        retire_append = retire_queue.append
        retire_until = self._retire_until
        predict_branch = self._predict_branch
        resolve_branch = self._resolve_branch
        hoist_available = self._hoist_available
        ras_push = self.ras.push
        ras_pop = self.ras.pop
        result = self.result
        observers = self.observers
        sampler = self.sampler
        sample_record = sampler.record if sampler is not None else None
        next_sample = sampler.first_threshold if sampler is not None else 0
        ddt_obj = self.ddt
        heappush = heapq.heappush
        heappop = heapq.heappop
        wrongpath = self._wrongpath

        config = self.config
        rob_capacity = config.rob_entries
        rob_commits: deque[int] = deque()
        rob_popleft = rob_commits.popleft
        rob_append = rob_commits.append
        lsq_capacity = config.lsq_entries
        lsq_commits: deque[int] = deque()
        lsq_popleft = lsq_commits.popleft
        lsq_append = lsq_commits.append
        fetch_width = config.fetch_width
        commit_width = config.commit_width
        fetch_cycle = fetch_used = commit_cycle = commit_used = 0
        alu_free = [0] * config.int_alus     # zeros are already a valid heap
        dcache_free = [0] * config.dcache_ports
        muldiv_free = [0] * config.int_muldiv

        fetch_barrier = self._fetch_barrier
        last_fetch_line = self._last_fetch_line
        last_commit = measured_start_cycle = 0

        for dyn in stream:
            seq = dyn.seq
            measured = seq >= warmup
            d: DecodedInst = decoded[dyn.pc]
            is_load = d.is_load
            is_store = d.is_store
            is_cond_branch = d.is_cond_branch

            # ---- fetch ---------------------------------------------------
            earliest = fetch_barrier
            if len(rob_commits) >= rob_capacity:
                free_at = rob_commits[0] + 1
                if free_at > earliest:
                    earliest = free_at
            is_mem = is_load or is_store
            if is_mem and len(lsq_commits) >= lsq_capacity:
                free_at = lsq_commits[0] + 1
                if free_at > earliest:
                    earliest = free_at
            byte_pc = d.byte_pc
            line = byte_pc & line_mask
            if line != last_fetch_line:
                last_fetch_line = line
                extra = mem_ilat(byte_pc) - icache_hit_latency
                if extra > 0:
                    earliest += extra
            if earliest > fetch_cycle:
                fetch_cycle = earliest
                fetch_used = 0
            if fetch_used >= fetch_width:
                fetch_cycle += 1
                fetch_used = 0
            fetch_used += 1
            fetch = fetch_cycle

            # ---- rename (early, one cycle after fetch) -------------------
            rename_cycle = fetch + rename_offset
            if retire_queue and retire_queue[0][3] <= rename_cycle:
                retire_until(rename_cycle)

            sources = d.sources
            n_sources = len(sources)
            if n_sources == 2:
                src_pregs = (rename_map[sources[0]],
                             rename_map[sources[1]])
            elif n_sources == 1:
                src_pregs = (rename_map[sources[0]],)
            elif n_sources == 0:
                src_pregs = ()
            else:  # pragma: no cover - no opcode has >2 sources
                src_pregs = tuple(rename_map[lr] for lr in sources)

            # Branch prediction reads the DDT *before* the branch is
            # inserted.
            decision = None
            if is_cond_branch:
                decision = predict_branch(dyn, src_pregs, fetch)

            dest_preg = None
            displaced = None
            if d.needs_dest:
                if not free_list:
                    raise RenameError("free list underflow")
                rd = d.rd
                dest_preg = free_list.popleft()
                displaced = rename_map[rd]
                rename_map[rd] = dest_preg
                shadow_record(dest_preg, rd)

            token = ddt_allocate(dest_preg, src_pregs)
            chains_info[token] = (dest_preg, src_pregs, is_load)

            # ---- issue / execute -----------------------------------------
            ready = dispatch = fetch + frontend_depth
            for preg in src_pregs:
                when = preg_ready[preg]
                if when > ready:
                    ready = when
            fu = d.fu_class
            if fu == FU_ALU:
                # Register/immediate ALU ops and conditional branches.
                server_free = heappop(alu_free)
                issue = ready if ready >= server_free else server_free
                heappush(alu_free, issue + 1)
                complete = issue + alu_latency
            elif fu == FU_LOAD:
                # Address generation on an ALU, then the D-cache access.
                server_free = heappop(alu_free)
                issue = ready if ready >= server_free else server_free
                heappush(alu_free, issue + 1)
                agen1 = issue + 1
                server_free = heappop(dcache_free)
                access = agen1 if agen1 >= server_free else server_free
                heappush(dcache_free, access + 1)
                addr = dyn.addr
                word = addr & ~3 if addr is not None else 0
                pending = pending_stores.get(word)
                if pending is not None and pending[1] > access:
                    # Forward from the in-flight store once its data
                    # is ready.
                    data_ready = pending[0]
                    complete = (access if access >= data_ready
                                else data_ready) + 1
                else:
                    complete = access + mem_dlat(addr or 0)
            elif fu == FU_STORE:
                # Address + data staged into the LSQ; memory written
                # at commit.
                server_free = heappop(alu_free)
                issue = ready if ready >= server_free else server_free
                heappush(alu_free, issue + 1)
                complete = issue + 1
            elif fu == FU_MULT:
                server_free = heappop(muldiv_free)
                issue = ready if ready >= server_free else server_free
                heappush(muldiv_free, issue + 1)
                complete = issue + mult_latency
            elif fu == FU_DIV:
                # Unpipelined: the divider stays busy for its latency.
                server_free = heappop(muldiv_free)
                issue = ready if ready >= server_free else server_free
                heappush(muldiv_free, issue + div_latency)
                complete = issue + div_latency
            else:
                # Jumps, NOP, HALT: resolved in the frontend/ALU in
                # one cycle.
                server_free = heappop(alu_free)
                issue = ready if ready >= server_free else server_free
                heappush(alu_free, issue + 1)
                complete = issue + 1

            # ---- commit --------------------------------------------------
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
            commit = commit_cycle
            last_commit = commit
            if len(rob_commits) >= rob_capacity:
                rob_popleft()
            rob_append(commit)
            if is_mem:
                if len(lsq_commits) >= lsq_capacity:
                    lsq_popleft()
                lsq_append(commit)

            # ---- writeback bookkeeping -----------------------------------
            res = dyn.result
            value = res if res is not None else 0
            if dest_preg is not None:
                preg_ready[dest_preg] = complete
                preg_value[dest_preg] = value
                preg_pending[dest_preg] = True
                preg_is_load[dest_preg] = is_load
                if is_load:
                    preg_hoist[dest_preg] = hoist_available(
                        dyn, src_pregs, complete, issue)
            if is_store and dyn.addr is not None:
                pending_stores[dyn.addr & ~3] = (complete, commit)

            retire_append((token, dest_preg, value, commit, displaced))

            # ---- control flow resolution ---------------------------------
            mispredicted = False
            if is_cond_branch:
                if wrongpath:
                    # A wrong-path episode starts fetching from this line
                    # (and restores every structure it touches in place).
                    self._last_fetch_line = last_fetch_line
                mispredicted = resolve_branch(
                    dyn, decision, fetch, complete, measured, token)
                fetch_barrier = self._fetch_barrier
            elif dyn.op == _OP_JAL:
                ras_push(dyn.pc + 1)
            elif dyn.op == _OP_JR:
                ras_pop(dyn.next_pc)
            # J/JAL targets are decoded in the frontend; JR is modelled
            # via a perfect RAS (its real accuracy is in the stats).

            # ---- statistics ----------------------------------------------
            if seq == warmup:
                measured_start_cycle = commit
            if measured:
                if is_load:
                    result.loads += 1
                elif is_store:
                    result.stores += 1

            if sample_record is not None and commit >= next_sample:
                next_sample = sample_record(
                    commit, seq, len(rob_commits), ddt_obj, src_pregs,
                    result.cond_branches, result.final_correct)

            if observers:
                record = TimingRecord(
                    seq=seq, pc=dyn.pc, op=dyn.op, fetch=fetch,
                    dispatch=dispatch, issue=issue, complete=complete,
                    commit=commit,
                    chain_length=self.ddt.chain_length(*src_pregs),
                    is_load=is_load, is_branch=is_cond_branch,
                    mispredicted=mispredicted)
                for observer in observers:
                    observer(record, dyn)

        result.total_instructions = self.core.instruction_count
        result.total_cycles = last_commit
        measured_count = self.core.instruction_count - self.warmup_instructions
        result.instructions = max(measured_count, 0)
        result.cycles = max(last_commit - measured_start_cycle, 0)
        result.memory = self.memory.stats()
        result.ras_accuracy = self.ras.accuracy
        return result

    def _hoist_available(self, dyn: DynInst, src_pregs: tuple[int, ...],
                         complete: int, issue: int) -> int:
        """Earliest cycle this load's value could exist under *load back*.

        Models hoisting the load to just after its address operands are
        ready, with aggressive run-time memory disambiguation (paper
        Section 5): the hoisted load still pays its actual memory latency
        and cannot start before a forwarding store's data exists.
        """
        operands = 0
        for preg in src_pregs:
            when = self._preg_ready[preg]
            if when > operands:
                operands = when
        actual_latency = complete - issue
        word = dyn.addr & ~3 if dyn.addr is not None else 0
        pending = self._pending_stores.get(word)
        hoist_start = operands
        if pending is not None:
            hoist_start = max(hoist_start, pending[0])
        return hoist_start + actual_latency

    # -- branch machinery ------------------------------------------------------------

    def _predict_branch(self, dyn: DynInst, src_pregs: tuple[int, ...],
                        fetch: int):
        request = None
        if self.predictor.kind is LevelTwoKind.ARVI:
            request = self._build_arvi_request(dyn, src_pregs, fetch)
        return self.predictor.decide(dyn.pc, request)

    def _build_arvi_request(self, dyn: DynInst,
                            src_pregs: tuple[int, ...],
                            fetch: int) -> ARVIRequest:
        ddt = self.ddt
        tokens = ddt.chain_tokens(*src_pregs)
        regset = self.chains.extract(tokens, branch_srcs=src_pregs)
        mode = self.value_mode
        views = []
        preg_pending = self._preg_pending
        logical_id = self.shadow_map.logical_id
        shadow_read = self.shadow_values.read
        value_mask = (1 << self.shadow_values.value_bits) - 1
        is_perfect = mode is ValueMode.PERFECT
        is_load_back = mode is ValueMode.LOAD_BACK
        for preg in sorted(regset):
            if not preg_pending[preg]:
                views.append(RegisterView(
                    preg=preg, logical=logical_id(preg),
                    available=True, value=shadow_read(preg)))
                continue
            if is_perfect or (
                    is_load_back
                    and self._preg_is_load[preg]
                    and self._preg_hoist_avail[preg] <= fetch):
                views.append(RegisterView(
                    preg=preg, logical=logical_id(preg),
                    available=True,
                    value=self._preg_value[preg] & value_mask))
            else:
                views.append(RegisterView(
                    preg=preg, logical=logical_id(preg),
                    available=False, value=0))
        return ARVIRequest(
            pc=dyn.pc,
            regset=views,
            branch_token=ddt.next_token,
            oldest_chain_token=ddt.oldest_chain_token(*src_pregs),
        )

    def _resolve_branch(self, dyn: DynInst, decision, fetch: int,
                        complete: int, measured: bool,
                        branch_token: int) -> bool:
        taken = bool(dyn.taken)
        final_correct = decision.final_pred == taken
        l1_correct = decision.l1_pred == taken

        if not final_correct:
            # Full misprediction: fetch restarts after the branch executes.
            self._fetch_barrier = max(
                self._fetch_barrier, complete + _REDIRECT_LATENCY)
            if self._wrongpath:
                # Materialize the wrong path fetched in the branch shadow,
                # then squash it (wrongpath mode; runs during warmup too —
                # pollution is a state effect, like cache training).
                self._run_wrong_path(dyn, decision, fetch, complete,
                                     branch_token)
        elif decision.override:
            # Correct override: the wrong-path fetches since the branch are
            # squashed when the level-2 prediction arrives.
            self._fetch_barrier = max(
                self._fetch_barrier, fetch + self.predictor.latency + 1)

        self.predictor.train(dyn.pc, decision, taken)

        result = self.result
        if decision.arvi is not None:
            # Every ARVI branch is one BVIT lookup, warmup included (as
            # kernel_run counts them).
            result.arvi_lookups += 1
            if decision.arvi.hit:
                result.arvi_bvit_hits += 1
        if measured:
            result.cond_branches += 1
            if final_correct:
                result.final_correct += 1
            if l1_correct:
                result.l1_correct += 1
            if decision.override:
                result.overrides += 1
                if final_correct and not l1_correct:
                    result.overrides_helpful += 1
                elif l1_correct and not final_correct:
                    result.overrides_harmful += 1
            if decision.used_l2:
                result.l2_used += 1
            if decision.arvi is not None:
                if decision.arvi.is_load_branch:
                    result.load.record(final_correct)
                else:
                    result.calculated.record(final_correct)
        return not final_correct

    # -- wrong-path speculation (DESIGN.md §2.2-§2.3) ---------------------------------

    def _wrong_path_predict(self, pc: int) -> bool:
        """Steer wrong-path fetch at a speculative branch.

        The level-1 predictor decides (the frontend never waits for level
        2), and its predicted outcome is shifted into the speculative
        histories — the corruption the checkpoint restore later repairs.
        """
        taken = bool(self.predictor.level1.predict(pc))
        self.predictor.speculate(pc, taken)
        return taken

    def _run_wrong_path(self, dyn: DynInst, decision, fetch: int,
                        complete: int, branch_token: int) -> None:
        """One wrong-path episode: checkpoint, fetch+rename+pollute, squash.

        The machine fetched down the predicted direction from the branch's
        fetch cycle until resolution, so the episode budget is fetch
        bandwidth x resolve delay (capped by ``wrongpath_fetch_limit`` and
        by DDT/rename capacity).  The instructions come from the episode
        store (:class:`~repro.speculation.wrongpath.EpisodeStore`); the
        first engine of a workload to mispredict this branch synthesizes
        them (:meth:`_synthesize`).  Wrong-path instructions rename into
        the DDT, touch the I-side for every new fetch line and the D-side
        for every load.  At the end the DDT rolls back to the branch
        (``rollback_to``, the paper's head-pointer walk-back) and every
        structure the episode wrote is restored from the checkpoint taken
        here: the rename map and the shadow map.  The shadow values need
        no checkpoint: they are written only at retire, which an episode
        never reaches.  The episode's physical registers return to the
        tail of the free list in allocation order.
        """
        config = self.config
        resolve_delay = complete + _REDIRECT_LATENCY - fetch
        budget = min(resolve_delay * config.fetch_width,
                     config.wrongpath_fetch_limit)
        if budget <= 0:
            return
        rename_map = self.rename_map
        free_list = self.free_list
        shadow_map = self.shadow_map
        saved_map = rename_map[:]
        saved_shadow_map = shadow_map.snapshot()
        result = self.result
        ddt = self.ddt
        chains = self.chains
        decoded = self._decoded
        taken_pregs: list[int] = []
        fetched = stores = branches = 0
        room = config.rob_entries - ddt.in_flight
        need = budget if budget < room else room
        if need > 0:
            episodes = self.episodes
            episode = episodes.get(dyn.seq, need)
            if episode is None:
                # The wrong path starts at the *predicted* target: the
                # taken target when the machine guessed taken, else the
                # fall-through.
                episode = self._synthesize(
                    dyn.seq,
                    dyn.inst.target if decision.final_pred else dyn.pc + 1)
            ddt_allocate = ddt.allocate
            chains_info = chains._info
            shadow_record = shadow_map.record
            for pc in episodes.prefix(episode, need):
                wd: DecodedInst = decoded[pc]
                needs_dest = wd.needs_dest
                if needs_dest and not free_list:
                    break  # frontend stalls on the free list until the squash
                fetched += 1
                sources = wd.sources
                n_sources = len(sources)
                if n_sources == 2:
                    src_pregs = (rename_map[sources[0]],
                                 rename_map[sources[1]])
                elif n_sources == 1:
                    src_pregs = (rename_map[sources[0]],)
                else:
                    src_pregs = ()
                dest_preg = None
                if needs_dest:
                    rd = wd.rd
                    dest_preg = free_list.popleft()
                    taken_pregs.append(dest_preg)
                    rename_map[rd] = dest_preg
                    shadow_record(dest_preg, rd)
                token = ddt_allocate(dest_preg, src_pregs)
                chains_info[token] = (dest_preg, src_pregs, wd.is_load)
                if wd.is_store:
                    # Stores wait in the LSQ and never reach memory.
                    stores += 1
                elif wd.is_cond_branch:
                    branches += 1
            if fetched:
                # I- and D-side pollution: every new fetch line and every
                # speculative load is a real access.
                result.wrong_path_loads += episodes.pollute(
                    episode, fetched, self.memory)
        result.wrong_path_instructions += fetched
        result.wrong_path_stores += stores
        result.wrong_path_branches += branches

        squashed = ddt.rollback_to(branch_token)
        for token in squashed:
            chains.discard(token)
        rename_map[:] = saved_map
        free_list.extend(taken_pregs)
        shadow_map.restore(saved_shadow_map)
        result.rollbacks += 1
        result.squashed_tokens += len(squashed)

    def _synthesize(self, seq: int, wrong_target: int) -> tuple:
        """Fill the store with branch ``seq``'s episode, down to the limit.

        The interpreter runs against the architectural registers and
        memory at the branch, steered by the level-1 predictor, whose
        speculative histories are checkpointed here and restored after
        the fill.
        """
        predictor = self.predictor
        saved_history = predictor.history_state()
        core = WrongPathCore(self.program, self.core.registers,
                             self.core.memory, wrong_target,
                             self._wrong_path_predict)
        episode = self.episodes.fill(
            seq, core, self.config.wrongpath_fetch_limit,
            self._last_fetch_line, self._line_mask)
        predictor.restore_history(saved_history)
        return episode

    # -- DDT retirement -----------------------------------------------------------------

    def _retire_until(self, cycle: int) -> None:
        """Commit DDT entries whose commit cycle has passed."""
        queue = self._retire_queue
        commit_oldest = self.ddt.commit_oldest
        discard = self.chains.discard
        shadow_write = self.shadow_values.write
        preg_pending = self._preg_pending
        release = self.free_list.append
        popleft = queue.popleft
        while queue and queue[0][_RETIRE_COMMIT] <= cycle:
            token, dest, value, _commit, displaced = popleft()
            commit_oldest()
            discard(token)
            if dest is not None:
                shadow_write(dest, value)
                preg_pending[dest] = False
            if displaced is not None:
                release(displaced)


# -- convenience constructors ------------------------------------------------------


def build_predictor(kind: LevelTwoKind, config: MachineConfig,
                    arvi_config: ARVIConfig | None = None) -> TwoLevelPredictor:
    """Assemble the paper's predictor configurations."""
    latencies = config.predictor_latencies
    if kind is LevelTwoKind.HYBRID:
        return TwoLevelPredictor(
            level1_gskew(), kind, level2_hybrid=level2_gskew(),
            latency=latencies.level2_hybrid)
    if kind is LevelTwoKind.ARVI:
        return TwoLevelPredictor(
            level1_gskew(), kind,
            arvi=ARVIPredictor(arvi_config or ARVIConfig()),
            confidence=ConfidenceEstimator(),
            latency=latencies.level2_arvi)
    return TwoLevelPredictor(level1_gskew(), LevelTwoKind.NONE)


def simulate(program: Program, config: MachineConfig,
             kind: LevelTwoKind = LevelTwoKind.HYBRID,
             *, value_mode: ValueMode = ValueMode.CURRENT,
             warmup_instructions: int = 0,
             max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
             arvi_config: ARVIConfig | None = None,
             observers: list[Observer] | None = None,
             ddt_cross_check: bool = False) -> SimulationResult:
    """One-call simulation helper used by examples and experiments."""
    predictor = build_predictor(kind, config, arvi_config)
    engine = PipelineEngine(
        program, config, predictor, value_mode=value_mode,
        warmup_instructions=warmup_instructions, observers=observers,
        ddt_cross_check=ddt_cross_check)
    return engine.run(max_instructions)
