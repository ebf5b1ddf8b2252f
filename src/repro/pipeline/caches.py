"""Set-associative caches, TLBs and the memory hierarchy timing model.

These are *timing* models only: data values come from the functional core,
so the caches track tags and recency, not contents.  ``MemoryHierarchy``
composes L1I/L1D over a unified L2 over main memory and returns the access
latency for a given address, performing fills along the way.

Wrong-path accesses (``wrong_path=True``, issued by the engine's
``wrongpath`` speculation mode) mutate tag/recency state exactly like
demand accesses — that *is* the pollution/prefetch effect being modelled —
but are counted separately, so demand miss rates stay comparable across
speculation modes and the pollution itself is measurable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.pipeline.config import CacheConfig, MachineConfig, TLBConfig


class SetAssociativeCache:
    """LRU set-associative cache over byte addresses (tags only)."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._line_shift = config.line_bytes.bit_length() - 1
        if 1 << self._line_shift != config.line_bytes:
            raise ValueError("line size must be a power of two")
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self.hit_latency = config.hit_latency
        # Each set is a dict tag -> recency counter; dict order is not used,
        # an explicit counter implements exact LRU.
        self._sets: list[dict[int, int]] = [dict() for _ in range(self._num_sets)]
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.wrong_path_hits = 0
        self.wrong_path_misses = 0

    def _locate(self, addr: int) -> tuple[dict[int, int], int]:
        line = addr >> self._line_shift
        return self._sets[line % self._num_sets], line // self._num_sets

    def access(self, addr: int, *, wrong_path: bool = False) -> bool:
        """Look up and fill on miss; returns True on hit.

        ``wrong_path`` accesses update tag/recency state identically (a
        wrong-path fill is a real fill — pollution) but count into the
        separate wrong-path statistics.
        """
        tick = self._tick + 1
        self._tick = tick
        cache_set, tag = self._locate(addr)
        if tag in cache_set:
            cache_set[tag] = tick
            if wrong_path:
                self.wrong_path_hits += 1
            else:
                self.hits += 1
            return True
        if wrong_path:
            self.wrong_path_misses += 1
        else:
            self.misses += 1
        if len(cache_set) >= self._assoc:
            victim = min(cache_set, key=cache_set.__getitem__)
            del cache_set[victim]
        cache_set[tag] = tick
        return False

    def probe(self, addr: int) -> bool:
        """Look up without filling or touching recency."""
        cache_set, tag = self._locate(addr)
        return tag in cache_set

    def invalidate_all(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class TLB:
    """LRU set-associative TLB; returns the added miss penalty."""

    def __init__(self, config: TLBConfig) -> None:
        self.config = config
        self._page_shift = config.page_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        self._sets: list[dict[int, int]] = [dict() for _ in range(self._num_sets)]
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.wrong_path_hits = 0
        self.wrong_path_misses = 0

    def access(self, addr: int, *, wrong_path: bool = False) -> int:
        """Translate; returns 0 on hit, the miss penalty on a TLB miss."""
        self._tick += 1
        page = addr >> self._page_shift
        tlb_set = self._sets[page % self._num_sets]
        tag = page // self._num_sets
        if tag in tlb_set:
            tlb_set[tag] = self._tick
            if wrong_path:
                self.wrong_path_hits += 1
            else:
                self.hits += 1
            return 0
        if wrong_path:
            self.wrong_path_misses += 1
        else:
            self.misses += 1
        if len(tlb_set) >= self.config.assoc:
            victim = min(tlb_set, key=tlb_set.__getitem__)
            del tlb_set[victim]
        tlb_set[tag] = self._tick
        return self.config.miss_penalty


@dataclass
class MemoryStats:
    """Aggregated hierarchy statistics for reporting."""

    l1i_hits: int = 0
    l1i_misses: int = 0
    l1d_hits: int = 0
    l1d_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    itlb_misses: int = 0
    dtlb_misses: int = 0
    # Wrong-path (speculative) accesses, counted separately so demand miss
    # rates stay comparable across speculation modes; a wrong-path miss is
    # a fill performed for a squashed instruction — the pollution metric.
    wrong_path_l1i_accesses: int = 0
    wrong_path_l1i_misses: int = 0
    wrong_path_l1d_accesses: int = 0
    wrong_path_l1d_misses: int = 0
    wrong_path_l2_misses: int = 0
    wrong_path_itlb_misses: int = 0
    wrong_path_dtlb_misses: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MemoryStats":
        # Strict: a missing counter means a truncated/stale payload, and
        # the result cache must treat that as a corrupt-entry miss.
        return cls(**{f.name: int(data[f.name])
                      for f in dataclasses.fields(cls)})


class MemoryHierarchy:
    """Two-level cache + TLB timing model.

    ``instruction_latency(addr)`` and ``data_latency(addr)`` return the
    total access latency in cycles for the given byte address, updating
    cache/TLB state.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.l1i = SetAssociativeCache(config.icache)
        self.l1d = SetAssociativeCache(config.dcache)
        self.l2 = SetAssociativeCache(config.l2cache)
        self.itlb = TLB(config.itlb)
        self.dtlb = TLB(config.dtlb)

    def _access(self, level1: SetAssociativeCache, tlb: TLB,
                addr: int, wrong_path: bool = False) -> int:
        latency = tlb.access(addr, wrong_path=wrong_path)
        l1_hit_latency = level1.hit_latency
        if level1.access(addr, wrong_path=wrong_path):
            return latency + l1_hit_latency
        latency += l1_hit_latency  # detect the miss
        l2 = self.l2
        if l2.access(addr, wrong_path=wrong_path):
            return latency + l2.hit_latency
        return latency + l2.hit_latency + self.config.memory_latency

    def instruction_latency(self, addr: int, *, wrong_path: bool = False) -> int:
        return self._access(self.l1i, self.itlb, addr, wrong_path)

    def data_latency(self, addr: int, *, wrong_path: bool = False) -> int:
        return self._access(self.l1d, self.dtlb, addr, wrong_path)

    def stats(self) -> MemoryStats:
        return MemoryStats(
            l1i_hits=self.l1i.hits, l1i_misses=self.l1i.misses,
            l1d_hits=self.l1d.hits, l1d_misses=self.l1d.misses,
            l2_hits=self.l2.hits, l2_misses=self.l2.misses,
            itlb_misses=self.itlb.misses, dtlb_misses=self.dtlb.misses,
            wrong_path_l1i_accesses=(self.l1i.wrong_path_hits
                                     + self.l1i.wrong_path_misses),
            wrong_path_l1i_misses=self.l1i.wrong_path_misses,
            wrong_path_l1d_accesses=(self.l1d.wrong_path_hits
                                     + self.l1d.wrong_path_misses),
            wrong_path_l1d_misses=self.l1d.wrong_path_misses,
            wrong_path_l2_misses=self.l2.wrong_path_misses,
            wrong_path_itlb_misses=self.itlb.wrong_path_misses,
            wrong_path_dtlb_misses=self.dtlb.wrong_path_misses,
        )
