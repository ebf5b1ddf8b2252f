"""The Branch Value Information Table (paper Section 4.1).

A 4-way set-associative RAM indexed by the XOR hash of register values and
branch PC.  Each entry holds:

* the 3-bit register-set **id tag** (sum of logical register ids),
* the 5-bit **depth tag** (dependence-chain span — loop disambiguation),
* a 2-bit saturating **outcome counter** (the prediction),
* a 3-bit Heil-style **performance counter** driving replacement: it
  rises while the entry predicts correctly and falls when it mispredicts;
  the way with the lowest performance is evicted on a set conflict.
"""

from __future__ import annotations

from dataclasses import dataclass

COUNTER_MAX = 3   # 2-bit outcome counter
PERF_MAX = 7      # 3-bit performance counter
PERF_INIT = 4


@dataclass(slots=True)
class BVITEntry:
    id_tag: int
    depth_tag: int
    counter: int        # 2-bit saturating outcome counter (>=2 => taken)
    perf: int           # 3-bit replacement quality counter
    last_used: int = 0  # recency, breaks perf ties


class BVIT:
    """Set-associative branch value information table."""

    def __init__(self, sets: int = 2048, ways: int = 4) -> None:
        if sets < 1 or ways < 1:
            raise ValueError("sets and ways must be positive")
        self.sets = sets
        self.ways = ways
        self._table: list[list[BVITEntry]] = [[] for _ in range(sets)]
        self._tick = 0

    def _find(self, index: int, id_tag: int,
              depth_tag: int) -> BVITEntry | None:
        for entry in self._table[index % self.sets]:
            if entry.id_tag == id_tag and entry.depth_tag == depth_tag:
                return entry
        return None

    def lookup(self, index: int, id_tag: int,
               depth_tag: int) -> bool | None:
        """Tag-checked prediction: True/False on hit, None on miss."""
        self._tick += 1
        entry = self._find(index, id_tag, depth_tag)
        if entry is None:
            return None
        entry.last_used = self._tick
        return entry.counter >= 2

    def update(self, index: int, id_tag: int, depth_tag: int, taken: bool,
               *, allocate: bool = True) -> None:
        """Train the matching entry; optionally allocate on a miss.

        Allocation gating implements the paper's filtering: the level-1
        predictor handles easy branches, so the caller may restrict new
        BVIT entries to low-confidence (difficult) branches.
        """
        self._tick += 1
        entry = self._find(index, id_tag, depth_tag)
        if entry is not None:
            was_correct = (entry.counter >= 2) == taken
            if taken:
                if entry.counter < COUNTER_MAX:
                    entry.counter += 1
            elif entry.counter > 0:
                entry.counter -= 1
            if was_correct:
                if entry.perf < PERF_MAX:
                    entry.perf += 1
            elif entry.perf > 0:
                entry.perf -= 1
            entry.last_used = self._tick
            return
        if not allocate:
            return
        bucket = self._table[index % self.sets]
        new = BVITEntry(
            id_tag=id_tag,
            depth_tag=depth_tag,
            counter=2 if taken else 1,
            perf=PERF_INIT,
            last_used=self._tick,
        )
        if len(bucket) >= self.ways:
            victim = min(bucket, key=lambda e: (e.perf, e.last_used))
            bucket.remove(victim)
        bucket.append(new)

    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._table)

    @property
    def entry_bits(self) -> int:
        """id tag (3) + depth tag (5) + perf (3) + outcome counter (2)."""
        return 3 + 5 + 3 + 2

    @property
    def storage_bits(self) -> int:
        return self.sets * self.ways * self.entry_bits
