"""Criticality estimation (paper Section 3, after Srinivasan/Fields/Bodik).

The paper suggests dependence-chain information can make critical-
instruction detection *directed* instead of sampled.  We measure ground
truth from the timing engine — an instruction's **slack** is how long its
completion could be delayed without delaying commit — and evaluate how
well the DDT chain-length signal identifies the low-slack (critical)
population.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pipeline.engine import TimingRecord


@dataclass
class CriticalityStats:
    records: int = 0
    critical: int = 0
    flagged: int = 0
    flagged_critical: int = 0

    @property
    def precision(self) -> float:
        return self.flagged_critical / self.flagged if self.flagged else 0.0

    @property
    def recall(self) -> float:
        return self.flagged_critical / self.critical if self.critical else 0.0

    @property
    def base_rate(self) -> float:
        return self.critical / self.records if self.records else 0.0


class CriticalityObserver:
    """Engine observer comparing chain-length flags against slack.

    ``slack_threshold`` defines ground-truth criticality: commit follows
    completion within that many cycles (the instruction is on or near the
    commit-critical path).  ``chain_threshold`` is the DDT-based detector:
    flag instructions whose source dependence chain is at least that long.
    """

    def __init__(self, *, slack_threshold: int = 0,
                 chain_threshold: int = 3) -> None:
        self.slack_threshold = slack_threshold
        self.chain_threshold = chain_threshold
        self.stats = CriticalityStats()
        self._slack_sum = 0

    def __call__(self, record: TimingRecord, dyn) -> None:
        stats = self.stats
        stats.records += 1
        slack = record.commit - record.complete - 1
        self._slack_sum += slack
        is_critical = slack <= self.slack_threshold
        is_flagged = record.chain_length >= self.chain_threshold
        if is_critical:
            stats.critical += 1
        if is_flagged:
            stats.flagged += 1
            if is_critical:
                stats.flagged_critical += 1

    @property
    def mean_slack(self) -> float:
        if not self.stats.records:
            return 0.0
        return self._slack_sum / self.stats.records

    def report(self) -> str:
        stats = self.stats
        return (
            f"instructions={stats.records} critical={stats.critical} "
            f"(base rate {stats.base_rate:.2f}) flagged={stats.flagged} "
            f"precision={stats.precision:.2f} recall={stats.recall:.2f} "
            f"mean slack={self.mean_slack:.1f}"
        )
