"""The paper's claims, stated once, as predicates over the figure views.

Each :class:`Claim` is a name, the paper section it comes from and a
predicate over the ``figure5`` / ``figure6`` view bodies
(:mod:`repro.experiments.aggregate`).  :func:`evaluate` reports every
claim as ``holds``, ``broken`` or ``not evaluated``: a claim whose
depth, benchmark or configuration is missing from the views is not
evaluated, never vacuously true.  Suite-level claims need all eight
benchmarks at their depth.

The claims gate the *shape* of the results (who wins, how the gain
moves with depth), not the paper's magnitudes: the workloads are
synthetic stand-ins.  :func:`render_report` prints the gap to the
paper's +12.6% / +15.6% without gating on it.  DESIGN.md §2.7 lists
each claim's measured values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.experiments.report import arithmetic_mean, format_table
from repro.pipeline.config import PIPELINE_DEPTHS
from repro.workloads.registry import BENCHMARKS

HOLDS = "holds"
BROKEN = "broken"
NOT_EVALUATED = "not evaluated"

#: Section 5: mean IPC gain of ARVI current value over the baseline, %.
PAPER_GAIN_PCT = {20: 12.6, 60: 15.6}


class Missing(LookupError):
    """A claim's input is not in the views."""


class Views:
    """Read access to the two view bodies; raises :class:`Missing`."""

    def __init__(self, figure5: dict, figure6: dict) -> None:
        self.figure5 = figure5
        self.figure6 = figure6

    def cell(self, depth: int, bench: str, config: str) -> dict:
        """One Figure 6 cell that has a baseline to normalize by."""
        try:
            body = self.figure6["depths"][str(depth)][bench][config]
        except KeyError:
            raise Missing(f"figure6 has no {bench}/{config} at depth "
                          f"{depth}") from None
        if body["normalized_ipc"] is None:
            raise Missing(f"figure6 has no baseline for {bench} at depth "
                          f"{depth}")
        return body

    def suite(self, depth: int, config: str) -> dict[str, dict]:
        return {bench: self.cell(depth, bench, config)
                for bench in BENCHMARKS}

    def mean_ipc(self, depth: int, config: str) -> float:
        """The suite's mean normalized IPC (the view's own mean)."""
        self.suite(depth, config)
        return self.figure6["mean_normalized_ipc"][str(depth)][config]

    def gain(self, depth: int, config: str) -> float:
        """Mean IPC gain over the baseline, in percent."""
        return 100.0 * (self.mean_ipc(depth, config) - 1.0)

    def mean_accuracy(self, depth: int, config: str) -> float:
        return arithmetic_mean([body["accuracy"] for body in
                                self.suite(depth, config).values()])

    def load_rate(self, bench: str, depth: int) -> float:
        try:
            return self.figure5["load_rates"][bench][str(depth)]
        except KeyError:
            raise Missing(f"figure5 has no {bench} at depth {depth}") \
                from None

    def mean_load_rate(self, depth: int) -> float:
        return arithmetic_mean([self.load_rate(bench, depth)
                                for bench in BENCHMARKS])

    def split(self, bench: str, cls: str) -> float:
        """Figure 5(b): ``calculated`` or ``load`` accuracy, which the
        view takes at the shallowest depth run, here depth 20."""
        self.load_rate(bench, 20)
        return self.figure5["accuracy"][bench][cls]

    def mean_split(self, cls: str) -> float:
        return arithmetic_mean([self.split(bench, cls)
                                for bench in BENCHMARKS])


@dataclass(frozen=True)
class Claim:
    """``check(views, depth)`` gives whether the claim holds and the
    numbers it compared; ``depth`` is None for a cross-depth claim."""

    name: str
    section: str
    check: Callable[[Views, "int | None"], "tuple[bool, str]"]
    depth: int | None = None

    @property
    def label(self) -> str:
        return self.name if self.depth is None \
            else f"depth {self.depth}: {self.name}"


class Outcome(NamedTuple):
    claim: Claim
    status: str
    detail: str


def _cmp(lhs: float, op: str, rhs: float) -> tuple[bool, str]:
    """``lhs > rhs`` or ``lhs >= rhs``, and the numbers compared."""
    holds = lhs > rhs if op == ">" else lhs >= rhs
    return holds, f"{lhs:.4g} {op} {rhs:.4g}"


def _m88ksim_top_two(views: Views, depth: int) -> tuple[bool, str]:
    gains = {bench: body["normalized_ipc"]
             for bench, body in views.suite(depth, "current").items()}
    top = sorted(gains, key=gains.get)[-2:]
    return "m88ksim" in top, f"top two: {', '.join(reversed(top))}"


def _load_back_between(views: Views, depth: int) -> tuple[bool, str]:
    current, load_back, perfect = (views.gain(depth, config) for config in
                                   ("current", "load back", "perfect"))
    return (current <= load_back <= perfect,
            f"{current:.4g} <= {load_back:.4g} <= {perfect:.4g}")


FIGURE6 = "Section 5, Figure 6"
FIGURE5 = "Section 5, Figure 5"
M88KSIM = "Section 6, m88ksim"


def _per_depth(name: str, check) -> tuple[Claim, ...]:
    return tuple(Claim(name, FIGURE6, check, depth)
                 for depth in PIPELINE_DEPTHS)


CLAIMS: tuple[Claim, ...] = (
    *_per_depth("current beats baseline on mean IPC", lambda v, d: _cmp(
        v.mean_ipc(d, "current"), ">", v.mean_ipc(d, "baseline"))),
    *_per_depth("m88ksim is among the top two gainers", _m88ksim_top_two),
    *_per_depth("perfect >= current - 1.0 (% IPC gain)", lambda v, d: _cmp(
        v.gain(d, "perfect"), ">=", v.gain(d, "current") - 1.0)),
    *_per_depth("ARVI accuracy beats baseline", lambda v, d: _cmp(
        v.mean_accuracy(d, "current"), ">", v.mean_accuracy(d, "baseline"))),
    *_per_depth("current gain > 3.0%",
                lambda v, d: _cmp(v.gain(d, "current"), ">", 3.0)),
    *_per_depth("load back >= current - 1.5 (% IPC gain)", lambda v, d: _cmp(
        v.gain(d, "load back"), ">=", v.gain(d, "current") - 1.5)),
    *_per_depth("current <= load back <= perfect (% IPC gain)",
                _load_back_between),
    Claim("current gain at depth 60 >= at depth 20", FIGURE6, lambda v, _:
          _cmp(v.gain(60, "current"), ">=", v.gain(20, "current"))),
    Claim("mean load-branch rate at depth 20 > 0.35", FIGURE5,
          lambda v, _: _cmp(v.mean_load_rate(20), ">", 0.35)),
    Claim("mean load-branch rate at depth 60 >= at depth 20 - 0.02",
          FIGURE5, lambda v, _: _cmp(v.mean_load_rate(60), ">=",
                                     v.mean_load_rate(20) - 0.02)),
    Claim("calculated beats load accuracy on the mean", FIGURE5,
          lambda v, _: _cmp(v.mean_split("calculated"), ">",
                            v.mean_split("load"))),
    Claim("calculated beats load accuracy on >= 7 of 8 benchmarks", FIGURE5,
          lambda v, _: _cmp(sum(v.split(bench, "calculated")
                                > v.split(bench, "load")
                                for bench in BENCHMARKS),
                            ">=", len(BENCHMARKS) - 1)),
    Claim("m88ksim at depth 20: ARVI accuracy > baseline + 0.02", M88KSIM,
          lambda v, _: _cmp(v.cell(20, "m88ksim", "current")["accuracy"],
                            ">", v.cell(20, "m88ksim", "baseline")["accuracy"]
                            + 0.02)),
    Claim("m88ksim at depth 20: IPC gain > 10%", M88KSIM, lambda v, _: _cmp(
        100.0 * (v.cell(20, "m88ksim", "current")["normalized_ipc"] - 1.0),
        ">", 10.0)),
    Claim("m88ksim at depth 20: calculated accuracy > 0.99", M88KSIM,
          lambda v, _: _cmp(v.split("m88ksim", "calculated"), ">", 0.99)),
    Claim("m88ksim at depth 20: load-branch rate > 0.5", M88KSIM,
          lambda v, _: _cmp(v.load_rate("m88ksim", 20), ">", 0.5)),
    Claim("m88ksim at depth 20: load accuracy > 0.9", M88KSIM,
          lambda v, _: _cmp(v.split("m88ksim", "load"), ">", 0.9)),
)


def evaluate(figure5: dict, figure6: dict) -> list[Outcome]:
    """Every claim of :data:`CLAIMS` over the two view bodies."""
    views = Views(figure5, figure6)
    outcomes = []
    for claim in CLAIMS:
        try:
            holds, detail = claim.check(views, claim.depth)
        except Missing as missing:
            outcomes.append(Outcome(claim, NOT_EVALUATED, str(missing)))
        else:
            outcomes.append(Outcome(claim, HOLDS if holds else BROKEN,
                                    detail))
    return outcomes


def render_report(outcomes: list[Outcome], figure6: dict) -> str:
    """The claims table, then the mean current-value gain beside the
    paper's."""
    table = format_table(
        ["claim", "status", "observed", "section"],
        [[outcome.claim.label, outcome.status, outcome.detail,
          outcome.claim.section] for outcome in outcomes],
        title="The paper's claims")
    counts = ", ".join(f"{sum(o.status == status for o in outcomes)} "
                       f"{status}"
                       for status in (HOLDS, BROKEN, NOT_EVALUATED))
    lines = [table, "", f"{len(outcomes)} claims: {counts}", "",
             "Mean IPC gain of ARVI current value (reported, not gated):"]
    views = Views({}, figure6)
    for depth in PIPELINE_DEPTHS:
        try:
            gain = views.gain(depth, "current")
        except Missing:
            continue
        paper = PAPER_GAIN_PCT.get(depth)
        lines.append(f"  depth {depth}: {gain:+.2f}%" + (
            "" if paper is None
            else f" (paper {paper:+.1f}%, gap {gain - paper:+.2f} points)"))
    return "\n".join(lines)
