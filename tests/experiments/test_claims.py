"""The paper's claims (``repro.experiments.claims``) are not vacuous.

Every claim holds on a synthetic pair of views built to satisfy them
all, and a perturbation aimed at one claim is reported as ``broken``.
A claim whose depth or benchmark is missing is ``not evaluated``.
The views come from :func:`~repro.experiments.aggregate.build_views`
over stand-in results, so the claims read the real view bodies.
"""

from types import SimpleNamespace

import pytest

from repro.experiments.aggregate import build_views
from repro.experiments.claims import (
    BROKEN,
    CLAIMS,
    HOLDS,
    NOT_EVALUATED,
    evaluate,
)
from repro.experiments.plan import CONFIGURATIONS, ExperimentPoint
from repro.pipeline.config import PIPELINE_DEPTHS
from repro.workloads.registry import BENCHMARKS

#: Mean normalized IPC per configuration; m88ksim gains most.
IPC = {"baseline": 1.0, "current": 1.10, "load back": 1.11, "perfect": 1.12}
M88KSIM_IPC = {"baseline": 1.0, "current": 1.30, "load back": 1.31,
               "perfect": 1.32}
ACCURACY = {"baseline": 0.90, "current": 0.95, "load back": 0.95,
            "perfect": 0.96}


def good_table() -> dict:
    """(benchmark, configuration, depth) -> the numbers a view reads."""
    return {
        (bench, config, depth): {
            "ipc": (M88KSIM_IPC if bench == "m88ksim" else IPC)[config],
            "accuracy": ACCURACY[config],
            "load_rate": 0.6, "calculated": 0.995, "load": 0.95,
        }
        for bench in BENCHMARKS for config in CONFIGURATIONS
        for depth in PIPELINE_DEPTHS
    }


def statuses(table: dict) -> dict:
    results = {
        ExperimentPoint(bench, config, depth): SimpleNamespace(
            ipc=cell["ipc"], prediction_accuracy=cell["accuracy"],
            load_branch_rate=cell["load_rate"],
            calculated=SimpleNamespace(accuracy=cell["calculated"]),
            load=SimpleNamespace(accuracy=cell["load"]))
        for (bench, config, depth), cell in table.items()
    }
    views = build_views(results, views=("figure5", "figure6")).views
    return {outcome.claim: outcome.status
            for outcome in evaluate(views["figure5"], views["figure6"])}


M88K = {"benches": ["m88ksim"]}

#: Claim name -> (field, value, where): setting ``field`` to ``value``
#: breaks the claim.  ``where`` narrows the cells set; by default every
#: benchmark's ``current`` cell at the claim's own depth, else 20.
BREAK = {
    "current beats baseline on mean IPC": ("ipc", 0.9, {}),
    "m88ksim is among the top two gainers": ("ipc", 1.0, M88K),
    "perfect >= current - 1.0 (% IPC gain)":
        ("ipc", 1.0, {"config": "perfect"}),
    "ARVI accuracy beats baseline": ("accuracy", 0.8, {}),
    "current gain > 3.0%": ("ipc", 1.02, {}),
    "load back >= current - 1.5 (% IPC gain)":
        ("ipc", 1.0, {"config": "load back"}),
    "current <= load back <= perfect (% IPC gain)":
        ("ipc", 1.5, {"config": "load back"}),
    "current gain at depth 60 >= at depth 20": ("ipc", 1.05, {"depth": 60}),
    "mean load-branch rate at depth 20 > 0.35": ("load_rate", 0.2, {}),
    "mean load-branch rate at depth 60 >= at depth 20 - 0.02":
        ("load_rate", 0.5, {"depth": 60}),
    "calculated beats load accuracy on the mean": ("load", 0.999, {}),
    "calculated beats load accuracy on >= 7 of 8 benchmarks":
        ("load", 0.999, {"benches": ["gcc", "go"]}),
    "m88ksim at depth 20: ARVI accuracy > baseline + 0.02":
        ("accuracy", 0.91, M88K),
    "m88ksim at depth 20: IPC gain > 10%": ("ipc", 1.05, M88K),
    "m88ksim at depth 20: calculated accuracy > 0.99":
        ("calculated", 0.98, M88K),
    "m88ksim at depth 20: load-branch rate > 0.5": ("load_rate", 0.4, M88K),
    "m88ksim at depth 20: load accuracy > 0.9": ("load", 0.85, M88K),
}


def test_every_claim_holds_on_the_good_views():
    assert set(statuses(good_table()).values()) == {HOLDS}


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.label)
def test_a_perturbed_view_breaks_the_claim(claim):
    field, value, where = BREAK[claim.name]
    table = good_table()
    for bench in where.get("benches", BENCHMARKS):
        key = (bench, where.get("config", "current"),
               where.get("depth", claim.depth or 20))
        table[key][field] = value
    assert statuses(table)[claim] == BROKEN


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.label)
def test_a_claim_without_its_inputs_is_not_evaluated(claim):
    """Every claim reads m88ksim (suite means need all eight)."""
    table = {key: cell for key, cell in good_table().items()
             if key[0] != "m88ksim"}
    assert statuses(table)[claim] == NOT_EVALUATED


def test_a_missing_baseline_leaves_its_depth_not_evaluated():
    table = good_table()
    del table[("gcc", "baseline", 40)]
    outcome = statuses(table)
    for claim in CLAIMS:
        assert outcome[claim] == (NOT_EVALUATED if claim.depth == 40
                                  else HOLDS), claim.label
