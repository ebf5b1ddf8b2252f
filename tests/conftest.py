"""Shared fixtures: small programs and machines used across test modules."""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro import obs
from repro.isa import AsmBuilder, nez
from repro.isa.regs import s0, s1, t0, t1, t2, zero
from repro.obs.ledger import read_events
from repro.pipeline.config import machine_for_depth


@pytest.fixture(scope="session", autouse=True)
def isolated_result_cache(tmp_path_factory):
    """Point the experiment-service result cache at a throwaway directory.

    The unit suite must always *compute* results — replaying from the
    repo-level persistent cache could mask simulation changes whose
    author forgot to bump ``PLAN_SCHEMA_VERSION``, and test runs should
    not mutate ``results/cache/`` as a side effect.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("result-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session", autouse=True)
def isolated_obs_dir(tmp_path_factory):
    """Point telemetry run ledgers at a throwaway directory.

    Telemetry is off by default, but CI runs one tier-1 leg with
    ``REPRO_OBS=1`` (the suite must pass identically with the flight
    recorder on), and no test run may write into ``results/obs/``.
    """
    previous = os.environ.get("REPRO_OBS_DIR")
    os.environ["REPRO_OBS_DIR"] = str(tmp_path_factory.mktemp("obs"))
    yield
    if previous is None:
        os.environ.pop("REPRO_OBS_DIR", None)
    else:
        os.environ["REPRO_OBS_DIR"] = previous


def count_tiers(root, run) -> tuple:
    """Call ``run()`` under a private telemetry run; count its tiers.

    Returns ``(run's return value, {tier: points})`` where a tier is the
    name of a point's ``replay`` (kernel) or ``live`` (engine) phase
    span — the ledger is the one record of which tier ran a point.
    """
    telemetry = obs.start_run(label="tiers", root=root)
    try:
        value = run()
    finally:
        ledger = obs.close_run(telemetry)
    tiers = Counter(record["name"] for record in read_events(ledger)
                    if record["event"] == "span_start"
                    and record["kind"] == "phase"
                    and record["name"] in ("replay", "live"))
    return value, dict(tiers)


@pytest.fixture
def tiny_machine():
    """The 20-stage paper machine."""
    return machine_for_depth(20)


def build_counted_loop(iterations: int = 10) -> "Program":
    """sum(1..n) via a count-down loop; result in t1."""
    b = AsmBuilder("counted-loop")
    b.label("main")
    b.li(t0, iterations)
    b.li(t1, 0)
    with b.while_(nez(t0)):
        b.add(t1, t1, t0)
        b.addi(t0, t0, -1)
    b.halt()
    return b.build()


def build_memory_loop(words: int = 16) -> "Program":
    """Writes i*3 to a table then sums it back; result in t2."""
    b = AsmBuilder("memory-loop")
    b.data_space("table", words)
    b.label("main")
    b.la(s0, "table")
    with b.for_range(t0, 0, words):
        b.slli(t1, t0, 2)
        b.add(t1, t1, s0)
        b.add(t2, t0, t0)
        b.add(t2, t2, t0)
        b.sw(t2, t1, 0)
    b.li(t2, 0)
    with b.for_range(t0, 0, words):
        b.slli(t1, t0, 2)
        b.add(t1, t1, s0)
        b.lw(t1, t1, 0)
        b.add(t2, t2, t1)
    b.halt()
    return b.build()


def unpredictable_branch_program(iterations: int = 300) -> "Program":
    """Branch on the low bit of an LCG — effectively random."""
    b = AsmBuilder("lcg-branch")
    b.label("main")
    b.li(s0, 12345)
    b.li(s1, 0)
    with b.for_range(t0, 0, iterations):
        b.li(t1, 1103515245)
        b.mult(s0, s0, t1)
        b.addi(s0, s0, 12345)
        b.srli(t2, s0, 16)
        b.andi(t2, t2, 1)
        with b.if_(nez(t2)):
            b.addi(s1, s1, 1)
    b.halt()
    return b.build()


@pytest.fixture
def counted_loop_program():
    return build_counted_loop()


@pytest.fixture
def memory_loop_program():
    return build_memory_loop()
