"""Shared infrastructure for the synthetic SPEC95-int workloads.

Each workload module exposes ``build(scale=1.0, seed=...) -> Program``.
The kernels are written against :class:`~repro.isa.builder.AsmBuilder` and
bake seeded input data into the program's data segment, so every run is
deterministic.  ``scale`` multiplies the dynamic instruction count
(resolution of the experiments) without changing branch character.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.isa.program import Program


@dataclass(frozen=True)
class WorkloadSpec:
    """Registry entry: one SPEC95-int stand-in (paper Table 3 row)."""

    name: str
    build: Callable[..., Program]
    description: str
    branch_character: str
    paper_dataset: str = "ref"
    paper_window: str = ""

    def instantiate(self, scale: float = 1.0, seed: int = 1) -> Program:
        return self.build(scale=scale, seed=seed)


def scaled(base: int, scale: float, minimum: int = 1) -> int:
    """Scale an iteration count, keeping it at least ``minimum``."""
    return max(minimum, int(round(base * scale)))


def rng_for(seed: int, stream: str) -> random.Random:
    """Independent deterministic stream per (seed, purpose)."""
    return random.Random(f"{seed}:{stream}")


def skewed_bytes(rng: random.Random, count: int,
                 alphabet: int = 26, repeat_bias: float = 0.55) -> list[int]:
    """Text-like byte stream: repeating phrases with a skewed alphabet.

    ``repeat_bias`` is the probability of re-emitting a recent phrase,
    giving compress-style workloads realistic dictionary hit behaviour.
    """
    phrases: list[list[int]] = []
    out: list[int] = []
    while len(out) < count:
        if phrases and rng.random() < repeat_bias:
            out.extend(rng.choice(phrases))
        else:
            length = rng.randint(3, 9)
            phrase = [rng.randrange(alphabet) + 1 for _ in range(length)]
            phrases.append(phrase)
            if len(phrases) > 24:
                phrases.pop(0)
            out.extend(phrase)
    return out[:count]
