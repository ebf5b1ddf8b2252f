"""The ARVI branch predictor (paper Section 4).

ARVI predicts a branch from **A**vailable **R**egister **V**alue
**I**nformation: the committed values of the leaf registers of the
branch's data dependence chain (from the DDT via the RSE), hashed with the
branch PC into the BVIT.  Two tags — the register-set id sum and the
chain-depth key — verify that a hit corresponds to a prior occurrence of
the same path with the same values.

ARVI itself is value-*mode* agnostic: the timing engine builds a
:class:`ARVIRequest` whose register views already reflect the evaluation
mode (``current value`` uses committed shadow values only; ``load back``
additionally exposes values of loads that could have been hoisted;
``perfect value`` exposes oracle values for every register).

A branch whose register set contains an unavailable (pending-load) leaf is
a **load branch**; when every leaf is available it is a **calculated
branch** whose input state precisely determines the outcome.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.bvit import BVIT
from repro.core.hashing import (
    DEFAULT_DEPTH_BITS,
    DEFAULT_ID_TAG_BITS,
    DEFAULT_INDEX_BITS,
    bvit_index,
    depth_key,
    register_set_tag,
)


class ValueMode(enum.Enum):
    """Paper Section 5: the three ARVI evaluation configurations."""

    CURRENT = "current value"
    LOAD_BACK = "load back"
    PERFECT = "perfect value"


@dataclass(frozen=True)
class ARVIConfig:
    sets: int = 2048
    ways: int = 4
    index_bits: int = DEFAULT_INDEX_BITS
    id_tag_bits: int = DEFAULT_ID_TAG_BITS
    depth_bits: int = DEFAULT_DEPTH_BITS
    value_bits: int = 11
    # Only allocate BVIT entries for low-confidence (difficult) branches,
    # implementing the paper's "L1 filters easy branches" resource policy.
    allocate_only_hard: bool = True
    # Ablation switches (DESIGN.md §5): disable either tag to measure its
    # contribution.
    use_id_tag: bool = True
    use_depth_tag: bool = True


@dataclass(slots=True)
class RegisterView:
    """One RSE-set register as seen at prediction time."""

    preg: int
    logical: int
    available: bool
    value: int  # low-order value bits; meaningful only when available


@dataclass(slots=True)
class ARVIRequest:
    """Everything ARVI needs for one prediction."""

    pc: int
    regset: list[RegisterView]
    branch_token: int
    oldest_chain_token: int | None


@dataclass(slots=True)
class ARVIPrediction:
    """Prediction plus the keys needed to train the same entry at commit."""

    taken: bool | None      # None on BVIT miss
    hit: bool
    is_load_branch: bool
    index: int
    id_tag: int
    depth_tag: int


class ARVIPredictor:
    """BVIT-backed value predictor over RSE register sets."""

    def __init__(self, config: ARVIConfig | None = None) -> None:
        self.config = config or ARVIConfig()
        self.bvit = BVIT(self.config.sets, self.config.ways)

    # -- key formation --------------------------------------------------------

    def keys(self, request: ARVIRequest) -> tuple[int, int, int]:
        """(index, id_tag, depth_tag) for the request's register set."""
        config = self.config
        values = (view.value for view in request.regset if view.available)
        index = bvit_index(request.pc, values, config.index_bits)
        id_tag = (
            register_set_tag(
                (view.logical for view in request.regset),
                config.id_tag_bits,
            )
            if config.use_id_tag else 0
        )
        depth = (
            depth_key(request.branch_token, request.oldest_chain_token,
                      config.depth_bits)
            if config.use_depth_tag else 0
        )
        return index, id_tag, depth

    # -- predict / update ------------------------------------------------------

    def predict(self, request: ARVIRequest) -> ARVIPrediction:
        index, id_tag, depth_tag = self.keys(request)
        taken = self.bvit.lookup(index, id_tag, depth_tag)
        is_load_branch = any(not view.available for view in request.regset)
        return ARVIPrediction(
            taken=taken,
            hit=taken is not None,
            is_load_branch=is_load_branch,
            index=index,
            id_tag=id_tag,
            depth_tag=depth_tag,
        )

    def update(self, prediction: ARVIPrediction, taken: bool,
               *, hard_branch: bool = True) -> None:
        """Train the BVIT with the branch outcome.

        ``hard_branch`` carries the confidence estimator's verdict from
        prediction time; with ``allocate_only_hard`` new entries are only
        created for branches the level-1 predictor finds difficult.
        """
        allocate = hard_branch or not self.config.allocate_only_hard
        self.bvit.update(prediction.index, prediction.id_tag,
                         prediction.depth_tag, taken, allocate=allocate)

    # -- sizing -----------------------------------------------------------------

    def storage_bits(self, ddt_bits: int = 0, shadow_bits: int = 0) -> int:
        """Total predictor budget including dependence-tracking hardware."""
        return self.bvit.storage_bits + ddt_bits + shadow_bits
