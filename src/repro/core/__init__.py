"""The paper's contribution: DDT, RSE, shadow structures, BVIT and ARVI."""

from repro.core.arvi import (
    ARVIConfig,
    ARVIPrediction,
    ARVIPredictor,
    ARVIRequest,
    RegisterView,
    ValueMode,
)
from repro.core.bvit import BVIT, BVITEntry
from repro.core.ddt import DDT, DDTError, FastDDT
from repro.core.hashing import bvit_index, depth_key, register_set_tag
from repro.core.rse import ChainInfoTable, RSEArray
from repro.core.shadow import ShadowMapTable, ShadowRegisterFile

__all__ = [
    "ARVIConfig",
    "ARVIPrediction",
    "ARVIPredictor",
    "ARVIRequest",
    "BVIT",
    "BVITEntry",
    "ChainInfoTable",
    "DDT",
    "DDTError",
    "FastDDT",
    "RSEArray",
    "RegisterView",
    "ShadowMapTable",
    "ShadowRegisterFile",
    "ValueMode",
    "bvit_index",
    "depth_key",
    "register_set_tag",
]
