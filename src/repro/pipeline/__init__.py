"""Out-of-order pipeline substrate: config, caches, rename, timing engine."""

from repro.pipeline.bandwidth import BandwidthLimiter
from repro.pipeline.caches import MemoryHierarchy, SetAssociativeCache, TLB
from repro.pipeline.config import (
    CacheConfig,
    MachineConfig,
    PredictorLatencies,
    TLBConfig,
    machine_for_depth,
    table2_rows,
    table4_rows,
)
from repro.pipeline.engine import (
    PipelineEngine,
    TimingRecord,
    build_predictor,
    simulate,
)
from repro.pipeline.func_units import FunctionalUnitPool, FunctionalUnits
from repro.pipeline.functional import DynInst, ExecutionError, FunctionalCore
from repro.pipeline.rename import RenameError, RenameMap
from repro.pipeline.rob import RetirementWindow
from repro.pipeline.stats import BranchClassStats, SimulationResult
from repro.pipeline.trace import (
    CommittedTrace,
    TraceError,
    TraceRecorder,
    record_trace,
)

__all__ = [
    "BandwidthLimiter",
    "BranchClassStats",
    "CacheConfig",
    "CommittedTrace",
    "DynInst",
    "ExecutionError",
    "FunctionalCore",
    "FunctionalUnitPool",
    "FunctionalUnits",
    "MachineConfig",
    "MemoryHierarchy",
    "PipelineEngine",
    "PredictorLatencies",
    "RenameError",
    "RenameMap",
    "RetirementWindow",
    "SetAssociativeCache",
    "SimulationResult",
    "TLB",
    "TLBConfig",
    "TimingRecord",
    "TraceError",
    "TraceRecorder",
    "build_predictor",
    "machine_for_depth",
    "record_trace",
    "simulate",
    "table2_rows",
    "table4_rows",
]
