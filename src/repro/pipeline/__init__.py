"""Out-of-order pipeline substrate: config, caches, timing engine."""

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
    RenameError,
    TimingRecord,
    build_predictor,
    simulate,
)
from repro.pipeline.functional import DynInst, ExecutionError, FunctionalCore
from repro.pipeline.stats import BranchClassStats, SimulationResult
from repro.pipeline.trace import (
    CommittedTrace,
    TraceError,
    TraceRecorder,
    record_trace,
)

__all__ = [
    "BranchClassStats",
    "CacheConfig",
    "CommittedTrace",
    "DynInst",
    "ExecutionError",
    "FunctionalCore",
    "MachineConfig",
    "MemoryHierarchy",
    "PipelineEngine",
    "PredictorLatencies",
    "RenameError",
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
