"""repro — reproduction of Chen, Dropsho & Albonesi, HPCA 2003:
"Dynamic Data Dependence Tracking and its Application to Branch Prediction".

The package provides:

* :mod:`repro.core` — the paper's contribution: the Data Dependence Table
  (DDT), Register Set Extractor (RSE), shadow value/map structures, the
  BVIT and the ARVI value-based branch predictor;
* :mod:`repro.isa` — a PISA-flavoured RISC ISA and a structured program
  builder;
* :mod:`repro.pipeline` — the out-of-order superscalar timing model
  (paper Table 2 machine) the evaluation runs on;
* :mod:`repro.predictors` — bimodal/gshare/2Bc-gskew baselines, the
  confidence estimator and the two-level overriding composite;
* :mod:`repro.speculation` — wrong-path instruction synthesis, which the
  engine checkpoints and rolls back (``MachineConfig.speculation``);
* :mod:`repro.workloads` — synthetic SPEC95-int stand-ins (Table 3);
* :mod:`repro.applications` — Section 3 uses of dependence tracking;
* :mod:`repro.experiments` — harness regenerating every table and figure.

Quickstart::

    from repro import machine_for_depth, simulate, LevelTwoKind
    from repro.workloads import get_program

    program = get_program("m88ksim", scale=0.5)
    result = simulate(program, machine_for_depth(20), LevelTwoKind.ARVI)
    print(result.summary())
"""

from repro.core import (
    ARVIConfig,
    ARVIPredictor,
    ARVIRequest,
    BVIT,
    DDT,
    FastDDT,
    RegisterView,
    ValueMode,
)
from repro.isa import AsmBuilder, Program
from repro.pipeline import (
    MachineConfig,
    PipelineEngine,
    SimulationResult,
    build_predictor,
    machine_for_depth,
    simulate,
)
from repro.predictors import LevelTwoKind, TwoLevelPredictor

__version__ = "1.0.0"

__all__ = [
    "ARVIConfig",
    "ARVIPredictor",
    "ARVIRequest",
    "AsmBuilder",
    "BVIT",
    "DDT",
    "FastDDT",
    "LevelTwoKind",
    "MachineConfig",
    "PipelineEngine",
    "Program",
    "RegisterView",
    "SimulationResult",
    "TwoLevelPredictor",
    "ValueMode",
    "build_predictor",
    "machine_for_depth",
    "simulate",
    "__version__",
]
