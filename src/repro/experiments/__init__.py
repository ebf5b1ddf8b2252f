"""Experiment harness regenerating every table and figure of the paper.

Layered as an experiment service (see DESIGN.md §6 and §9):

* :mod:`repro.experiments.plan`      — sweep expansion + content-hash keys;
* :mod:`repro.experiments.scheduler` — plan execution + progress/caching;
* :mod:`repro.experiments.backends`  — serial / local-pool / queue
  execution backends (``REPRO_BACKEND``);
* :mod:`repro.experiments.broker`    — the work-queue wire format and
  filesystem broker behind the queue backend;
* :mod:`repro.experiments.cache`     — persistent JSON result store;
* :mod:`repro.experiments.runner`    — the plan->schedule->cache facade.
"""

from repro.experiments.backends import (
    ExecutionBackend,
    LocalPoolBackend,
    QueueBackend,
    SerialBackend,
    default_backend_name,
)
from repro.experiments.broker import (
    FileBroker,
    MessageError,
    QueueError,
    RemotePointError,
)
from repro.experiments.cache import ResultCache, default_cache
from repro.experiments.figure5 import Figure5Data, run_figure5
from repro.experiments.figure6 import Figure6Data, run_figure6
from repro.experiments.plan import (
    ExperimentPlan,
    build_plan,
    plan_from_points,
    point_key,
)
from repro.experiments.report import (
    arithmetic_mean,
    format_table,
    geometric_mean,
    render_speculation_comparison,
)
from repro.experiments.runner import (
    CONFIGURATIONS,
    ExperimentPoint,
    execute_point,
    run_point,
    run_suite,
)
from repro.experiments.scheduler import (
    ProgressEvent,
    run_plan,
    run_points,
)
from repro.experiments.tables import (
    render_all,
    render_speculation_modes,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    storage_summary,
)

__all__ = [
    "CONFIGURATIONS",
    "ExecutionBackend",
    "ExperimentPlan",
    "ExperimentPoint",
    "Figure5Data",
    "Figure6Data",
    "FileBroker",
    "LocalPoolBackend",
    "MessageError",
    "ProgressEvent",
    "QueueBackend",
    "QueueError",
    "RemotePointError",
    "ResultCache",
    "SerialBackend",
    "arithmetic_mean",
    "build_plan",
    "default_backend_name",
    "default_cache",
    "execute_point",
    "format_table",
    "geometric_mean",
    "plan_from_points",
    "point_key",
    "render_all",
    "render_speculation_comparison",
    "render_speculation_modes",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_table4",
    "run_figure5",
    "run_figure6",
    "run_plan",
    "run_point",
    "run_points",
    "run_suite",
    "storage_summary",
]
