"""Experiment harness regenerating every table and figure of the paper.

Layered as an experiment service (see DESIGN.md §6 and §9):

* :mod:`repro.experiments.plan`      — sweep expansion + content-hash keys;
* :mod:`repro.experiments.scheduler` — plan execution + progress/caching;
* :mod:`repro.experiments.backends`  — serial / local-pool execution
  (``backend=``);
* :mod:`repro.experiments.cache`     — persistent JSON result store;
* :mod:`repro.experiments.aggregate` — the view model every figure and
  table renders from;
* :mod:`repro.experiments.claims`    — the paper's claims, as predicates
  over the figure views;
* :mod:`repro.experiments.runner`    — the plan->schedule->cache facade.

``python -m repro.experiments reproduce`` regenerates every artifact
(:mod:`repro.experiments.__main__`).
"""

from repro.experiments.cache import ResultCache, default_cache
from repro.experiments.plan import (
    ExperimentPlan,
    build_plan,
    plan_from_points,
    point_key,
)
from repro.experiments.report import (
    arithmetic_mean,
    format_table,
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
    "ExperimentPlan",
    "ExperimentPoint",
    "ProgressEvent",
    "ResultCache",
    "arithmetic_mean",
    "build_plan",
    "default_cache",
    "execute_point",
    "format_table",
    "plan_from_points",
    "point_key",
    "render_all",
    "render_speculation_modes",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_table4",
    "run_plan",
    "run_point",
    "run_points",
    "run_suite",
    "storage_summary",
]
