#!/usr/bin/env python3
"""Wall time to produce the paper's Figure 6 and speculation table.

Run from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``paper-grid`` -- the 96-point Figure 6 grid (8 workloads x {baseline,
  current, load back, perfect} x {20, 40, 60} stages), redirect mode,
  ``backend="serial"``, committed traces shared in memory, no result
  cache, a ``ViewAggregator`` sink whose final ``figure6`` view is the
  artifact.
* ``speculation-table`` -- wrong-path mode, {baseline, current} x
  {20, 40, 60} x 8 workloads = 48 points, serial, no result cache.  The
  replay kernel refuses wrong-path points, so this is the live engine.
* ``paper-grid-pool`` -- the ``paper-grid`` plan on ``backend="local"``
  with 2 workers and batching on: cold into a fresh per-run
  ``ResultCache``, then warm from it.

A run times its set-up (imports, code fingerprint, program builds, plan
build) in several fresh interpreters and keeps the median, sets up
itself, then runs the workload's grid until ``--seconds`` have passed,
at least once, and reports medians.  ``--trace 0`` prints the
end-to-end metrics.  ``--trace 1`` runs the grid once untraced and once
traced, and prints the per-layer metrics; the traced run times calls
into the simulator's public functions from this package's own code
(``layers.py``).

Every run checks its outputs outside the timed region: the digest of
all results against the one recorded in ``perfbench/digests/`` for the
seed (a traced pool run with no recorded digest reruns the grid
serially instead), equality between repeated, warm and traced runs, and on the
redirect grids one baseline and one ARVI point against the live engine
and the paper's Figure 6 shape.  Points that fail count into ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

After a deliberate change to the simulated model, re-record digests::

    python3 perfbench/run.py --workload paper-grid --record-digests 0-23
    python3 perfbench/run.py --workload speculation-table --record-digests 0-23
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("paper-grid", "speculation-table", "paper-grid-pool")

#: multiprocessing puts its manager's Unix socket under the temp dir;
#: socket paths are limited to ~107 bytes, so a temp dir deeper than
#: this stays at the system default.
_MAX_TEMP_DIR = 60


def seed_range(text: str) -> range:
    """``"0-23"`` -> seeds 0 to 23; ``"7"`` -> seed 7."""
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="paper-grid")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed, passed to build_plan(seed=)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--record-digests", metavar="SEEDS",
                        help="record result digests for SEEDS (e.g. 0-23) "
                        "instead of benchmarking")
    # One cold set-up in this interpreter, timed; the benchmark runs
    # several of these and reports their median as setup_s.
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # The benchmark passes every setting as an argument; no knob leaks in.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import grid  # imports the simulator: the first part of set-up
    if args.setup_probe:
        import_s = time.perf_counter() - start
        print(json.dumps(grid.setup_once(args.workload, args.seed, import_s)))
        return 0

    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    run_dir = pathlib.Path(tempfile.mkdtemp(prefix="r", dir=scratch))
    if len(str(run_dir)) <= _MAX_TEMP_DIR:
        tempfile.tempdir = str(run_dir)
    try:
        if args.record_digests:
            if args.workload == "paper-grid-pool":
                parser.error("paper-grid-pool uses the paper-grid digests")
            grid.record_digests(args.workload, seed_range(args.record_digests))
            return 0
        return grid.benchmark(args.workload, args.seed, args.seconds,
                              bool(args.trace), run_dir)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
