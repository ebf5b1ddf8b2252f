"""Frozen wrong-path results: the speculation table's model, bit for bit.

``golden_wrongpath.json`` holds every field of ``SimulationResult.
to_dict()`` for 8 workloads x {baseline, current} x {20, 60} stages in
``wrongpath`` mode, recorded before wrong-path episodes were shared
across a workload's points (DESIGN.md §2.2).  Any change that moves one
field of one point fails here, in tier-1, not only in the perfbench
digests.  If a change legitimately alters the wrong-path model,
regenerate the file in the same change and say so.
"""

import json
import pathlib

from repro.experiments.runner import run_suite
from repro.workloads.registry import BENCHMARKS

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_wrongpath.json")
GOLDEN_SCALE = 0.02
GOLDEN_WARMUP = 500


def test_wrongpath_suite_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    results = run_suite(("baseline", "current"), (20, 60), BENCHMARKS,
                        scale=GOLDEN_SCALE, warmup=GOLDEN_WARMUP, seed=1,
                        speculation="wrongpath", jobs=1, use_cache=False)
    got = {f"{benchmark}/{configuration}/{depth}": result.to_dict()
           for (benchmark, configuration, depth), result in results.items()}
    assert sorted(got) == sorted(golden)
    drifted = sorted(spec for spec in golden if got[spec] != golden[spec])
    assert not drifted, f"wrongpath results drifted: {drifted}"
    assert all(golden[spec]["wrong_path_instructions"] > 0
               for spec in golden)
