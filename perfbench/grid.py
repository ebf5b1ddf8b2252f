"""The benchmark's workloads, output checks and metrics (see ``run.py``)."""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from repro.experiments import ResultCache, build_plan, execute_point, run_plan
from repro.experiments.aggregate import ViewAggregator, canonical_json
from repro.experiments.plan import CONFIGURATIONS, code_fingerprint
from repro.workloads.registry import BENCHMARKS, get_program

import layers

ROOT = pathlib.Path(__file__).resolve().parents[1]
DIGEST_DIR = pathlib.Path(__file__).resolve().parent / "digests"

#: The smallest windows: gcc, compress, go and ijpeg have fixed minimum
#: lengths (~200k committed instructions together) that dominate a grid.
SCALE = 0.03
WARMUP = 1000
DEPTHS = (20, 40, 60)
ARVI_CONFIGS = CONFIGURATIONS[1:]
JOBS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 3

perf = time.perf_counter


def make_plan(workload: str, seed: int):
    if workload == "speculation-table":
        return build_plan(("baseline", "current"), DEPTHS, BENCHMARKS,
                          scale=SCALE, warmup=WARMUP, seed=seed,
                          speculation="wrongpath")
    return build_plan(CONFIGURATIONS, DEPTHS, BENCHMARKS, scale=SCALE,
                      warmup=WARMUP, seed=seed)


# -- set-up -----------------------------------------------------------------


@dataclass
class Setup:
    plan: object
    seconds: float      # median cold set-up, imports to plan
    build_s: float      # median get_program time, all workloads
    plan_s: float       # median code_fingerprint + build_plan time


def setup_once(workload: str, seed: int, import_s: float) -> dict:
    """Time one cold set-up in this fresh process (``--setup-probe``)."""
    start = perf()
    code_fingerprint()
    fingerprinted = perf()
    for name in BENCHMARKS:
        get_program(name, scale=SCALE, seed=seed)
    built = perf()
    make_plan(workload, seed)
    planned = perf()
    return {"seconds": import_s + planned - start,
            "build_s": built - fingerprinted,
            "plan_s": fingerprinted - start + planned - built}


def set_up(workload: str, seed: int) -> Setup:
    """Time several cold set-ups in fresh interpreters, then set up here."""
    probe = [sys.executable, str(pathlib.Path(__file__).with_name("run.py")),
             "--setup-probe", "--workload", workload, "--seed", str(seed)]
    samples = [
        json.loads(subprocess.run(
            probe, cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=120).stdout.splitlines()[-1])
        for _ in range(SETUP_REPEATS)]
    code_fingerprint()
    for name in BENCHMARKS:
        get_program(name, scale=SCALE, seed=seed)

    def median(key: str) -> float:
        return statistics.median(sample[key] for sample in samples)

    return Setup(make_plan(workload, seed), median("seconds"),
                 median("build_s"), median("plan_s"))


# -- running a grid ---------------------------------------------------------


@dataclass
class GridRun:
    results: dict
    views: object           # the sink's final ViewSnapshot
    wall: float             # first point submitted -> final snapshot
    error: Exception | None = None
    events: list = field(default_factory=list)   # traced runs only
    views_s: float = 0.0                          # traced runs only


def run_grid(plan, *, pool: bool = False, cache: ResultCache | None = None,
             traced: bool = False) -> GridRun:
    """Run ``plan`` once into a fresh view sink.

    ``traced`` swaps in the timed sink and collects ProgressEvents.
    """
    sink = layers.TimedViews() if traced else ViewAggregator()
    events: list = []
    results, error = {}, None
    start = perf()
    try:
        results = run_plan(
            plan, backend="local" if pool else "serial",
            jobs=JOBS if pool else 1, batch=True,
            use_cache=cache is not None, cache=cache, sink=sink,
            progress=events.append if traced else None)
    except Exception as exc:  # noqa: BLE001 - counted and reported below
        error = exc
    sink.mark_done()
    views = sink.snapshot()
    wall = perf() - start
    return GridRun(results, views, wall, error, events,
                   sink.seconds if traced else 0.0)


def run_pool(plan, run_dir: pathlib.Path, *, traced: bool = False):
    """Cold into a fresh cache under ``run_dir``, then warm from it.

    Returns (cold, warm, cache); a traced run's cache holds the cold
    run's ``put_s`` and the warm run's lookups.
    """
    directory = tempfile.mkdtemp(dir=run_dir)
    cache = layers.TimedCache(directory) if traced else ResultCache(directory)
    cold = run_grid(plan, pool=True, cache=cache, traced=traced)
    if traced:
        cache.reset_lookups()
    warm = run_grid(plan, pool=True, cache=cache, traced=traced)
    return cold, warm, cache


# -- output checks ----------------------------------------------------------


def digest(results: dict) -> str:
    """SHA-256 over every (point, SimulationResult.to_dict()) pair."""
    rows = sorted(canonical_json([point.to_dict(), result.to_dict()])
                  for point, result in results.items())
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def recorded_digest(workload: str, seed: int) -> str | None:
    name = "paper-grid" if workload == "paper-grid-pool" else workload
    path = DIGEST_DIR / f"{name}.json"
    if not path.is_file():
        return None
    table = json.loads(path.read_text())
    if (table.get("scale"), table.get("warmup")) != (SCALE, WARMUP):
        return None
    return table["digests"].get(str(seed))


def shape_failures(figure6: dict) -> dict[str, list[str]]:
    """The paper's Figure 6 shape, per depth: {depth: [broken claims]}."""
    broken: dict[str, list[str]] = {}
    for depth, benches in sorted(figure6["depths"].items()):
        means = figure6["mean_normalized_ipc"][depth]
        gains = {bench: configs["current"]["normalized_ipc"]
                 for bench, configs in benches.items()}
        accuracy = {config: statistics.fmean(
            configs[config]["accuracy"] for configs in benches.values())
            for config in ("baseline", "current")}
        claims = {
            "current beats baseline on mean IPC":
                means["current"] > means["baseline"],
            "m88ksim is among the top two gainers":
                "m88ksim" in sorted(gains, key=gains.get)[-2:],
            "perfect >= current - 1.0 (% IPC gain)":
                means["perfect"] * 100 >= means["current"] * 100 - 1.0,
            "ARVI accuracy beats baseline":
                accuracy["current"] > accuracy["baseline"],
        }
        failed = [claim for claim, holds in claims.items() if not holds]
        if failed:
            broken[depth] = failed
    return broken


def oracle_points(plan, seed: int) -> list:
    """One baseline and one ARVI point, picked by the seed."""
    bench = BENCHMARKS[seed % len(BENCHMARKS)]
    depth = DEPTHS[seed % len(DEPTHS)]
    arvi = ARVI_CONFIGS[seed // len(DEPTHS) % len(ARVI_CONFIGS)]
    wanted = {(bench, "baseline", depth), (bench, arvi, depth)}
    return [point for point in plan if point.grid_key in wanted]


class Checks:
    """Counts points attempted and points that failed or failed a check."""

    def __init__(self, plan, seed: int, workload: str) -> None:
        self.plan, self.seed, self.workload = plan, seed, workload
        self.attempted = 0
        self.failed = 0

    def fail(self, points: int, message: str) -> None:
        self.failed += points
        print(f"CHECK FAILED ({points} point(s)): {message}", file=sys.stderr)

    def ran(self, run: GridRun, label: str) -> bool:
        """Count a grid run; False (and its points failed) if it raised."""
        self.attempted += len(self.plan)
        if run.error is not None:
            self.fail(len(self.plan), f"{label} raised "
                      f"{type(run.error).__name__}: {run.error}")
            return False
        return True

    def same(self, run: GridRun, reference: dict, label: str) -> None:
        if run.error is None:
            differ = sum(1 for point in self.plan
                         if run.results.get(point) != reference.get(point))
            if differ:
                self.fail(differ, f"{label} differs from the reference run")

    def reference(self, run: GridRun) -> None:
        """Digest against the recorded one; shape and oracle checks."""
        expected = recorded_digest(self.workload, self.seed)
        got = digest(run.results)
        print(f"digest {got} (recorded: {expected or 'none for this seed'})")
        if expected is not None and got != expected:
            self.fail(len(self.plan), f"digest {got} != recorded {expected}")
        if self.workload == "speculation-table":
            return
        for depth, claims in shape_failures(
                run.views.views["figure6"]).items():
            self.fail(len(self.plan) // len(DEPTHS),
                      f"figure6 depth {depth}: {', '.join(claims)}")
        for point in oracle_points(self.plan, self.seed):
            self.attempted += 1
            live = execute_point(point, trace=False)
            if live != run.results.get(point):
                self.fail(1, f"{point.grid_key} != live engine (oracle)")


# -- metrics ----------------------------------------------------------------


def committed(results: dict) -> int:
    """Committed simulated instructions over every point, warmup included."""
    return sum(result.total_instructions for result in results.values())


def peak_rss_mb(pool: bool) -> float:
    """This process's peak RSS, plus its largest pool child's."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pool:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def sim_stats(results: dict, figure6: dict) -> dict[str, float]:
    """Simulated statistics; they change only if the model changes."""
    values = list(results.values())
    stats = {
        "sim.instructions": float(sum(r.instructions for r in values)),
        "sim.cycles": float(sum(r.cycles for r in values)),
    }
    means = figure6["mean_normalized_ipc"]
    for config in ARVI_CONFIGS:
        for depth in DEPTHS:
            mean = means.get(str(depth), {}).get(config)
            stats[f"sim.ipc_gain_pct.{config.replace(' ', '_')}.d{depth}"] = \
                0.0 if mean is None else (mean - 1.0) * 100.0
    lookups = sum(r.arvi_lookups for r in values)
    stats["sim.bvit_hit_ratio"] = (
        sum(r.arvi_bvit_hits for r in values) / lookups if lookups else 0.0)
    stats["sim.mispredicts"] = float(sum(r.mispredictions for r in values))
    return stats


def per_layer(setup: Setup, untraced: GridRun, traced: GridRun,
              spans: list[dict], workers: int) -> dict[str, float]:
    totals = layers.layer_totals(spans)

    def seconds(layer: str) -> float:
        return totals.get(layer, (0.0, 0))[0]

    def ips(layer: str) -> float:
        busy, instructions = totals.get(layer, (0.0, 0))
        return instructions / busy if busy else 0.0

    results = traced.results
    wrong_path = sum(r.wrong_path_instructions for r in results.values())
    metrics = {
        "workloads.build_s": setup.build_s,
        "plan.build_s": setup.plan_s,
        "trace.record_s": seconds("trace.record"),
        "trace.record_ips": ips("trace.record"),
        "kernel.lower_s": seconds("kernel.lower"),
        "kernel.stream_replay_s": seconds("kernel.stream"),
        "kernel.stream_sim_ips": ips("kernel.stream"),
        "kernel.arvi_replay_s.current": seconds("kernel.arvi.current"),
        "kernel.arvi_replay_s.load_back": seconds("kernel.arvi.load_back"),
        "kernel.arvi_replay_s.perfect": seconds("kernel.arvi.perfect"),
        "kernel.arvi_sim_ips": ips("kernel.arvi"),
        "engine.live_s": seconds("engine.live"),
        "engine.live_sim_ips": ips("engine.live"),
        "speculation.wrong_path_ratio": wrong_path / committed(results),
        "aggregate.views_s": traced.views_s,
        "bench.trace_overhead_ratio": traced.wall / untraced.wall,
    }
    metrics.update(layers.makespan(traced.events, traced.wall, workers))
    metrics.update(sim_stats(results, traced.views.views["figure6"]))
    metrics.update(layers.repo_counts(ROOT / "src"))
    return metrics


def report_batches(events) -> None:
    busy = layers.batch_busy(events)
    for batch, seconds in sorted(busy.items(), key=lambda item: -item[1]):
        print(f"  {batch}: busy {seconds:.3f} s")


def declared_metrics(trace: bool) -> dict[str, str]:
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


# -- the benchmark ----------------------------------------------------------


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              run_dir: pathlib.Path) -> int:
    setup = set_up(workload, seed)
    plan = setup.plan
    pool = workload == "paper-grid-pool"
    checks = Checks(plan, seed, workload)
    print(f"{workload}: {len(plan)} points, seed {seed}, scale {SCALE}, "
          f"warmup {WARMUP}, set-up {setup.seconds:.3f} s")
    if trace:
        metrics = traced_run(workload, setup, checks, run_dir)
    else:
        metrics = untraced_runs(setup, checks, seconds, run_dir, pool)
    declared = declared_metrics(trace)
    if set(metrics) != set(declared):
        raise SystemExit(
            f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} "
            "do not match BENCHMARK.json")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


def untraced_runs(setup: Setup, checks: Checks, seconds: float,
                  run_dir: pathlib.Path, pool: bool) -> dict[str, float]:
    """Run the grid until ``seconds`` have passed, at least once.

    Peak memory is read after the first repetition, because the process
    peak grows with each later one (by up to a third, measured), and the
    number of repetitions depends on host speed.  Later repetitions are
    checked against the first and then dropped.
    """
    def repeat() -> tuple[GridRun, ...]:
        if pool:
            return run_pool(setup.plan, run_dir)[:2]  # (cold, warm)
        return (run_grid(setup.plan),)

    start = perf()
    runs, walls = repeat(), []
    rss_mb = peak_rss_mb(pool)
    reference = runs[0]
    while True:
        walls.append(runs[0].wall)
        for label, run in zip(("", " warm"), runs):
            name = f"run {len(walls) - 1}{label}"
            if checks.ran(run, name) and run is not reference:
                checks.same(run, reference.results, name)
        if perf() - start >= seconds:
            break
        runs = repeat()
    print("wall_s per run: " + ", ".join(f"{wall:.3f}" for wall in walls))
    if reference.error is None:
        checks.reference(reference)
    wall = statistics.median(walls)
    return {"wall_s": wall, "sim_ips": committed(reference.results) / wall,
            "setup_s": setup.seconds, "peak_rss_mb": rss_mb}


def pool_vs_serial(setup: Setup, checks: Checks, cold: GridRun) -> None:
    """Pool results must equal paper-grid's: by recorded digest or a rerun.

    Only the traced run reruns: an untraced run with no recorded digest
    would spend a serial grid's time on it.
    """
    if recorded_digest("paper-grid", checks.seed) is not None:
        return  # Checks.reference compared the digest already
    serial = run_grid(setup.plan)
    if checks.ran(serial, "serial reference run"):
        checks.same(cold, serial.results, "pool vs serial")


def traced_run(workload: str, setup: Setup, checks: Checks,
               run_dir: pathlib.Path) -> dict[str, float]:
    """One untraced run, then the same run traced; per-layer metrics."""
    plan = setup.plan
    pool = workload == "paper-grid-pool"
    span_dir = run_dir / "spans"
    span_dir.mkdir()
    if pool:
        untraced, untraced_warm, _ = run_pool(plan, run_dir)
        with layers.LayerTrace(span_dir) as tracer:
            traced, warm, cache = run_pool(plan, run_dir, traced=True)
        others = {"untraced cold": untraced, "untraced warm": untraced_warm,
                  "traced warm": warm}
    else:
        untraced = run_grid(plan)
        with layers.LayerTrace(span_dir) as tracer:
            traced = run_grid(plan, traced=True)
        others = {"untraced run": untraced}
    if not checks.ran(traced, "traced run"):
        raise SystemExit(f"perfbench: traced run failed: {traced.error}")
    for label, run in others.items():
        if checks.ran(run, label):
            checks.same(run, traced.results, label)
    checks.reference(traced)
    print(f"wall_s untraced {untraced.wall:.3f}, traced {traced.wall:.3f}")
    print("batch busy time (critical path first):")
    report_batches(traced.events)
    print("sim.* are simulated statistics of an unvalidated model: the "
          "workloads are synthetic stand-ins and there is no hardware "
          "reference, so no error figure is given")
    metrics = per_layer(setup, untraced, traced, tracer.spans(),
                        JOBS if pool else 1)
    metrics.update(dict.fromkeys(
        ("cache.put_s", "cache.get_s", "cache.warm_replay_s",
         "cache.hit_ratio", "aggregate.warm_views_s"), 0.0))
    if pool:
        lookups = cache.hits + cache.misses
        metrics.update({
            "cache.put_s": cache.put_s,
            "cache.get_s": cache.get_s,
            "cache.warm_replay_s": warm.wall,
            "cache.hit_ratio": cache.hits / lookups if lookups else 0.0,
            "aggregate.warm_views_s": warm.views_s,
        })
        pool_vs_serial(setup, checks, traced)
    return metrics


def record_digests(workload: str, seeds) -> None:
    """Run the workload's grid serially per seed; store its digest."""
    path = DIGEST_DIR / f"{workload}.json"
    table = {"scale": SCALE, "warmup": WARMUP, "digests": {}}
    if path.is_file():
        stored = json.loads(path.read_text())
        if (stored["scale"], stored["warmup"]) == (SCALE, WARMUP):
            table = stored
    DIGEST_DIR.mkdir(exist_ok=True)
    for seed in seeds:
        run = run_grid(make_plan(workload, seed))
        if run.error is not None:
            raise run.error
        broken = ({} if workload == "speculation-table"
                  else shape_failures(run.views.views["figure6"]))
        table["digests"][str(seed)] = digest(run.results)
        table["digests"] = dict(sorted(table["digests"].items(),
                                       key=lambda item: int(item[0])))
        path.write_text(json.dumps(table, indent=1) + "\n")
        print(f"seed {seed}: {table['digests'][str(seed)]} "
              f"({run.wall:.1f} s){' SHAPE ' + str(broken) if broken else ''}",
              flush=True)
