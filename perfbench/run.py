"""End-to-end benchmark of crp_shard: timed runs and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. The first run builds the
program (perfbench/CMakeLists.txt, Release) into .bench_build/ and
later runs reuse that build. See perfbench/README.md for the
workloads, the metrics and the layer table.

--trace 0 runs the workload's crp_shard command again and again for
--seconds seconds, one invocation at a time, and reports the median of
each end-to-end metric. --trace 1 times untraced invocations the
same way, then replays the workload once through the library with a
span around every layer call (perfbench_layers trace) and reports the
per-layer metrics.

Every invocation's CSV is checked: row count, trials and cell_seed
against `crp_shard plan --json`, and mean and success_rate against a
reference computed outside the timed runs. The last line of standard
output is one JSON object: correct, attempted and failed (cells), and
metrics.
"""

import argparse
import csv
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The checkout is the benchmark's only writable place; keep bytecode
# caches out of it.
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import gridgen  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TABLE1_N = 65536
# `crp_shard plan` timings per run: a few after every timed invocation,
# so they sample the whole run, topped up to at least SETUP_SAMPLES.
SETUP_PER_INVOCATION = 4
SETUP_SAMPLES = 41
# Family-wise false-alarm rate of one invocation's statistical check,
# split Bonferroni-style over every (cell, statistic) test.
FAMILY_ALPHA = 1e-6
# CSV values carry 4 decimals.
ROUNDING = 5e-5

# name -> grid, crp_shard mode, trials per cell, CD engine, reference
# trials per CD cell (the reference runs the other CD engine).
WORKLOADS = {
    "table1-default": dict(grid="table1", mode="run", trials=300_000,
                           cd="simulate", ref_trials=3_000_000),
    "table1-tree": dict(grid="table1", mode="run", trials=3_000_000,
                        cd="tree", ref_trials=300_000),
    "fanout-fleet": dict(grid="fanout", mode="supervise", trials=4_000,
                         cd="simulate", ref_trials=16_000),
    "fanout-tree": dict(grid="fanout", mode="run", trials=8_000,
                        cd="tree", ref_trials=8_000),
}

END_TO_END = {
    "wall_s": "s", "trials_per_s": "1/s", "cells_per_s": "1/s",
    "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "pass_ratio": "ratio",
}

# Per-layer metric -> (unit, workloads it applies to; None = all).
TREE = ("table1-tree", "fanout-tree")
SIMULATE = ("table1-default", "fanout-fleet")
FLEET = ("fanout-fleet",)
PER_LAYER = {
    "engine.cd_sim.ns_per_trial": ("ns", SIMULATE),
    "engine.cd_sim.busy_s": ("s", SIMULATE),
    "engine.batch.ns_per_trial": ("ns", None),
    "engine.tree.ns_per_trial": ("ns", TREE),
    "batch.tables": ("count", None),
    "batch.table_build_s": ("s", None),
    "history_engine.trees": ("count", TREE),
    "history_tree.nodes": ("count", TREE),
    "history_engine.expand_s": ("s", TREE),
    "history_engine.keys_inverse_cdf": ("count", TREE),
    "history_engine.keys_walk": ("count", TREE),
    "history_engine.keys_simulate": ("count", TREE),
    "parallel.blocks": ("count", None),
    "parallel.block_s_p50": ("s", None),
    "parallel.block_s_p99": ("s", None),
    "parallel.idle_frac": ("ratio", None),
    "sweep.cell_s_p50": ("s", None),
    "sweep.cell_s_max": ("s", None),
    "sweep.cpu_util": ("ratio", None),
    "sweep.csv_s": ("s", None),
    "grids.build_s": ("s", ("table1-default", "table1-tree")),
    "gridspec.parse_s": ("s", ("fanout-fleet", "fanout-tree")),
    "shard.fingerprint_s": ("s", None),
    "shard.plan_s": ("s", None),
    "checkpoint.appends": ("count", FLEET),
    "checkpoint.journal_bytes": ("bytes", FLEET),
    "checkpoint.append_s_p50": ("s", FLEET),
    "checkpoint.append_s_p99": ("s", FLEET),
    "checkpoint.sync_s_p50": ("s", FLEET),
    "checkpoint.sync_s_p99": ("s", FLEET),
    "checkpoint.atomic_write_s": ("s", FLEET),
    "shard.merge_s": ("s", FLEET),
    "shard.range_imbalance": ("ratio", FLEET),
    "supervisor.workers_spawned": ("count", FLEET),
    "supervisor.backfill_rounds": ("count", FLEET),
    "supervisor.overhead_s": ("s", FLEET),
    "trace.overhead_frac": ("ratio", None),
    "trace.uncovered_frac": ("ratio", None),
}

CSV_HEADER = ["algorithm", "sizes", "budget", "trials", "cell_seed", "mean",
              "ci95", "p50", "p90", "p99", "success_rate"]


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, failed build)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and provenance


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / target / "perfbench").resolve()


def build():
    """Configures (once) and builds crp_shard + perfbench_layers."""
    for needed in ("CMakeLists.txt", "src", "tools/crp_shard.cpp"):
        if not (ROOT / needed).exists():
            raise BenchError(f"no {needed} next to perfbench/: run from a "
                             "source checkout of the repository")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    build_log = out / "build.log"
    with open(build_log, "w") as sink:
        if not (out / "CMakeCache.txt").exists():
            step = subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sink, stderr=subprocess.STDOUT, check=False)
            if step.returncode != 0:
                raise BenchError(f"cmake configure failed, see {build_log}")
        step = subprocess.run(
            ["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)],
            stdout=sink, stderr=subprocess.STDOUT, check=False)
        if step.returncode != 0:
            raise BenchError(f"build failed, see {build_log}")
    build_type = ""
    for line in (out / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type != "Release":
        # Timings from unoptimized builds are worthless for comparison.
        raise BenchError(f"{out} is a '{build_type or 'unknown'}' build, "
                         "not Release")
    return out / "crp" / "crp_shard", out / "perfbench_layers", build_type


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


# ---------------------------------------------------------------------------
# Processes


class Invocation:
    """One finished process: wall, CPU and peak RSS of its whole tree."""

    def __init__(self, wall_s, status, rusage, stderr):
        self.wall_s = wall_s
        self.returncode = os.waitstatus_to_exitcode(status)
        # wait4 reports the child plus every descendant it waited for;
        # ru_maxrss is then the largest single process of that tree
        # (kB on Linux). Unlike RUSAGE_CHILDREN it carries nothing over
        # from earlier invocations of this process.
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.peak_rss_mb = rusage.ru_maxrss / 1024.0
        self.stderr = stderr


def spawn(argv, stdout_path, stderr_path):
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    return os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)


def invoke(argv, work, name="cmd"):
    """Runs argv to completion; stdout/stderr go to files under work."""
    out_path, err_path = work / f"{name}.out", work / f"{name}.err"
    start = time.perf_counter()
    pid = spawn(argv, out_path, err_path)
    _, status, rusage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return Invocation(wall, status, rusage, err_path.read_text())


def invoke_concurrently(argvs, work):
    """Starts every argv at once; returns each one's Invocation."""
    start = time.perf_counter()
    pids = {}
    for i, argv in enumerate(argvs):
        pids[spawn(argv, work / f"range{i}.out", work / f"range{i}.err")] = i
    done = [None] * len(argvs)
    while pids:
        pid, status, rusage = os.wait4(-1, 0)
        i = pids.pop(pid, None)
        if i is None:
            continue
        done[i] = Invocation(time.perf_counter() - start, status, rusage,
                             (work / f"range{i}.err").read_text())
    return done


def kernel_tier(stderr):
    tiers = {line.rsplit(" ", 1)[-1] for line in stderr.splitlines()
             if line.startswith("crp_shard: kernel tier ")}
    return ",".join(sorted(tiers)) or "unknown"


# ---------------------------------------------------------------------------
# Output check


def z_bound(tests):
    return statistics.NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2 * tests))


def row_ok(row, planned, ref, z):
    """True when one CSV row matches its plan entry and its reference."""
    algorithm, sizes, budget, trials, seed = row[:5]
    if (algorithm != planned["algorithm"] or sizes != planned["sizes"]
            or budget != str(planned["budget"])
            or trials != str(planned["trials"])
            or int(seed) != int(planned["cell_seed"], 16)):
        return False
    mean, ci95, success = float(row[5]), float(row[6]), float(row[10])
    n = planned["trials"]
    p = min(max(ref["success"], 1.0 / n), 1.0 - 1.0 / n)
    success_se = (p * (1.0 - p) / n + ref["success_se"] ** 2) ** 0.5
    if abs(success - ref["success"]) > z * success_se + ROUNDING + 1e-6:
        return False
    if ref["success"] < 1e-9 or success == 0.0:
        return True
    mean_se = ((ci95 / 1.96) ** 2 + ref["mean_se"] ** 2) ** 0.5
    return abs(mean - ref["mean"]) <= z * mean_se + ROUNDING + 1e-9 * mean


def failed_cells(csv_text, plan, refs):
    """Cells of the plan the CSV misses or gets wrong."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != CSV_HEADER:
        return len(plan)
    body = rows[1:]
    z = z_bound(2 * len(plan))
    failed = 0
    for i, planned in enumerate(plan):
        try:
            ok = i < len(body) and row_ok(body[i], planned, refs[i], z)
        except (ValueError, IndexError):
            ok = False
        failed += 0 if ok else 1
    return min(len(plan), failed + max(0, len(body) - len(plan)))


# ---------------------------------------------------------------------------
# Workload set-up


class Workload:
    def __init__(self, name, seed, crp_shard, layers, work):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.crp_shard = str(crp_shard)
        self.layers = str(layers)
        self.work = work
        self.workers = os.cpu_count() or 1
        self.trials = self.spec["trials"]
        if self.spec["grid"] == "table1":
            self.grid_flags = ["--grid", "table1", "--n", str(TABLE1_N)]
        else:
            grid_path = work / "grid.json"
            gridgen.write_spec(seed, grid_path)
            self.grid_flags = ["--grid-spec", str(grid_path)]
        self.sweep_flags = self.grid_flags + [
            "--trials", str(self.trials), "--seed", str(seed)]
        self.plan = self._plan()
        self.cells = len(self.plan)

    def _plan(self):
        done = invoke([self.crp_shard, "plan", *self.sweep_flags, "--json"],
                      self.work, "plan")
        if done.returncode != 0:
            raise BenchError(f"crp_shard plan failed: {done.stderr}")
        plan = json.loads((self.work / "plan.out").read_text())
        return [cell for shard in plan["shards"] for cell in shard["cells"]]

    def shard_ranges(self):
        done = invoke([self.crp_shard, "plan", *self.sweep_flags, "--json",
                       "--shards", str(self.workers)], self.work, "plan")
        plan = json.loads((self.work / "plan.out").read_text())
        return [(s["cell_begin"], s["cell_end"]) for s in plan["shards"]
                if done.returncode == 0 and s["cell_end"] > s["cell_begin"]]

    def setup_walls(self, count):
        """Walls of `count` runs of `crp_shard plan` with the workload's
        grid flags: set-up with nothing executed."""
        return [invoke([self.crp_shard, "plan", *self.sweep_flags],
                       self.work, "setup").wall_s for _ in range(count)]

    def references(self):
        """Per-cell (mean, success) references for the output check."""
        done = subprocess.run(
            [self.layers, "reference", *self.grid_flags,
             "--trials", str(self.spec["ref_trials"]), "--seed",
             str(self.seed), "--cd-engine", self.spec["cd"]],
            capture_output=True, text=True, check=False)
        if done.returncode != 0:
            raise BenchError(f"reference failed: {done.stderr}")
        return json.loads(done.stdout)

    def command(self, out_csv, out_dir):
        argv = [self.crp_shard, self.spec["mode"], *self.sweep_flags,
                "--cd-engine", self.spec["cd"], "--out", str(out_csv)]
        if self.spec["mode"] == "supervise":
            argv += ["--workers", str(self.workers), "--out-dir",
                     str(out_dir)]
        return argv

    def run_once(self, index):
        """One untraced invocation in a fresh output directory."""
        out_dir = self.work / f"run{index}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        out_csv = out_dir / "out.csv"
        done = invoke(self.command(out_csv, out_dir), self.work, "run")
        text = out_csv.read_text() if out_csv.exists() else ""
        shutil.rmtree(out_dir, ignore_errors=True)
        return done, text


def timed_runs(workload, seconds, refs):
    """Invocations until `seconds` have passed: (invocations, failed
    cells, attempted cells, the first run's CSV, set-up walls)."""
    runs, failed, attempted, first_csv, setup = [], 0, 0, None, []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        done, text = workload.run_once(len(runs))
        runs.append(done)
        setup += workload.setup_walls(SETUP_PER_INVOCATION)
        attempted += workload.cells
        if done.returncode != 0:
            failed += workload.cells
            continue
        if first_csv is None:
            first_csv = text
        # Same command, same seed: every invocation must write the same
        # bytes.
        failed += (failed_cells(text, workload.plan, refs)
                   if text == first_csv else workload.cells)
    setup += workload.setup_walls(max(0, SETUP_SAMPLES - len(setup)))
    return runs, failed, attempted, first_csv, setup


def fleet_matches_monolithic(workload, fleet_csv):
    """Determinism leg 4: the supervised fleet's merged CSV equals a
    monolithic `run --out` of the same grid, byte for byte."""
    out = workload.work / "monolithic.csv"
    done = invoke([workload.crp_shard, "run", *workload.sweep_flags,
                   "--cd-engine", workload.spec["cd"], "--out", str(out)],
                  workload.work, "monolithic")
    return done.returncode == 0 and out.read_text() == fleet_csv


# ---------------------------------------------------------------------------
# Modes


def end_to_end(workload, seconds, refs):
    runs, failed, attempted, first_csv, setup = timed_runs(workload, seconds,
                                                           refs)
    if (workload.spec["mode"] == "supervise" and first_csv is not None
            and not fleet_matches_monolithic(workload, first_csv)):
        log("fanout-fleet: merged CSV differs from the monolithic run")
        failed = max(failed, workload.cells)
    cell_trials = sum(cell["trials"] for cell in workload.plan)
    walls = [r.wall_s for r in runs]
    metrics = {
        "wall_s": statistics.median(walls),
        "trials_per_s": statistics.median(cell_trials / w for w in walls),
        "cells_per_s": statistics.median(workload.cells / w for w in walls),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "setup_s": statistics.median(setup),
        "pass_ratio": (attempted - failed) / attempted,
    }
    extra = {"runs": len(runs), "kernel_tier": kernel_tier(runs[0].stderr),
             "fail_ratio": failed / attempted,
             "walls_s": [round(w, 4) for w in walls]}
    return metrics, failed, attempted, extra


def traced(workload, seconds, refs):
    runs, failed, attempted, first_csv, _ = timed_runs(workload, seconds,
                                                       refs)
    untraced_wall = statistics.median(r.wall_s for r in runs)
    trace_csv = workload.work / "trace.csv"
    argv = [workload.layers, "trace", *workload.sweep_flags,
            "--cd-engine", workload.spec["cd"], "--csv", str(trace_csv),
            "--spans", str(workload.work / "spans.jsonl")]
    fleet = workload.spec["mode"] == "supervise"
    if fleet:
        for sub in ("checkpoint", "supervise"):
            shutil.rmtree(workload.work / sub, ignore_errors=True)
            (workload.work / sub).mkdir()
        argv += ["--workers", str(workload.workers),
                 "--checkpoint-dir", str(workload.work / "checkpoint"),
                 "--supervise-exe", workload.crp_shard,
                 "--supervise-dir", str(workload.work / "supervise")]
    done = invoke(argv, workload.work, "trace")
    if done.returncode != 0:
        raise BenchError(f"perfbench_layers trace failed: {done.stderr}")
    raw = json.loads((workload.work / "trace.out").read_text())

    # The trace measured the same work only if it wrote the same rows.
    same_rows = trace_csv.read_text() == first_csv
    if fleet:
        ranges = workload.shard_ranges()
        direct = invoke_concurrently(
            [[workload.crp_shard, "run", *workload.sweep_flags,
              "--cd-engine", workload.spec["cd"], "--cells", f"{b}:{e}",
              "--out-dir", str(workload.work / "direct")]
             for b, e in ranges], workload.work)
        same_rows = (same_rows and raw["checkpoint.merged_equals_monolithic"]
                     == 1 and Path(raw["supervisor.out"]).read_text()
                     == first_csv and raw["supervisor.quarantined"] == 0
                     and all(d.returncode == 0 for d in direct))
        raw["supervisor.overhead_s"] = (raw["supervisor.wall_s"]
                                        - max(d.wall_s for d in direct))
        raw["trace.overhead_frac"] = raw["supervisor.wall_s"] / untraced_wall - 1
    else:
        raw["trace.overhead_frac"] = (raw["trace.replay_wall_s"]
                                      / untraced_wall - 1)
    if not same_rows:
        log("traced rows differ from the untraced rows")
        failed = max(failed, workload.cells)

    metrics, not_applicable = {}, []
    for name, (_unit, where) in PER_LAYER.items():
        if where is None or workload.name in where:
            metrics[name] = raw[name]
        else:
            metrics[name] = 0
            not_applicable.append(name)
    extra = {"runs": len(runs), "kernel_tier": raw["kernel_tier"],
             "traced_rows_equal": same_rows, "n/a": not_applicable}
    return metrics, failed, attempted, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        crp_shard, layers, build_type = build()
        work = build_dir() / "work" / f"{args.workload}-seed{args.seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload = Workload(args.workload, args.seed, crp_shard, layers, work)
        refs = workload.references()
        mode = traced if args.trace else end_to_end
        metrics, failed, attempted, extra = mode(workload, args.seconds, refs)
    except BenchError as error:
        log(f"perfbench: {error}")
        return 2

    units = ({n: u for n, (u, _) in PER_LAYER.items()} if args.trace
             else END_TO_END)
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "kernel_tier": extra.pop("kernel_tier"),
        "build_type": build_type, "commit": commit(),
        "cells": workload.cells, "trials_per_cell": workload.trials, **extra,
    }
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"output check: {'PASS' if failed == 0 else 'FAIL'} "
          f"({failed} of {attempted} cells failed)")
    print("provenance: " + json.dumps(provenance))
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }
    (work / "result.json").write_text(
        json.dumps({**result, "provenance": provenance}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
