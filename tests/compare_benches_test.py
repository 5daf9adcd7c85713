#!/usr/bin/env python3
"""Self-test for bench/compare_benches.py (ctest `compare_benches_test`).

Runs the script on synthetic google-benchmark JSON and checks its exit
code in these cases:

1. identical runs pass;
2. one bench 1.5x slower among four fails under --normalize;
3. a baseline BENCH_*.json with no new counterpart fails;
4. --rss-gate fails when no new result reports peak_rss_mb;
5. --rss-gate fails on a 300 MB counter against a 256 MB ceiling
   (and passes a 40 MB one);
6. a repeated bench with one 1.6x repetition passes, because its median
   aggregate is compared, not a single run;
7. a repeated bench whose median is 1.6x slower still fails.

Cases 3 and 4 are the fail-closed rules: a bench binary that was not
run, or a gated bench that was renamed, must not read as a pass.

Usage: compare_benches_test.py [REPO_ROOT]
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

failures = []

BASE_TIMES = {"BM_A": 100.0, "BM_B": 200.0, "BM_C": 300.0, "BM_D": 400.0}


def check(condition, label, output):
    """Records one case; the script's output is shown only on failure."""
    print(("PASS" if condition else "FAIL") + f": {label}")
    if not condition:
        print(output)
        failures.append(label)


def write_results(directory: Path, name: str, times: dict,
                  rss: dict | None = None, repeated: dict | None = None):
    """BENCH_<name>.json with one iteration entry per benchmark in
    `times`, and for each bench in `repeated` (name -> repetition
    times) one iteration entry per repetition plus the mean and median
    aggregates google-benchmark reports."""
    directory.mkdir(parents=True, exist_ok=True)
    benchmarks = []
    for bench, real_time in times.items():
        entry = {"name": bench, "run_name": bench, "run_type": "iteration",
                 "real_time": real_time, "time_unit": "ns"}
        if rss and bench in rss:
            entry["peak_rss_mb"] = rss[bench]
        benchmarks.append(entry)
    for bench, reps in (repeated or {}).items():
        run_name = f"{bench}/repeats:{len(reps)}"
        for index, real_time in enumerate(reps):
            benchmarks.append({"name": run_name, "run_name": run_name,
                               "run_type": "iteration",
                               "repetition_index": index,
                               "real_time": real_time, "time_unit": "ns"})
        for aggregate, value in (("mean", sum(reps) / len(reps)),
                                 ("median", sorted(reps)[len(reps) // 2])):
            benchmarks.append({"name": f"{run_name}_{aggregate}",
                               "run_name": run_name,
                               "run_type": "aggregate",
                               "aggregate_name": aggregate,
                               "real_time": value, "time_unit": "ns"})
    data = {"context": {"num_cpus": 4}, "benchmarks": benchmarks}
    (directory / f"BENCH_{name}.json").write_text(json.dumps(data))


def run_compare(repo: Path, base: Path, new: Path, *args):
    result = subprocess.run(
        [sys.executable, str(repo / "bench" / "compare_benches.py"),
         str(base), str(new), "--threshold", "25", *args],
        capture_output=True, text=True)
    return result.returncode, result.stdout + result.stderr


def main():
    repo = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else \
        Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        base = root / "base"
        write_results(base, "layers", BASE_TIMES)

        same = root / "same"
        write_results(same, "layers", BASE_TIMES)
        code, out = run_compare(repo, base, same, "--normalize")
        check(code == 0, f"identical runs exit 0 (got {code})", out)

        slow = root / "slow"
        write_results(slow, "layers", {**BASE_TIMES, "BM_C": 450.0})
        code, out = run_compare(repo, base, slow, "--normalize")
        check(code == 1 and "BM_C" in out,
              f"one bench 1.5x slower exits 1 (got {code})", out)

        # A second baseline file whose binary produced nothing new.
        two = root / "two"
        write_results(two, "layers", BASE_TIMES)
        write_results(two, "gone", {"BM_E": 50.0})
        code, out = run_compare(repo, two, same, "--normalize")
        check(code == 1 and "BENCH_gone.json" in out,
              f"a missing new result file exits 1 (got {code})", out)

        code, out = run_compare(repo, base, same, "--normalize",
                                "--rss-gate", "256")
        check(code == 1 and "peak_rss_mb" in out,
              f"--rss-gate with no counter exits 1 (got {code})", out)

        flat = root / "flat"
        write_results(flat, "layers", BASE_TIMES, rss={"BM_D": 40.0})
        code, out = run_compare(repo, base, flat, "--normalize",
                                "--rss-gate", "256")
        check(code == 0, f"a 40 MB counter passes the 256 MB gate "
                         f"(got {code})", out)

        fat = root / "fat"
        write_results(fat, "layers", BASE_TIMES, rss={"BM_D": 300.0})
        code, out = run_compare(repo, base, fat, "--normalize",
                                "--rss-gate", "256")
        check(code == 1 and "300.0 MB" in out,
              f"a 300 MB counter exits 1 (got {code})", out)

        # Five repetitions of 100 ns; the new run's last one is a
        # 1.6x outlier (its mean moves 12%, its median not at all).
        steady = {"BM_R": [100.0, 99.0, 101.0, 100.0, 100.0]}
        base_rep = root / "base_rep"
        write_results(base_rep, "layers", BASE_TIMES, repeated=steady)
        outlier = root / "outlier"
        write_results(outlier, "layers", BASE_TIMES,
                      repeated={"BM_R": [100.0, 99.0, 101.0, 100.0, 160.0]})
        code, out = run_compare(repo, base_rep, outlier, "--normalize")
        check(code == 0 and "BM_R/repeats:5" in out,
              f"one 1.6x repetition of a repeated bench passes "
              f"(got {code})", out)

        shifted = root / "shifted"
        write_results(shifted, "layers", BASE_TIMES,
                      repeated={"BM_R": [160.0, 158.0, 162.0, 160.0, 160.0]})
        code, out = run_compare(repo, base_rep, shifted, "--normalize")
        check(code == 1 and "BM_R/repeats:5" in out,
              f"a repeated bench with a 1.6x median exits 1 (got {code})",
              out)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
