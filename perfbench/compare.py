"""Compares two sets of saved benchmark results of one workload.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

Each file is the result.json a run of perfbench/run.py leaves in its
work directory (.bench_build/perfbench/work/WORKLOAD-seedN/). For every
metric the two medians are compared; an end-to-end metric whose median
got worse by more than its bound in BENCHMARK.json is reported "worse".

Results are only comparable when they come from the same core count
and the same dispatched kernel tier; anything else is refused (exit 2).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Incomparable(Exception):
    """The two result sets were measured under different conditions."""


def compare(base, new, bounds, lower_is_better=()):
    """One row per metric of the base set: medians, change, verdict."""
    conditions = {(r["provenance"]["workload"], r["provenance"]["nproc"],
                   r["provenance"]["kernel_tier"]) for r in base + new}
    if len(conditions) != 1:
        raise Incomparable("results differ in workload, nproc or kernel "
                           f"tier: {sorted(map(str, conditions))}")
    rows = []
    for name in base[0]["metrics"]:
        before = statistics.median(r["metrics"][name]["value"] for r in base)
        after = statistics.median(r["metrics"][name]["value"] for r in new)
        change = (after - before) / before if before else 0.0
        worse = change if name in lower_is_better else -change
        verdict = "n/a"
        if name in bounds:
            verdict = "worse" if worse > bounds[name] else "within bound"
        rows.append({"metric": name, "base": before, "new": after,
                     "change": change, "verdict": verdict})
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]
             if m["better"] == "lower"}
    load = lambda paths: [json.loads(Path(p).read_text()) for p in paths]
    try:
        rows = compare(load(args.base), load(args.new), bounds, lower)
    except Incomparable as error:
        print(f"compare: refused: {error}", file=sys.stderr)
        return 2
    for row in rows:
        print(f"{row['metric']:34s} {row['base']:>14.6g} {row['new']:>14.6g} "
              f"{row['change']:+8.2%}  {row['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
