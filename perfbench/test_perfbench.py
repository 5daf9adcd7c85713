"""Tests of the benchmark's own pieces: the fanout grid generator, the
output check and the comparison guard.

    python3 perfbench/test_perfbench.py

The crp_shard tests build the benchmark's programs first, as run.py
does (into .bench_build/ under the checkout).
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402
import gridgen  # noqa: E402
import run  # noqa: E402


class GridGenTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(gridgen.spec_bytes(7), gridgen.spec_bytes(7))
        self.assertNotEqual(gridgen.spec_bytes(7), gridgen.spec_bytes(8))

    def test_write_spec_writes_spec_bytes(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "grid.json"
            gridgen.write_spec(7, path)
            self.assertEqual(path.read_bytes(), gridgen.spec_bytes(7))

    def test_crp_shard_plans_the_expected_cells(self):
        crp_shard, _, _ = run.build()
        with tempfile.TemporaryDirectory() as tmp:
            for seed in (0, 1, 99):
                path = Path(tmp) / f"grid{seed}.json"
                gridgen.write_spec(seed, path)
                done = subprocess.run(
                    [str(crp_shard), "plan", "--grid-spec", str(path),
                     "--json"], capture_output=True, text=True, check=False)
                self.assertEqual(done.returncode, 0, done.stderr)
                plan = json.loads(done.stdout)
                self.assertEqual(plan["total_cells"], gridgen.cell_count())


def plan_entry(seed_hex="0x10", trials=1000):
    return {"algorithm": "likelihood", "sizes": "k=8", "budget": 64,
            "trials": trials, "cell_seed": seed_hex}


def csv_text(rows):
    return (",".join(run.CSV_HEADER) + "\n"
            + "".join(",".join(map(str, r)) + "\n" for r in rows))


class OutputCheckTest(unittest.TestCase):
    REF = {"mean": 4.0, "mean_se": 0.0, "success": 0.9, "success_se": 0.0}
    GOOD = ["likelihood", "k=8", 64, 1000, 16, "4.0100", "0.2000", "3.0",
            "8.0", "15.0", "0.9050"]

    def failed(self, row, planned=None):
        return run.failed_cells(csv_text([row]), [planned or plan_entry()],
                                [self.REF])

    def test_matching_row_passes(self):
        self.assertEqual(self.failed(self.GOOD), 0)

    def test_wrong_seed_trials_or_name_fails(self):
        for column, value in ((4, 17), (3, 999), (0, "coded"), (2, 65)):
            row = list(self.GOOD)
            row[column] = value
            self.assertEqual(self.failed(row), 1, (column, value))

    def test_shifted_statistics_fail(self):
        far_mean = list(self.GOOD)
        far_mean[5] = "6.0000"
        self.assertEqual(self.failed(far_mean), 1)
        far_success = list(self.GOOD)
        far_success[10] = "0.5000"
        self.assertEqual(self.failed(far_success), 1)

    def test_missing_rows_and_bad_header_fail_every_cell(self):
        plan = [plan_entry(), plan_entry("0x11")]
        refs = [self.REF, self.REF]
        self.assertEqual(run.failed_cells(csv_text([self.GOOD]), plan, refs),
                         1)
        self.assertEqual(run.failed_cells("x\n", plan, refs), 2)

    def test_kernel_tier_line(self):
        self.assertEqual(run.kernel_tier("a\ncrp_shard: kernel tier avx2\n"),
                         "avx2")
        self.assertEqual(run.kernel_tier("nothing"), "unknown")


class BenchmarkJsonTest(unittest.TestCase):
    def test_metrics_match_run_py(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {n: u for n, (u, _) in run.PER_LAYER.items()})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


class CompareTest(unittest.TestCase):
    def result(self, nproc, tier, wall):
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}},
                "provenance": {"workload": "w", "nproc": nproc,
                               "kernel_tier": tier}}

    def test_refuses_other_core_count_or_tier(self):
        base = [self.result(4, "avx2", 1.0)]
        for other in (self.result(8, "avx2", 1.0),
                      self.result(4, "scalar", 1.0)):
            with self.assertRaises(compare.Incomparable):
                compare.compare(base, [other], {"wall_s": 0.1})

    def test_reports_worse_beyond_bound(self):
        rows = compare.compare([self.result(4, "avx2", 1.0)],
                               [self.result(4, "avx2", 1.2)],
                               {"wall_s": 0.1}, lower_is_better={"wall_s"})
        self.assertEqual(rows[0]["verdict"], "worse")


if __name__ == "__main__":
    unittest.main()
