#!/usr/bin/env python3
"""crp_shard's documented exit-code taxonomy, asserted end to end.

The codes are a stable contract for schedulers (see the header comment
of tools/crp_shard.cpp): 0 success, 1 internal, 2 usage, 3 validation,
4 I/O, 75 resumable interrupt. This test drives the real binary
through run / interrupt / resume / merge cycles — including a SIGTERM
mid-grid and deliberately corrupted artifacts — and checks both the
codes and that corruption errors name the offending file.

Also covers the declarative grid-spec surface: `plan` output (text and
--json) must describe exactly what `run --shard` executes, a
`--grid-spec` sweep of the checked-in examples/grids/table1.json must
be byte-identical to the compiled-in table1 grid (monolithic and
shard+merge), and spec validation/readability failures must exit 3/4
with the offending field and file named.

Two cases compare against checked-in files rather than the binary
itself: table1 runs with the simulated and the history-tree CD engine
must equal tests/goldens/table1_simulate_n1024_t500_s7.csv and
tests/goldens/table1_tree_n1024_t500_s7.csv byte for byte.

Usage: crp_shard_cli_test.py /path/to/crp_shard [/path/to/source/tree]
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

CRP_SHARD = sys.argv[1]
SOURCE_DIR = (sys.argv[2] if len(sys.argv) > 2
              else os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
FAILURES = []


def run(*args, **kwargs):
    return subprocess.run(
        [CRP_SHARD, *args], capture_output=True, text=True, **kwargs
    )


def check(label, proc, code, stderr_contains=()):
    problems = []
    if proc.returncode != code:
        problems.append(f"exit {proc.returncode}, expected {code}")
    for needle in stderr_contains:
        if needle not in proc.stderr:
            problems.append(f"stderr lacks {needle!r}")
    if problems:
        FAILURES.append(f"{label}: {'; '.join(problems)}\n"
                        f"  stderr: {proc.stderr.strip()}")
        print(f"FAIL {label}: {'; '.join(problems)}")
    else:
        print(f"ok   {label}")


def flip_byte(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0x01]))


def fault_env(**variables):
    """os.environ plus CRP_FAULT_* (or other) overrides, stringified."""
    env = dict(os.environ)
    env.update({key: str(value) for key, value in variables.items()})
    return env


def wait_for(predicate, label, timeout=60):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    FAILURES.append(f"timed out waiting for {label}")
    return False


def journal_has_cell(path):
    try:
        with open(path, "rb") as handle:
            return b"\ncell " in b"\n" + handle.read()
    except FileNotFoundError:
        return False


GRID = ["--n", "4096", "--trials", "200", "--seed", "7"]

with tempfile.TemporaryDirectory() as tmp:
    mono = os.path.join(tmp, "mono.csv")
    shards = os.path.join(tmp, "shards")
    merged = os.path.join(tmp, "merged.csv")

    # --- usage errors: exit 2 ---
    check("unknown mode", run("frobnicate"), 2)
    check("missing merge --out", run("merge", "x.json"), 2)
    check("--shard with --cells",
          run("run", "--shard", "0/2", "--cells", "0:4", "--out-dir", tmp), 2)
    check("bad integer", run("run", "--trials", "-3"), 2)
    # Shard and range values that cannot describe any slice are usage
    # errors, caught before a grid is built.
    for label, flag, value in [("--shard index == count", "--shard", "2/2"),
                               ("--shard index > count", "--shard", "3/2"),
                               ("--shard count 0", "--shard", "0/0"),
                               ("--cells begin > end", "--cells", "5:3")]:
        check(label, run("run", *GRID, flag, value, "--out-dir", tmp), 2,
              stderr_contains=[value])
    # A range past the grid's end is only known once the grid exists:
    # a validation error.
    check("--cells past the grid",
          run("run", *GRID, "--cells", "0:999", "--out-dir", tmp), 3,
          stderr_contains=["not within"])
    check("resume without sharding", run("resume", *GRID), 2)
    # The env surface is as strict as the flag surface: a typo'd
    # kernel-tier cap is a hard usage error before any work runs, not
    # a silently ignored no-op.
    check("unknown CRP_KERNEL_TIER",
          run("run", *GRID, env=fault_env(CRP_KERNEL_TIER="avx1024")), 2,
          stderr_contains=["CRP_KERNEL_TIER", "avx1024"])
    check("valid CRP_KERNEL_TIER cap still runs",
          run("run", *GRID, "--trials", "20",
              env=fault_env(CRP_KERNEL_TIER="scalar")), 0,
          stderr_contains=["kernel tier scalar"])

    # --- success and resumable interrupt: exits 0 and 75 ---
    check("monolithic run", run("run", *GRID, "--out", mono), 0)
    check(
        "interrupted shard (cell budget)",
        run("run", *GRID, "--shard", "0/2", "--out-dir", shards,
            "--stop-after-cells", "1"),
        75,
        stderr_contains=["resume"],
    )
    journal = os.path.join(shards, "shard-0-of-2.journal")
    if not os.path.exists(journal):
        FAILURES.append("interrupted shard left no journal")

    # --- validation errors: exit 3 ---
    check(
        "run over an existing journal",
        run("run", *GRID, "--shard", "0/2", "--out-dir", shards),
        3,
        stderr_contains=[journal],
    )
    check(
        "resume with nothing to resume",
        run("resume", *GRID, "--shard", "1/2", "--out-dir", shards),
        3,
        stderr_contains=["nothing to resume"],
    )
    check(
        "resume under a different seed",
        run("resume", "--n", "4096", "--trials", "200", "--seed", "8",
            "--shard", "0/2", "--out-dir", shards),
        3,
        stderr_contains=["master seed"],
    )

    # --- the full resume-then-merge cycle reproduces the monolithic CSV ---
    check("resume to completion",
          run("resume", *GRID, "--shard", "0/2", "--out-dir", shards), 0)
    check("second shard",
          run("run", *GRID, "--shard", "1/2", "--out-dir", shards), 0)
    manifests = [os.path.join(shards, f"shard-{i}-of-2.manifest.json")
                 for i in range(2)]
    check("merge", run("merge", "--out", merged, *manifests), 0)
    with open(mono, "rb") as a, open(merged, "rb") as b:
        if a.read() != b.read():
            FAILURES.append("merged CSV differs from monolithic CSV")
        else:
            print("ok   resumed merge is byte-identical to monolithic")

    # --- partial merge: gaps become a machine-readable report, exit 0 ---
    partial = os.path.join(tmp, "partial.csv")
    check("partial merge with a gap",
          run("merge", "--out", partial, "--allow-partial", manifests[1]), 0)
    with open(partial + ".partial.json") as handle:
        report = handle.read()
    if "crp-partial-merge-v1" not in report or "missing_ranges" not in report:
        FAILURES.append(f"partial report malformed: {report}")
    else:
        print("ok   partial merge report is machine-readable")
    check("strict merge still rejects the gap",
          run("merge", "--out", partial, manifests[1]), 3,
          stderr_contains=["gap"])

    # --- on-disk corruption: exit 3, errors name the damaged file ---
    csv_path = os.path.join(shards, "shard-0-of-2.csv")
    with open(csv_path, "rb") as handle:
        good_csv = handle.read()
    with open(csv_path, "wb") as handle:
        handle.write(good_csv[: len(good_csv) // 2])
    check(
        "merge with a truncated shard CSV",
        run("merge", "--out", merged, *manifests),
        3,
        stderr_contains=[csv_path],
    )
    with open(csv_path, "wb") as handle:
        handle.write(good_csv)
    # Flip a byte inside the first JSON key: the strict manifest
    # parser must reject it, and the CLI must prefix the file path.
    flip_byte(manifests[0], 4)
    check(
        "merge with a bit-flipped manifest",
        run("merge", "--out", merged, *manifests),
        3,
        stderr_contains=[manifests[0]],
    )
    flip_byte(manifests[0], 4)  # restore the manifest

    # The manifest's csv must be a bare file name: a 0x01 flip of the
    # '.' in "shard-0-of-2.csv" to '/' and an absolute path to a real
    # CSV are both a damaged manifest (exit 3), never a file opened
    # outside the artifact directory.
    with open(manifests[0]) as handle:
        good_manifest = handle.read()
    for label, name in [("'.' flipped to '/'", "shard-0-of-2/csv"),
                        ("an absolute path", os.path.abspath(csv_path))]:
        with open(manifests[0], "w") as handle:
            handle.write(good_manifest.replace('"shard-0-of-2.csv"',
                                               json.dumps(name)))
        check(f"merge with a manifest csv of {label}",
              run("merge", "--out", merged, *manifests), 3,
              stderr_contains=[manifests[0], "bare file name"])
    with open(manifests[0], "w") as handle:
        handle.write(good_manifest)

    # --- I/O errors: exit 4 ---
    check(
        "merge with a missing manifest",
        run("merge", "--out", merged, os.path.join(tmp, "no-such.json")),
        4,
        stderr_contains=["no-such.json"],
    )
    os.remove(csv_path)
    check(
        "merge with a missing shard CSV",
        run("merge", "--out", merged, manifests[0]),
        4,
        stderr_contains=[csv_path, manifests[0]],
    )

    # --- grid specs: plan + --grid-spec vs the compiled-in grid ---
    spec = os.path.join(SOURCE_DIR, "examples", "grids", "table1.json")
    SPEC_GRID = ["--grid-spec", spec, "--trials", "200", "--seed", "7"]
    BUILTIN_GRID = ["--grid", "table1", "--n", "1024",
                    "--trials", "200", "--seed", "7"]

    # plan-mode flag surface: exit 2.
    check("plan with --shard", run("plan", *BUILTIN_GRID, "--shard", "0/2"), 2)
    check("plan with --out", run("plan", *BUILTIN_GRID, "--out", mono), 2)
    check("--grid with --grid-spec",
          run("plan", "--grid", "table1", "--grid-spec", spec), 2)
    check("--n with --grid-spec",
          run("plan", "--grid-spec", spec, "--n", "1024"), 2)
    check("--json outside plan", run("run", *BUILTIN_GRID, "--json"), 2)
    check("--shards outside plan",
          run("run", *BUILTIN_GRID, "--shards", "3"), 2)

    # plan text output: the golden shape, identical between the
    # built-in grid and the checked-in spec below the grid label line.
    plan_builtin = run("plan", *BUILTIN_GRID, "--shards", "3")
    plan_spec = run("plan", *SPEC_GRID, "--shards", "3")
    check("plan built-in grid", plan_builtin, 0)
    check("plan spec grid", plan_spec, 0)
    builtin_lines = plan_builtin.stdout.splitlines()
    spec_lines = plan_spec.stdout.splitlines()
    golden = [
        (1, "cells: 8, "), (1, ", shards 3"),
        (2, "shard 0/3: cells [0, 2)"),
        (3, 'cell 0: algorithm "likelihood", sizes "H=0.00", '
            'budget 262144, trials 200, seed_stream 0x0, cell_seed 0x'),
        (5, "shard 1/3: cells [2, 5)"),
        (9, "shard 2/3: cells [5, 8)"),
        (12, 'cell 7: algorithm "coded", sizes "H=3.00", '
             'budget 16384, trials 200, seed_stream 0x7, cell_seed 0x'),
    ]
    if len(builtin_lines) != 13 or not builtin_lines[0].startswith("grid: "):
        FAILURES.append(f"plan text has unexpected shape: {builtin_lines}")
    elif any(needle not in builtin_lines[index] for index, needle in golden):
        FAILURES.append(f"plan text drifted from golden: {builtin_lines}")
    elif builtin_lines[1:] != spec_lines[1:]:
        FAILURES.append("plan text differs between built-in grid and spec:\n"
                        + plan_builtin.stdout + plan_spec.stdout)
    else:
        print("ok   plan text matches golden, spec == built-in")

    # plan --json: machine-readable, and identical modulo the label.
    plan_builtin_json = run("plan", *BUILTIN_GRID, "--shards", "3", "--json")
    plan_spec_json = run("plan", *SPEC_GRID, "--shards", "3", "--json")
    check("plan --json built-in grid", plan_builtin_json, 0)
    check("plan --json spec grid", plan_spec_json, 0)
    doc = json.loads(plan_builtin_json.stdout)
    spec_doc = json.loads(plan_spec_json.stdout)
    problems = []
    if doc["format"] != "crp-shard-plan-v1":
        problems.append(f"format {doc['format']!r}")
    if doc["total_cells"] != 8 or doc["shard_count"] != 3:
        problems.append("wrong totals")
    ranges = [(s["cell_begin"], s["cell_end"]) for s in doc["shards"]]
    if ranges != [(0, 2), (2, 5), (5, 8)]:
        problems.append(f"ranges {ranges}")
    cells = [c for s in doc["shards"] for c in s["cells"]]
    if [c["cell_index"] for c in cells] != list(range(8)):
        problems.append("cell indices not 0..7")
    if [c["budget"] for c in cells] != [262144, 16384] * 4:
        problems.append("budgets drifted")
    if any(c["trials"] != 200 for c in cells):
        problems.append("trials drifted")
    if [c["seed_stream"] for c in cells] != [hex(i) for i in range(8)]:
        problems.append("seed streams not pinned to grid indices")
    doc.pop("grid")
    spec_doc.pop("grid")
    if doc != spec_doc:
        problems.append("spec plan differs from built-in plan")
    if problems:
        FAILURES.append(f"plan --json: {'; '.join(problems)}")
        print(f"FAIL plan --json: {'; '.join(problems)}")
    else:
        print("ok   plan --json matches golden, spec == built-in")

    # --grid-spec end to end: monolithic and shard+merge runs must be
    # byte-identical to the compiled-in grid's monolithic CSV.
    builtin_csv = os.path.join(tmp, "builtin.csv")
    spec_csv = os.path.join(tmp, "spec.csv")
    spec_merged = os.path.join(tmp, "spec-merged.csv")
    spec_shards = os.path.join(tmp, "spec-shards")
    check("monolithic built-in run",
          run("run", *BUILTIN_GRID, "--out", builtin_csv), 0)
    check("monolithic spec run", run("run", *SPEC_GRID, "--out", spec_csv), 0)
    for i in range(3):
        check(f"spec shard {i}/3",
              run("run", *SPEC_GRID, "--shard", f"{i}/3",
                  "--out-dir", spec_shards), 0)
    spec_manifests = [
        os.path.join(spec_shards, f"shard-{i}-of-3.manifest.json")
        for i in range(3)]
    check("spec merge", run("merge", "--out", spec_merged, *spec_manifests), 0)
    with open(builtin_csv, "rb") as handle:
        builtin_bytes = handle.read()
    for label, path in [("monolithic spec CSV", spec_csv),
                        ("sharded+merged spec CSV", spec_merged)]:
        with open(path, "rb") as handle:
            if handle.read() != builtin_bytes:
                FAILURES.append(f"{label} differs from built-in grid CSV")
            else:
                print(f"ok   {label} is byte-identical to built-in grid")

    # The plan is what the shards executed: ranges and per-cell seeds
    # in the run manifests must match the --json plan exactly.
    problems = []
    for index, manifest_path in enumerate(spec_manifests):
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        planned = spec_doc["shards"][index]
        if (manifest["cell_begin"], manifest["cell_end"]) != (
                planned["cell_begin"], planned["cell_end"]):
            problems.append(f"shard {index} range mismatch")
        if manifest["cell_seeds"] != [c["cell_seed"]
                                      for c in planned["cells"]]:
            problems.append(f"shard {index} cell seeds mismatch")
    if problems:
        FAILURES.append(f"plan vs manifests: {'; '.join(problems)}")
        print(f"FAIL plan vs manifests: {'; '.join(problems)}")
    else:
        print("ok   executed manifests match the published plan")

    # Spec validation failure: exit 3, naming the file and the field.
    bad_spec = os.path.join(tmp, "bad-spec.json")
    with open(bad_spec, "w") as handle:
        handle.write('{"format": "crp-grid-spec-v1", "n": 1024,\n'
                     ' "frobnicate": 1}')
    check("invalid grid spec",
          run("run", "--grid-spec", bad_spec),
          3,
          stderr_contains=[bad_spec, 'unknown field "frobnicate"', "line 2"])
    check("plan with invalid grid spec",
          run("plan", "--grid-spec", bad_spec),
          3,
          stderr_contains=['unknown field "frobnicate"'])

    # Hostile nesting is a validation error (exit 3), not a stack
    # overflow that kills the process by signal.
    deep_spec = os.path.join(tmp, "deep-spec.json")
    with open(deep_spec, "w") as handle:
        handle.write("[" * 100000)
    check("plan with a deeply nested grid spec",
          run("plan", "--grid-spec", deep_spec),
          3,
          stderr_contains=[deep_spec, "nesting deeper than 64", "column 65"])

    # Unreadable spec file: exit 4 (I/O, retryable), naming the path.
    missing_spec = os.path.join(tmp, "no-such-spec.json")
    check("missing grid spec",
          run("run", "--grid-spec", missing_spec),
          4,
          stderr_contains=[missing_spec])

    # --- supervise: the self-healing fleet driver ---
    # Tight backoffs keep the chaos cases fast; every merged CSV must
    # be byte-identical to the monolithic run (minus quarantined rows).
    FAST = ["--backoff-ms", "10", "--backoff-max-ms", "40"]
    mono_lines = builtin_bytes.splitlines(keepends=True)
    sup_out = os.path.join(tmp, "sup.csv")
    sup_dir = os.path.join(tmp, "sup-work")

    # Flag surface: exit 2.
    check("supervise without --out/--out-dir",
          run("supervise", *BUILTIN_GRID), 2)
    check("supervise with --shard",
          run("supervise", *BUILTIN_GRID, "--out", sup_out,
              "--out-dir", sup_dir, "--shard", "0/2"), 2)
    check("supervise with zero workers",
          run("supervise", *BUILTIN_GRID, "--out", sup_out,
              "--out-dir", sup_dir, "--workers", "0"), 2)
    check("--workers outside supervise",
          run("run", *BUILTIN_GRID, "--workers", "3"), 2)
    check("--resume outside supervise",
          run("run", *BUILTIN_GRID, "--resume"), 2)
    check("--stop-after-cells 0 rejected",
          run("run", *BUILTIN_GRID, "--shard", "0/2", "--out-dir", sup_dir,
              "--stop-after-cells", "0"), 2)
    check("supervise --resume with no journal",
          run("supervise", *BUILTIN_GRID, "--out", sup_out,
              "--out-dir", sup_dir, "--resume"), 3,
          stderr_contains=["nothing to resume"])

    # Clean fleet: converges, byte-identical, empty quarantine report.
    check("supervise clean fleet",
          run("supervise", *BUILTIN_GRID, "--out", sup_out,
              "--out-dir", sup_dir, "--workers", "3", *FAST), 0)
    with open(sup_out, "rb") as handle:
        if handle.read() != builtin_bytes:
            FAILURES.append("supervised CSV differs from monolithic CSV")
        else:
            print("ok   supervised CSV is byte-identical to monolithic")
    with open(sup_out + ".quarantine.json") as handle:
        report = json.load(handle)
    if (report["format"] != "crp-quarantine-v1"
            or report["quarantined_cells"] != 0 or report["quarantined"]):
        FAILURES.append(f"clean-run quarantine report malformed: {report}")
    else:
        print("ok   clean run ships an empty crp-quarantine-v1 report")
    check("supervise fresh over an existing journal",
          run("supervise", *BUILTIN_GRID, "--out", sup_out,
              "--out-dir", sup_dir, "--workers", "3", *FAST), 3,
          stderr_contains=["supervisor.journal"])

    # Injected kill-9 after every cell: eight crashes, one converged CSV.
    chaos_out = os.path.join(tmp, "chaos.csv")
    check("supervise under constant worker crashes",
          run("supervise", *BUILTIN_GRID, "--out", chaos_out,
              "--out-dir", os.path.join(tmp, "chaos-work"),
              "--workers", "3", *FAST,
              env=fault_env(CRP_FAULT_CRASH_AFTER_CELLS=1)), 0,
          stderr_contains=["killed by signal 9"])
    with open(chaos_out, "rb") as handle:
        if handle.read() != builtin_bytes:
            FAILURES.append("crash-chaos CSV differs from monolithic CSV")
        else:
            print("ok   crash-chaos CSV is byte-identical to monolithic")

    # Timeout escalation: a cell hung far past the budget draws
    # SIGTERM, then SIGKILL, and is eventually quarantined.
    hang_out = os.path.join(tmp, "hang.csv")
    check("supervise escalates a hung cell",
          run("supervise", *BUILTIN_GRID, "--out", hang_out,
              "--out-dir", os.path.join(tmp, "hang-work"),
              "--workers", "3", "--retry-budget", "1", *FAST,
              "--worker-timeout-ms", "300", "--kill-grace-ms", "150",
              env=fault_env(CRP_FAULT_SLEEP_MS_IN_CELL="30000@6")), 0,
          stderr_contains=["sending SIGTERM", "sending SIGKILL",
                           "quarantined cell 6"])
    with open(hang_out + ".quarantine.json") as handle:
        report = json.load(handle)
    if (report["quarantined_cells"] != 1
            or report["quarantined"][0]["cell_index"] != 6
            or "timed out" not in report["quarantined"][0]["reason"]):
        FAILURES.append(f"hung-cell quarantine report malformed: {report}")
    else:
        print("ok   hung cell lands in the quarantine report")
    with open(hang_out, "rb") as handle:
        expected = b"".join(mono_lines[:7] + mono_lines[8:])
        if handle.read() != expected:
            FAILURES.append("hung-cell CSV != monolithic minus cell 6's row")
        else:
            print("ok   hung-cell CSV is monolithic minus the quarantined row")

    # Poisoned cell: exit-3 validation failures bisect down to the
    # cell, quarantine it, and the report matches the golden shape.
    poison_out = os.path.join(tmp, "poison.csv")
    check("supervise quarantines a poisoned cell",
          run("supervise", *BUILTIN_GRID, "--out", poison_out,
              "--out-dir", os.path.join(tmp, "poison-work"),
              "--workers", "3", "--retry-budget", "1", *FAST,
              env=fault_env(CRP_FAULT_POISON_CELLS=3)), 0,
          stderr_contains=["bisecting cells", "quarantined cell 3"])
    with open(poison_out + ".quarantine.json") as handle:
        report = json.load(handle)
    golden_problems = []
    if report["format"] != "crp-quarantine-v1":
        golden_problems.append(f"format {report['format']!r}")
    if not report["grid_hash"].startswith("0x"):
        golden_problems.append("grid_hash not hex")
    if report["total_cells"] != 8 or report["quarantined_cells"] != 1:
        golden_problems.append("wrong counts")
    quarantined = report["quarantined"][0]
    if quarantined["cell_index"] != 3:
        golden_problems.append(f"cell {quarantined['cell_index']}")
    if "validation error (exit 3)" not in quarantined["reason"]:
        golden_problems.append(f"reason {quarantined['reason']!r}")
    if golden_problems:
        FAILURES.append(f"quarantine golden: {'; '.join(golden_problems)}")
        print(f"FAIL quarantine golden: {'; '.join(golden_problems)}")
    else:
        print("ok   quarantine report matches the golden shape")
    with open(poison_out, "rb") as handle:
        expected = b"".join(mono_lines[:4] + mono_lines[5:])
        if handle.read() != expected:
            FAILURES.append("poison CSV != monolithic minus cell 3's row")
        else:
            print("ok   poison CSV is monolithic minus the quarantined row")

    # Supervisor interrupt + --resume: SIGINT stops the fleet with 75;
    # the resumed supervisor replays its journal and converges.
    res_out = os.path.join(tmp, "res.csv")
    res_dir = os.path.join(tmp, "res-work")
    proc = subprocess.Popen(
        [CRP_SHARD, "supervise", *BUILTIN_GRID, "--out", res_out,
         "--out-dir", res_dir, "--workers", "2", *FAST],
        env=fault_env(CRP_FAULT_SLEEP_MS_IN_CELL=300),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    wait_for(
        lambda: os.path.isdir(res_dir) and any(
            journal_has_cell(os.path.join(res_dir, name))
            for name in os.listdir(res_dir) if name.endswith(".journal")
            and name != "supervisor.journal"),
        "a supervised worker to journal a cell")
    proc.send_signal(signal.SIGINT)
    stderr = proc.communicate(timeout=120)[1]
    if proc.returncode != 75:
        FAILURES.append(f"supervise SIGINT exited {proc.returncode}, "
                        f"expected 75\n  stderr: {stderr.strip()}")
    else:
        print("ok   supervise stops cleanly with exit 75 on SIGINT")
    check("supervise --resume to convergence",
          run("supervise", *BUILTIN_GRID, "--out", res_out,
              "--out-dir", res_dir, "--workers", "2", *FAST, "--resume"), 0,
          stderr_contains=["resuming:"])
    with open(res_out, "rb") as handle:
        if handle.read() != builtin_bytes:
            FAILURES.append("resumed supervised CSV differs from monolithic")
        else:
            print("ok   resumed supervised CSV is byte-identical")

    # --- journaled shards on the (cell, block) pool ---
    # Records land in cell order whatever the thread count, so an
    # uninterrupted journal is the same file at --threads 1 and 4.
    journals = []
    for threads in ("1", "4"):
        pool_dir = os.path.join(tmp, f"pool-threads-{threads}")
        check(f"journaled shard at --threads {threads}",
              run("run", *BUILTIN_GRID, "--shard", "0/1",
                  "--threads", threads, "--out-dir", pool_dir), 0)
        with open(os.path.join(pool_dir, "shard-0-of-1.journal"),
                  "rb") as handle:
            journals.append(handle.read())
    if journals[0] != journals[1]:
        FAILURES.append("shard journal differs between --threads 1 and 4")
    else:
        print("ok   shard journal is identical at --threads 1 and 4")

    # A kill after two journaled cells at --threads 4 lands while other
    # cells are open; the journal keeps the two-cell prefix, and resume
    # plus merge reproduce the monolithic CSV byte for byte.
    crash_dir = os.path.join(tmp, "crash-open-cells")
    crash_journal = os.path.join(crash_dir, "shard-0-of-1.journal")
    check("crash with cells open",
          run("run", *BUILTIN_GRID, "--shard", "0/1", "--threads", "4",
              "--out-dir", crash_dir,
              env=fault_env(CRP_FAULT_CRASH_AFTER_CELLS=2)),
          -signal.SIGKILL)
    with open(crash_journal, "rb") as handle:
        journaled = (b"\n" + handle.read()).count(b"\ncell ")
    if journaled != 2:
        FAILURES.append(f"crashed journal holds {journaled} cells, "
                        "expected 2")
    check("resume after crash with cells open",
          run("resume", *BUILTIN_GRID, "--shard", "0/1", "--threads", "4",
              "--out-dir", crash_dir), 0)
    crash_merged = os.path.join(tmp, "crash-merged.csv")
    check("merge after crash resume",
          run("merge", "--out", crash_merged,
              os.path.join(crash_dir, "shard-0-of-1.manifest.json")), 0)
    with open(crash_merged, "rb") as handle:
        if handle.read() != builtin_bytes:
            FAILURES.append("crash-resumed CSV differs from monolithic")
        else:
            print("ok   crash-resumed CSV is byte-identical")

    # --- cross-commit byte pins on both CD engines ---
    # Every other CSV comparison here pits the binary against itself.
    # These hold it to checked-in CSVs, so a change to the per-trial
    # generator, to any draw sequence the simulator makes, or to the
    # batch and history-tree samplers fails here. The CD engine is
    # named, not defaulted, so a change of default never has to
    # regenerate a golden.
    for label, cd_engine in (("simulated", "simulate"),
                             ("history-tree", "tree")):
        golden_csv = os.path.join(SOURCE_DIR, "tests", "goldens",
                                  f"table1_{cd_engine}_n1024_t500_s7.csv")
        pinned = os.path.join(tmp, f"pinned-{cd_engine}.csv")
        check(f"{label} table1 run for the golden",
              run("run", "--grid", "table1", "--n", "1024", "--trials",
                  "500", "--seed", "7", "--cd-engine", cd_engine,
                  "--out", pinned), 0)
        with open(pinned, "rb") as handle, open(golden_csv, "rb") as golden:
            if handle.read() != golden.read():
                FAILURES.append(f"{label} table1 CSV differs from {golden_csv}")
            else:
                print(f"ok   {label} table1 CSV matches the checked-in golden")

    # --- SIGHUP mid-grid: same resumable contract as SIGINT/SIGTERM ---
    hup_dir = os.path.join(tmp, "sighup")
    hup_journal = os.path.join(hup_dir, "shard-0-of-2.journal")
    proc = subprocess.Popen(
        [CRP_SHARD, "run", *BUILTIN_GRID, "--shard", "0/2",
         "--out-dir", hup_dir],
        env=fault_env(CRP_FAULT_SLEEP_MS_IN_CELL=400),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    wait_for(lambda: journal_has_cell(hup_journal),
             "the SIGHUP worker to journal a cell")
    proc.send_signal(signal.SIGHUP)
    stderr = proc.communicate(timeout=120)[1]
    if proc.returncode != 75:
        FAILURES.append(f"SIGHUP run exited {proc.returncode}, expected 75\n"
                        f"  stderr: {stderr.strip()}")
    elif "resume" not in stderr:
        FAILURES.append(f"SIGHUP stderr lacks resume hint: {stderr.strip()}")
    else:
        print("ok   SIGHUP stops cleanly with exit 75")
    check("resume after SIGHUP",
          run("resume", *BUILTIN_GRID, "--shard", "0/2",
              "--out-dir", hup_dir), 0)

    # --- SIGTERM mid-grid: finish the cell, flush, exit 75 ---
    sig_dir = os.path.join(tmp, "sigterm")
    sig_journal = os.path.join(sig_dir, "shard-0-of-2.journal")
    proc = subprocess.Popen(
        [CRP_SHARD, "run", "--n", "65536", "--trials", "300000",
         "--shard", "0/2", "--out-dir", sig_dir],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        try:
            with open(sig_journal, "rb") as handle:
                if b"\ncell " in b"\n" + handle.read():
                    break
        except FileNotFoundError:
            pass
        time.sleep(0.02)
    proc.send_signal(signal.SIGTERM)
    stderr = proc.communicate(timeout=120)[1]
    if proc.returncode != 75:
        FAILURES.append(f"SIGTERM run exited {proc.returncode}, expected 75\n"
                        f"  stderr: {stderr.strip()}")
    elif "resume" not in stderr:
        FAILURES.append(f"SIGTERM stderr lacks resume hint: {stderr.strip()}")
    else:
        print("ok   SIGTERM stops cleanly with exit 75")
    check("resume after SIGTERM",
          run("resume", "--n", "65536", "--trials", "300000",
              "--shard", "0/2", "--out-dir", sig_dir), 0)

if FAILURES:
    print(f"\n{len(FAILURES)} failure(s):")
    for failure in FAILURES:
        print(f"  {failure}")
    sys.exit(1)
print("\nall crp_shard CLI exit-code checks passed")
