// crp_shard: crash-safe multi-process sweep shard driver and merge
// tool.
//
// Partitions a sweep grid's cells across processes, journals progress
// cell by cell so a killed worker can resume without losing completed
// work, and reassembles the per-shard artifacts into exactly the CSV
// a single-process run would have written — byte for byte
// (harness/shard.h + harness/checkpoint.h are the library layers; the
// CI shard-smoke and crash-resume steps diff the outputs).
//
// Usage:
//   crp_shard run    [--grid table1 | --grid-spec FILE] [--n N]
//                    [--trials T] [--seed S]
//                    [--threads T] [--cd-engine simulate|tree]
//                    [--shard I/N] [--cells B:E] [--out FILE]
//                    [--out-dir DIR] [--stop-after-cells K]
//   crp_shard resume (same flags as run; sharded only)
//   crp_shard plan   [--grid table1 | --grid-spec FILE] [--n N]
//                    [--trials T] [--seed S] [--shards N] [--json]
//   crp_shard merge  --out FILE [--allow-partial] MANIFEST.json...
//   crp_shard supervise --out FILE --out-dir DIR [grid/sweep flags]
//                    [--workers N] [--retry-budget K] [--backoff-ms MS]
//                    [--backoff-max-ms MS] [--worker-timeout-ms MS]
//                    [--kill-grace-ms MS] [--resume]
//
// --grid-spec swaps the compiled-in grid for a declarative
// crp-grid-spec-v1 JSON file (harness/gridspec.h, grammar in
// docs/GRIDSPEC.md): the spec's cells flow through the same
// fingerprint/journal/manifest machinery, so a spec that reproduces a
// built-in grid shards and merges byte-identically to it. The spec
// pins its own network size, so --grid-spec excludes --grid and --n.
//
// plan prints the shard → cell-range map for --shards N workers — per
// cell: global index, algorithm, size source, budget, trials, pinned
// seed stream, and the derived per-cell seed — without executing
// anything; --json emits the same plan as a crp-shard-plan-v1
// document for external schedulers. The plan is exactly what
// `run --shard i/N` will execute: both sit on plan_shards().
//
// run without --shard/--cells executes the whole grid in this process
// and writes the sweep CSV to --out (default: stdout) — the reference
// a sharded run must reproduce. With --shard i/N (or an explicit
// --cells begin:end range) it executes only that slice on the same
// (cell, block) pool, journaling each finished cell durably (append +
// fsync) in cell order as soon as every lower cell is journaled, and
// finishes by writing a self-describing artifact set into --out-dir:
//
//   DIR/shard-<i>-of-<N>.journal        per-cell progress journal
//   DIR/shard-<i>-of-<N>.csv            write_sweep_csv rows (slice only)
//   DIR/shard-<i>-of-<N>.manifest.json  grid hash, master seed, trials,
//                                       cell range, per-cell seeds
//
// All final artifacts are written via atomic temp-file + rename +
// fsync: a crash or disk-full mid-write never leaves a half-written
// file under a final name.
//
// resume picks up a killed or interrupted sharded run: it validates
// the journal against the re-planned shard (grid fingerprint, master
// seed, trials, engines, cell range, per-cell seeds), truncates a
// detectably-torn tail left by a mid-write kill, replays the
// journaled cells verbatim, and executes only the remainder. The
// resumed artifacts are byte-identical to an uninterrupted run.
//
// merge validates the manifests against each other (same grid hash,
// seed, and trials; cell ranges tile the grid with no gaps or
// overlaps; per-row cell seeds match the manifests) and writes the
// concatenated CSV in cell order. With --allow-partial, gaps degrade
// gracefully: the present rows still merge in cell order and a
// machine-readable FILE.partial.json records the missing cell ranges
// (format crp-partial-merge-v1) — the work-list a scheduler feeds
// back as `crp_shard run --cells B:E` invocations.
//
// supervise is the self-healing service layer (harness/supervisor.h,
// docs/OPERATIONS.md): it plans the grid into one range per worker,
// re-execs this binary as `run`/`resume --cells B:E` subprocesses,
// reacts to the exit-code taxonomy below (75 → resume now, 4 → retry
// with deterministic exponential backoff + seeded jitter, 3 →
// bisect/quarantine, crash → resume after backoff), enforces a
// per-worker wall-clock timeout (SIGTERM, then SIGKILL after a grace
// period), and loops partial-merge missing ranges into `--cells`
// backfill jobs until only quarantined cells are absent. It writes
// the merged CSV to --out plus a crp-quarantine-v1 report at
// --out.quarantine.json, and journals its own bisection/quarantine
// decisions in DIR/supervisor.journal so `supervise --resume`
// restarts the fleet idempotently. Without --threads, each worker runs
// ceil(hardware threads / --workers) threads; an explicit --threads
// passes through to every worker unchanged.
//
// Signals: on SIGINT/SIGTERM/SIGHUP a sharded run stops at the next
// journaled cell, abandons the cells still open (resume re-executes
// them with identical bytes), and exits with code 75 — the journal is
// durable, so external schedulers can requeue a `resume` without
// parsing stderr (SIGHUP included, so workers detached from a dying
// terminal stay resumable). supervise reacts to the same signals by
// SIGTERMing its workers and exiting 75 once they stop.
// --stop-after-cells K executes only the first K unjournaled cells and
// stops the same way (bounded work quanta).
//
// Fault injection (test seams, inert by default): the CRP_FAULT_*
// env vars make a *sharded worker* fail deterministically so the
// supervisor's recovery paths can be driven end-to-end. Cell faults
// fire as each executed cell is journaled, in cell order, so they are
// placed relative to the journal prefix at any --threads —
//   CRP_FAULT_CRASH_AFTER_CELLS=N   raise SIGKILL after N freshly
//                                   journaled cells
//   CRP_FAULT_SLEEP_MS_IN_CELL=MS[@CELL]
//                                   sleep MS ms before journaling every
//                                   cell (or only global cell CELL),
//                                   ignoring stop signals meanwhile
//   CRP_FAULT_EXIT4_ON_APPEND=N     injected IoError (exit 4) on the
//                                   Nth journal append of the process
//   CRP_FAULT_POISON_CELLS=I[,J..]  validation error (exit 3) instead
//                                   of journaling a listed cell
//
// Exit codes (stable; asserted by tests/crp_shard_cli_test.py):
//   0   success
//   1   internal error (a bug — not retryable)
//   2   usage error (bad flags)
//   3   validation error (corrupt or mismatched inputs: manifests,
//       journals, CSVs, grid mismatches — retry will not help)
//   4   I/O error (open/write/fsync failures — retry may help)
//   75  resumable interrupt (clean stop mid-grid; journal flushed,
//       `crp_shard resume` continues — the scheduler requeue code)
//
// Grids:
//   table1   the paper's Table 1 upper-bound grid: per entropy point
//            (m = 1, 2, 4, ... ranges of uniform condensed mass over
//            |L(n)| ranges), the Section 2.5 likelihood-ordered no-CD
//            schedule and the Section 2.6 coded-search CD policy, each
//            against that point's lifted distribution. --n scales the
//            network (and with it the number of entropy points).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "channel/kernels/kernels.h"
#include "channel/rng.h"
#include "harness/checkpoint.h"
#include "harness/csv.h"
#include "harness/gridspec.h"
#include "harness/grids.h"
#include "harness/shard.h"
#include "harness/supervisor.h"
#include "harness/sweep.h"

namespace {

// The documented exit-code taxonomy (see the header comment).
constexpr int kExitOk = 0;
constexpr int kExitInternal = 1;
constexpr int kExitUsage = 2;
constexpr int kExitValidation = 3;
constexpr int kExitIo = 4;
constexpr int kExitResumable = 75;  // EX_TEMPFAIL: retryable by design

// Set by the signal handler and polled on pool workers (the journaled
// runner checks it after each cell it journals), so it must be a
// lock-free atomic rather than a volatile sig_atomic_t.
std::atomic<bool> g_interrupted{false};
static_assert(std::atomic<bool>::is_always_lock_free);

extern "C" void handle_stop_signal(int) { g_interrupted = true; }

void install_stop_handlers() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  // SIGHUP too: a worker whose terminal (or supervising session) dies
  // must stop resumably, not take the default terminate-without-flush.
  std::signal(SIGHUP, handle_stop_signal);
}

struct Options {
  std::string mode;
  std::string grid = "table1";
  std::string grid_spec;
  std::size_t n = 1 << 16;
  std::size_t trials = 6000;
  std::uint64_t seed = 20210526;
  std::size_t threads = 0;
  std::string cd_engine = "simulate";
  bool sharded = false;
  bool shard_flag = false;
  bool cells_flag = false;
  bool grid_flag = false;
  bool n_flag = false;
  bool allow_partial = false;
  bool plan_json = false;
  std::size_t plan_shard_count = 1;
  std::size_t stop_after_cells = 0;
  crp::harness::ShardOptions shard;
  std::string out;
  std::string out_dir;
  std::vector<std::string> manifests;
  /// supervise mode only.
  std::string argv0;
  std::size_t workers = 3;
  bool supervise_resume = false;
  crp::harness::RetryPolicyConfig retry;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr
      << "crp_shard: " << message << "\n"
      << "usage: crp_shard run    [--grid table1 | --grid-spec FILE]"
         " [--n N] [--trials T]"
         " [--seed S] [--threads T] [--cd-engine simulate|tree]"
         " [--shard I/N] [--cells B:E] [--out FILE] [--out-dir DIR]"
         " [--stop-after-cells K]\n"
         "       crp_shard resume (same flags as run; sharded only)\n"
         "       crp_shard plan   [--grid table1 | --grid-spec FILE]"
         " [--n N] [--trials T] [--seed S] [--shards N] [--json]\n"
         "       crp_shard merge  --out FILE [--allow-partial]"
         " MANIFEST.json...\n"
         "       crp_shard supervise --out FILE --out-dir DIR"
         " [grid/sweep flags] [--workers N] [--retry-budget K]"
         " [--backoff-ms MS] [--backoff-max-ms MS] [--worker-timeout-ms MS]"
         " [--kill-grace-ms MS] [--resume]\n"
         "exit codes: 0 ok, 2 usage, 3 validation, 4 I/O,"
         " 75 resumable interrupt\n";
  std::exit(kExitUsage);
}

std::size_t parse_size(const std::string& value, const std::string& flag) {
  // Strict digits only: std::stoull would silently wrap "-1" to
  // 2^64 - 1 instead of rejecting it.
  const auto parsed = crp::harness::parse_csv_unsigned(value);
  if (!parsed) {
    usage_error("expected a non-negative integer for " + flag + ", got \"" +
                value + "\"");
  }
  return static_cast<std::size_t>(*parsed);
}

Options parse_args(int argc, char** argv) {
  Options options;
  if (argc < 2) {
    usage_error("missing mode (run, resume, plan, merge, or supervise)");
  }
  options.argv0 = argv[0];
  options.mode = argv[1];
  if (options.mode != "run" && options.mode != "resume" &&
      options.mode != "plan" && options.mode != "merge" &&
      options.mode != "supervise") {
    usage_error("unknown mode \"" + options.mode + "\"");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--grid") {
      options.grid = next();
      options.grid_flag = true;
    } else if (arg == "--grid-spec") {
      options.grid_spec = next();
      if (options.grid_spec.empty()) {
        usage_error("--grid-spec needs a non-empty file path");
      }
    } else if (arg == "--n") {
      options.n = parse_size(next(), arg);
      options.n_flag = true;
    } else if (arg == "--shards") {
      if (options.mode != "plan") {
        usage_error("--shards applies to plan mode only (run/resume "
                    "take --shard I/N)");
      }
      options.plan_shard_count = parse_size(next(), arg);
      if (options.plan_shard_count == 0) {
        usage_error("--shards must be >= 1");
      }
    } else if (arg == "--json") {
      if (options.mode != "plan") {
        usage_error("--json applies to plan mode only");
      }
      options.plan_json = true;
    } else if (arg == "--trials") {
      options.trials = parse_size(next(), arg);
    } else if (arg == "--seed") {
      options.seed = parse_size(next(), arg);
    } else if (arg == "--threads") {
      options.threads = parse_size(next(), arg);
    } else if (arg == "--cd-engine") {
      options.cd_engine = next();
    } else if (arg == "--stop-after-cells") {
      options.stop_after_cells = parse_size(next(), arg);
      if (options.stop_after_cells == 0) {
        usage_error("--stop-after-cells must be >= 1");
      }
    } else if (arg == "--allow-partial") {
      options.allow_partial = true;
    } else if (arg == "--workers" || arg == "--retry-budget" ||
               arg == "--backoff-ms" || arg == "--backoff-max-ms" ||
               arg == "--worker-timeout-ms" || arg == "--kill-grace-ms") {
      if (options.mode != "supervise") {
        usage_error(arg + " applies to supervise mode only");
      }
      const std::size_t value = parse_size(next(), arg);
      if (arg == "--workers") {
        if (value == 0) usage_error("--workers must be >= 1");
        options.workers = value;
      } else if (arg == "--retry-budget") {
        options.retry.retry_budget = value;
      } else if (arg == "--backoff-ms") {
        options.retry.base_backoff_ms = static_cast<std::int64_t>(value);
      } else if (arg == "--backoff-max-ms") {
        options.retry.max_backoff_ms = static_cast<std::int64_t>(value);
      } else if (arg == "--worker-timeout-ms") {
        options.retry.worker_timeout_ms = static_cast<std::int64_t>(value);
      } else {
        options.retry.kill_grace_ms = static_cast<std::int64_t>(value);
      }
    } else if (arg == "--resume") {
      if (options.mode != "supervise") {
        usage_error("--resume applies to supervise mode only (workers "
                    "use the `resume` mode)");
      }
      options.supervise_resume = true;
    } else if (arg == "--shard") {
      const std::string spec = next();
      const auto slash = spec.find('/');
      if (slash == std::string::npos) {
        usage_error("--shard expects I/N, got \"" + spec + "\"");
      }
      options.sharded = true;
      options.shard_flag = true;
      options.shard.shard_index =
          parse_size(spec.substr(0, slash), "--shard index");
      options.shard.shard_count =
          parse_size(spec.substr(slash + 1), "--shard count");
      if (options.shard.shard_count == 0 ||
          options.shard.shard_index >= options.shard.shard_count) {
        usage_error("--shard I/N needs N >= 1 and I < N, got \"" + spec +
                    "\"");
      }
    } else if (arg == "--cells") {
      const std::string spec = next();
      const auto colon = spec.find(':');
      if (colon == std::string::npos) {
        usage_error("--cells expects BEGIN:END, got \"" + spec + "\"");
      }
      options.sharded = true;
      options.cells_flag = true;
      options.shard.cell_begin =
          parse_size(spec.substr(0, colon), "--cells begin");
      options.shard.cell_end =
          parse_size(spec.substr(colon + 1), "--cells end");
      // An end past the grid is only known once the grid is built;
      // plan_shards rejects that one (exit 3).
      if (options.shard.cell_begin > options.shard.cell_end) {
        usage_error("--cells BEGIN:END needs BEGIN <= END, got \"" + spec +
                    "\"");
      }
    } else if (arg == "--out") {
      options.out = next();
    } else if (arg == "--out-dir") {
      options.out_dir = next();
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "see the header comment of tools/crp_shard.cpp\n";
      std::exit(kExitOk);
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unknown argument " + arg);
    } else {
      options.manifests.push_back(arg);
    }
  }
  const bool executes = options.mode == "run" || options.mode == "resume";
  const bool plans = options.mode == "plan";
  const bool supervises = options.mode == "supervise";
  if ((executes || plans || supervises) && !options.manifests.empty()) {
    usage_error(options.mode + " mode takes no positional arguments");
  }
  if (!options.grid_spec.empty() && options.mode == "merge") {
    usage_error("--grid-spec applies to run, resume, plan, and supervise "
                "modes");
  }
  if (supervises && options.sharded) {
    usage_error("supervise plans the shard split itself — use --workers N, "
                "not --shard/--cells");
  }
  if (supervises && options.stop_after_cells != 0) {
    usage_error("--stop-after-cells applies to sharded workers, not "
                "supervise");
  }
  if (supervises && (options.out.empty() || options.out_dir.empty())) {
    usage_error("supervise needs --out FILE (merged CSV) and --out-dir DIR "
                "(worker artifacts + supervisor journal)");
  }
  if (supervises &&
      options.retry.max_backoff_ms < options.retry.base_backoff_ms) {
    usage_error("--backoff-max-ms must be >= --backoff-ms");
  }
  if (!options.grid_spec.empty() && options.grid_flag) {
    usage_error("--grid and --grid-spec are mutually exclusive (the spec "
                "is the grid)");
  }
  if (!options.grid_spec.empty() && options.n_flag) {
    usage_error("--n conflicts with --grid-spec (the spec pins its own "
                "\"n\")");
  }
  if (plans && options.sharded) {
    usage_error("plan mode maps every shard at once — use --shards N, "
                "not --shard/--cells");
  }
  if (plans && (!options.out.empty() || !options.out_dir.empty())) {
    usage_error("plan mode executes nothing and writes no artifacts — "
                "drop --out/--out-dir");
  }
  if (plans && options.stop_after_cells != 0) {
    usage_error("--stop-after-cells applies to sharded runs, not plan");
  }
  if (options.mode == "merge" && options.manifests.empty()) {
    usage_error("merge mode needs at least one manifest path");
  }
  if (options.mode == "merge" && options.out.empty()) {
    usage_error("merge mode needs --out FILE");
  }
  if (options.allow_partial && options.mode != "merge") {
    usage_error("--allow-partial applies to merge mode only");
  }
  if (options.shard_flag && options.cells_flag) {
    // plan_shards would take the explicit-range branch and silently
    // record the unrelated --shard values in the manifest.
    usage_error("--shard and --cells are mutually exclusive");
  }
  if (options.mode == "resume" && !options.sharded) {
    usage_error("resume mode needs --shard I/N or --cells B:E (only "
                "sharded runs are journaled)");
  }
  if (options.stop_after_cells != 0 && !options.sharded) {
    usage_error("--stop-after-cells applies to sharded runs (they "
                "checkpoint; a whole-grid run has no journal to resume)");
  }
  if (options.sharded && !options.out.empty()) {
    usage_error("--out applies to whole-grid runs; sharded runs write "
                "their artifact set into --out-dir");
  }
  if ((executes || plans || supervises) && options.grid_spec.empty() &&
      options.n < 4) {
    usage_error("--n must be >= 4");
  }
  return options;
}

/// A grid plus whatever storage its cells reference — the entropy
/// points of a built-in grid or the parsed spec of a --grid-spec one;
/// keep alive until the sweep is done. The built-in cells come from
/// the shared reference builder (harness/grids.h), so "table1" here is
/// exactly the grid repro/table1.cpp measures.
struct OwnedGrid {
  std::string label;
  std::vector<crp::harness::Table1EntropyPoint> points;
  crp::harness::GridSpec spec;
  std::vector<crp::harness::SweepCell> cells;
};

OwnedGrid build_grid(const Options& options) {
  OwnedGrid owned;
  if (!options.grid_spec.empty()) {
    owned.spec = crp::harness::read_grid_spec_file(options.grid_spec);
    owned.cells = owned.spec.cells;
    owned.label = "spec " + options.grid_spec;
    if (!owned.spec.name.empty()) {
      owned.label += " (\"" + owned.spec.name + "\")";
    }
    return owned;
  }
  if (options.grid != "table1") {
    usage_error("unknown grid \"" + options.grid + "\"");
  }
  owned.points = crp::harness::table1_entropy_points(options.n);
  owned.cells = crp::harness::table1_upper_bound_grid(owned.points).cells();
  owned.label =
      "built-in \"table1\" (n = " + std::to_string(options.n) + ")";
  return owned;
}

/// The shard → cell map for --shards N workers, with nothing executed:
/// everything a scheduler needs to fan out `run --shard i/N` jobs and
/// predict their artifacts. Both output formats carry, per cell, the
/// global index, the pinned seed stream, and the derived per-cell seed
/// (the cell_seed column the shard CSVs will record).
int plan_mode(const Options& options) {
  namespace ch = crp::harness;
  const OwnedGrid grid = build_grid(options);
  const std::span<const ch::SweepCell> cells(grid.cells);
  const std::uint64_t fingerprint = ch::grid_fingerprint(cells);

  std::vector<ch::ShardPlan> plans;
  plans.reserve(options.plan_shard_count);
  for (std::size_t s = 0; s < options.plan_shard_count; ++s) {
    ch::ShardOptions shard;
    shard.shard_index = s;
    shard.shard_count = options.plan_shard_count;
    plans.push_back(ch::plan_shards(cells, shard));
  }

  const auto cell_trials = [&](const ch::SweepCell& cell) {
    return cell.trials != 0 ? cell.trials : options.trials;
  };
  const auto cell_seed = [&](const ch::SweepCell& cell) {
    return ch::hex_u64(
        crp::channel::derive_stream_seed(options.seed, cell.seed_stream));
  };

  std::ostringstream out;
  if (options.plan_json) {
    out << "{\n"
        << "  \"format\": \"crp-shard-plan-v1\",\n"
        << "  \"grid\": \"" << ch::json_escape(grid.label) << "\",\n"
        << "  \"total_cells\": " << grid.cells.size() << ",\n"
        << "  \"grid_hash\": \"" << ch::hex_u64(fingerprint) << "\",\n"
        << "  \"master_seed\": \"" << ch::hex_u64(options.seed) << "\",\n"
        << "  \"default_trials\": " << options.trials << ",\n"
        << "  \"shard_count\": " << options.plan_shard_count << ",\n"
        << "  \"shards\": [";
    for (std::size_t s = 0; s < plans.size(); ++s) {
      const ch::ShardPlan& plan = plans[s];
      out << (s == 0 ? "\n" : ",\n")
          << "    {\n"
          << "      \"shard_index\": " << plan.shard_index << ",\n"
          << "      \"cell_begin\": " << plan.cell_begin << ",\n"
          << "      \"cell_end\": " << plan.cell_end << ",\n"
          << "      \"cells\": [";
      for (std::size_t j = 0; j < plan.cells.size(); ++j) {
        const ch::SweepCell& cell = plan.cells[j];
        out << (j == 0 ? "\n" : ",\n")
            << "        {\n"
            << "          \"cell_index\": " << (plan.cell_begin + j) << ",\n"
            << "          \"algorithm\": \""
            << ch::json_escape(cell.algorithm.name) << "\",\n"
            << "          \"sizes\": \"" << ch::json_escape(cell.sizes.name)
            << "\",\n"
            << "          \"budget\": " << cell.max_rounds << ",\n"
            << "          \"trials\": " << cell_trials(cell) << ",\n"
            << "          \"seed_stream\": \"" << ch::hex_u64(cell.seed_stream)
            << "\",\n"
            << "          \"cell_seed\": \"" << cell_seed(cell) << "\"\n"
            << "        }";
      }
      out << "\n      ]\n    }";
    }
    out << "\n  ]\n}\n";
  } else {
    out << "grid: " << grid.label << "\n"
        << "cells: " << grid.cells.size() << ", fingerprint "
        << ch::hex_u64(fingerprint) << ", master seed "
        << ch::hex_u64(options.seed) << ", default trials " << options.trials << ", shards "
        << options.plan_shard_count << "\n";
    for (const ch::ShardPlan& plan : plans) {
      out << "shard " << plan.shard_index << "/" << plan.shard_count
          << ": cells [" << plan.cell_begin << ", " << plan.cell_end
          << ")\n";
      for (std::size_t j = 0; j < plan.cells.size(); ++j) {
        const ch::SweepCell& cell = plan.cells[j];
        out << "  cell " << (plan.cell_begin + j) << ": algorithm \""
            << cell.algorithm.name << "\", sizes \"" << cell.sizes.name
            << "\", budget " << cell.max_rounds << ", trials "
            << cell_trials(cell) << ", seed_stream "
            << ch::hex_u64(cell.seed_stream) << ", cell_seed "
            << cell_seed(cell) << "\n";
      }
    }
  }
  std::cout << out.str();
  return kExitOk;
}

crp::harness::SweepOptions sweep_options(const Options& options) {
  crp::harness::SweepOptions sweep{.trials = options.trials,
                                   .seed = options.seed,
                                   .threads = options.threads};
  if (options.cd_engine == "tree") {
    sweep.cd_engine = crp::harness::CdEngine::kHistoryTree;
  } else if (options.cd_engine != "simulate") {
    usage_error("unknown --cd-engine \"" + options.cd_engine +
                "\" (simulate|tree)");
  }
  return sweep;
}

// ---------------------------------------------------------------------------
// CRP_FAULT_* fault injection (test seams; inert unless the env vars
// are set — see the header comment for the catalogue)

struct FaultPlan {
  std::size_t crash_after_cells = 0;  // 0 = off
  std::int64_t sleep_ms = 0;          // 0 = off
  bool sleep_every_cell = false;
  std::size_t sleep_cell = 0;
  std::size_t exit4_on_append = 0;  // 0 = off; 1-based append index
  std::vector<std::size_t> poison_cells;

  bool active() const {
    return crash_after_cells != 0 || sleep_ms != 0 || exit4_on_append != 0 ||
           !poison_cells.empty();
  }
};

std::size_t parse_fault_uint(const char* name, const std::string& value) {
  const auto parsed = crp::harness::parse_csv_unsigned(value);
  if (!parsed) {
    usage_error(std::string(name) + " expects a non-negative integer, got \"" +
                value + "\"");
  }
  return static_cast<std::size_t>(*parsed);
}

FaultPlan parse_fault_env() {
  FaultPlan plan;
  if (const char* raw = std::getenv("CRP_FAULT_CRASH_AFTER_CELLS")) {
    plan.crash_after_cells = parse_fault_uint("CRP_FAULT_CRASH_AFTER_CELLS",
                                              raw);
    if (plan.crash_after_cells == 0) {
      usage_error("CRP_FAULT_CRASH_AFTER_CELLS must be >= 1");
    }
  }
  if (const char* raw = std::getenv("CRP_FAULT_SLEEP_MS_IN_CELL")) {
    const std::string value(raw);
    const auto at = value.find('@');
    plan.sleep_ms = static_cast<std::int64_t>(parse_fault_uint(
        "CRP_FAULT_SLEEP_MS_IN_CELL", value.substr(0, at)));
    if (at == std::string::npos) {
      plan.sleep_every_cell = true;
    } else {
      plan.sleep_cell = parse_fault_uint("CRP_FAULT_SLEEP_MS_IN_CELL cell",
                                         value.substr(at + 1));
    }
  }
  if (const char* raw = std::getenv("CRP_FAULT_EXIT4_ON_APPEND")) {
    plan.exit4_on_append = parse_fault_uint("CRP_FAULT_EXIT4_ON_APPEND", raw);
    if (plan.exit4_on_append == 0) {
      usage_error("CRP_FAULT_EXIT4_ON_APPEND must be >= 1");
    }
  }
  if (const char* raw = std::getenv("CRP_FAULT_POISON_CELLS")) {
    std::string value(raw);
    std::size_t start = 0;
    while (start <= value.size()) {
      const auto comma = value.find(',', start);
      const std::string field =
          value.substr(start, comma == std::string::npos ? std::string::npos
                                                         : comma - start);
      plan.poison_cells.push_back(
          parse_fault_uint("CRP_FAULT_POISON_CELLS", field));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  return plan;
}

/// Append sink that throws an injected IoError on the Nth append of
/// this process — the worker exits 4 with the cell unjournaled,
/// exactly like a disk that filled mid-record.
class FaultyAppendSink final : public crp::harness::CheckpointSink {
 public:
  FaultyAppendSink(std::unique_ptr<crp::harness::CheckpointSink> inner,
                   std::size_t fail_on)
      : inner_(std::move(inner)), fail_on_(fail_on) {}
  void append(std::string_view bytes) override {
    if (++appends_ == fail_on_) {
      throw crp::harness::IoError(
          "CRP_FAULT_EXIT4_ON_APPEND: injected I/O failure on append " +
          std::to_string(appends_));
    }
    inner_->append(bytes);
  }
  void sync() override { inner_->sync(); }

 private:
  std::unique_ptr<crp::harness::CheckpointSink> inner_;
  std::size_t fail_on_;
  std::size_t appends_ = 0;
};

/// Arms the parsed fault plan on a worker's checkpoint options. The
/// executed-cell counter lives in shared state captured by the hooks,
/// which the runner calls one at a time, so it needs no lock.
void arm_faults(const FaultPlan& faults,
                crp::harness::CheckpointRunOptions& checkpoint) {
  if (!faults.active()) return;
  checkpoint.on_cell_start = [faults](std::size_t cell) {
    for (const std::size_t poison : faults.poison_cells) {
      if (poison == cell) {
        throw std::invalid_argument(
            "CRP_FAULT_POISON_CELLS: cell " + std::to_string(cell) +
            " is poisoned");
      }
    }
    if (faults.sleep_ms > 0 &&
        (faults.sleep_every_cell || faults.sleep_cell == cell)) {
      // Deliberately deaf to stop signals: the worker must stay hung
      // through SIGTERM so the supervisor's SIGKILL escalation has
      // something real to escalate against.
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(faults.sleep_ms);
      while (std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  if (faults.crash_after_cells != 0) {
    auto executed = std::make_shared<std::size_t>(0);
    const std::size_t limit = faults.crash_after_cells;
    checkpoint.on_cell_executed = [executed, limit](std::size_t) {
      if (++*executed >= limit) {
        std::raise(SIGKILL);  // a real hard crash: nothing else flushes
      }
    };
  }
  if (faults.exit4_on_append != 0) {
    const std::size_t fail_on = faults.exit4_on_append;
    checkpoint.sink_factory = [fail_on](const std::string& path) {
      return std::make_unique<FaultyAppendSink>(
          crp::harness::open_file_checkpoint_sink(path), fail_on);
    };
  }
}

int run_mode(const Options& options) {
  const OwnedGrid grid = build_grid(options);
  const auto sweep = sweep_options(options);

  // Provenance on stderr (stdout may carry CSV): which ISA tier the
  // batch kernels dispatched to. Tiers are bit-identical, so shards
  // from heterogeneous hosts still merge byte-for-byte — this line
  // lets a fleet audit that claim per artifact.
  std::cerr << "crp_shard: kernel tier " << crp::channel::kernel_tier_name()
            << "\n";

  if (!options.sharded) {
    // The monolithic reference: the whole grid in one process.
    const auto results = crp::harness::run_sweep(
        std::span<const crp::harness::SweepCell>(grid.cells), sweep);
    std::ostringstream csv;
    crp::harness::write_sweep_csv(csv, results);
    if (options.out.empty()) {
      std::cout << csv.str();
    } else {
      crp::harness::atomic_write_file(options.out, csv.str());
      std::cerr << "wrote " << results.size() << " cells to " << options.out
                << "\n";
    }
    return kExitOk;
  }

  if (options.out_dir.empty()) {
    usage_error("sharded runs need --out-dir DIR for the artifact set");
  }
  // Explicit --cells runs all share shard_index 0 of 1, so their
  // artifacts are named by the cell range instead — successive
  // hand-balanced slices into one directory must not overwrite each
  // other.
  const bool explicit_range =
      options.shard.cell_begin != crp::harness::ShardOptions::kAutoRange;
  const std::string stem =
      explicit_range
          ? "shard-cells-" + std::to_string(options.shard.cell_begin) + "-" +
                std::to_string(options.shard.cell_end)
          : "shard-" + std::to_string(options.shard.shard_index) + "-of-" +
                std::to_string(options.shard.shard_count);
  const std::filesystem::path dir(options.out_dir);

  crp::harness::CheckpointRunOptions checkpoint;
  checkpoint.journal_path = (dir / (stem + ".journal")).string();
  checkpoint.resume = options.mode == "resume";
  checkpoint.interrupted = [] { return g_interrupted.load(); };
  checkpoint.max_cells = options.stop_after_cells;
  arm_faults(parse_fault_env(), checkpoint);
  install_stop_handlers();

  const auto run = crp::harness::run_sweep_shard_checkpointed(
      std::span<const crp::harness::SweepCell>(grid.cells), options.shard,
      sweep, checkpoint);

  if (run.status == crp::harness::CheckpointRunStatus::kInterrupted) {
    std::cerr << "crp_shard: stopped cleanly after cell "
              << (run.replayed_cells + run.executed_cells) << "/"
              << (run.manifest.cell_end - run.manifest.cell_begin)
              << " of shard range [" << run.manifest.cell_begin << ", "
              << run.manifest.cell_end << "); journal "
              << checkpoint.journal_path
              << " is durable — continue with `crp_shard resume` and the "
                 "same flags\n";
    return kExitResumable;
  }

  crp::harness::atomic_write_file((dir / (stem + ".csv")).string(), run.csv);

  crp::harness::ShardManifest manifest = run.manifest;
  manifest.csv = stem + ".csv";
  std::ostringstream manifest_json;
  crp::harness::write_shard_manifest(manifest_json, manifest);
  crp::harness::atomic_write_file((dir / (stem + ".manifest.json")).string(),
                                  manifest_json.str());

  std::cerr << "shard " << run.manifest.shard_index << "/"
            << run.manifest.shard_count << ": cells ["
            << run.manifest.cell_begin << ", " << run.manifest.cell_end
            << ") of " << run.manifest.total_cells << " ("
            << run.replayed_cells << " replayed from journal, "
            << run.executed_cells << " executed) -> "
            << (dir / (stem + ".csv")).string() << "\n";
  return kExitOk;
}

int merge_mode(const Options& options) {
  namespace ch = crp::harness;
  std::vector<ch::ShardArtifact> shards;
  shards.reserve(options.manifests.size());
  for (const std::string& manifest_path : options.manifests) {
    shards.push_back(ch::read_shard_artifact_file(manifest_path));
  }
  std::ostringstream merged;
  if (!options.allow_partial) {
    ch::merge_shard_csvs(merged,
                         std::span<const ch::ShardArtifact>(shards));
    ch::atomic_write_file(options.out, merged.str());
    std::cerr << "merged " << shards.size() << " shard(s) into "
              << options.out << "\n";
    return kExitOk;
  }
  const ch::PartialMergeReport report = ch::merge_shard_csvs_partial(
      merged, std::span<const ch::ShardArtifact>(shards));
  ch::atomic_write_file(options.out, merged.str());
  std::ostringstream report_json;
  ch::write_partial_merge_report(report_json, report);
  const std::string report_path = options.out + ".partial.json";
  ch::atomic_write_file(report_path, report_json.str());
  std::cerr << "merged " << shards.size() << " shard(s) into " << options.out
            << ": " << report.present_cells << "/" << report.total_cells
            << " cells present";
  if (!report.missing.empty()) {
    std::cerr << ", missing";
    for (const auto& range : report.missing) {
      std::cerr << " [" << range.begin << ", " << range.end << ")";
    }
  }
  std::cerr << " (see " << report_path << ")\n";
  return kExitOk;
}

int supervise_mode(const Options& options) {
  namespace ch = crp::harness;
  const OwnedGrid grid = build_grid(options);
  const auto sweep = sweep_options(options);

  ch::SuperviseOptions supervise;
  // Workers are re-execs of this binary. argv[0] without a slash
  // came from PATH lookup, which execv does not repeat — the
  // kernel's own record of the running image is the reliable name.
  supervise.exe = options.argv0.find('/') == std::string::npos
                      ? "/proc/self/exe"
                      : options.argv0;
  if (!options.grid_spec.empty()) {
    supervise.worker_flags = {"--grid-spec", options.grid_spec};
  } else {
    supervise.worker_flags = {"--grid", options.grid, "--n",
                              std::to_string(options.n)};
  }
  supervise.worker_flags.insert(
      supervise.worker_flags.end(),
      {"--trials", std::to_string(options.trials), "--seed",
       std::to_string(options.seed), "--cd-engine", options.cd_engine});
  // Workers share the machine: without --threads each gets an even
  // slice of the hardware threads, not a pool as wide as the machine.
  supervise.worker_flags.insert(
      supervise.worker_flags.end(),
      {"--threads",
       std::to_string(ch::worker_threads(
           options.threads, std::thread::hardware_concurrency(),
           options.workers))});
  supervise.out = options.out;
  supervise.out_dir = options.out_dir;
  supervise.workers = options.workers;
  supervise.resume = options.supervise_resume;
  supervise.retry = options.retry;
  // Jitter is seeded off the master seed (through the same stream
  // derivation as cell seeds) so the whole supervised run — artifacts
  // *and* schedule — is a function of the CLI arguments.
  supervise.retry.jitter_seed =
      crp::channel::derive_stream_seed(options.seed, 0x6a177e72u);
  supervise.stop_requested = [] { return g_interrupted.load(); };
  supervise.log = &std::cerr;
  install_stop_handlers();

  const ch::SuperviseResult result = ch::run_supervisor(
      std::span<const ch::SweepCell>(grid.cells), sweep, supervise);
  if (result.status == ch::SuperviseStatus::kInterrupted) {
    std::cerr << "crp_shard: supervision stopped cleanly after "
              << result.workers_spawned
              << " worker launch(es); continue with `crp_shard supervise "
                 "--resume` and the same flags\n";
    return kExitResumable;
  }
  std::cerr << "crp_shard: supervised sweep converged: "
            << (result.total_cells - result.quarantined.size()) << "/"
            << result.total_cells << " cells in " << options.out << ", "
            << result.quarantined.size() << " quarantined ("
            << result.workers_spawned << " worker launches, "
            << result.backfill_rounds << " backfill round(s))\n";
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  // The env surface is as strict as the flag surface: a typo'd
  // CRP_KERNEL_TIER must fail loudly (exit 2) before any work runs,
  // not silently dispatch whatever tier cpuid picked — tier provenance
  // is part of every artifact's audit trail.
  if (const char* env = std::getenv("CRP_KERNEL_TIER")) {
    try {
      crp::channel::kernels::parse_tier(env);
    } catch (const std::invalid_argument& error) {
      usage_error(std::string("CRP_KERNEL_TIER: ") + error.what());
    }
  }
  const Options options = parse_args(argc, argv);
  try {
    if (options.mode == "merge") return merge_mode(options);
    if (options.mode == "plan") return plan_mode(options);
    if (options.mode == "supervise") return supervise_mode(options);
    return run_mode(options);
  } catch (const crp::harness::IoError& error) {
    std::cerr << "crp_shard: I/O error: " << error.what() << "\n";
    return kExitIo;
  } catch (const std::filesystem::filesystem_error& error) {
    std::cerr << "crp_shard: I/O error: " << error.what() << "\n";
    return kExitIo;
  } catch (const std::invalid_argument& error) {
    std::cerr << "crp_shard: validation error: " << error.what() << "\n";
    return kExitValidation;
  } catch (const std::exception& error) {
    std::cerr << "crp_shard: internal error: " << error.what() << "\n";
    return kExitInternal;
  }
}
