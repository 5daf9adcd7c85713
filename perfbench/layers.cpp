// perfbench_layers: the traced and the reference legs of the end-to-end
// benchmark (perfbench/run.py drives both; perfbench/README.md has the
// metric catalogue).
//
//   perfbench_layers trace GRID --trials T --seed S --cd-engine E
//                    --csv OUT.csv --spans SPANS.jsonl
//                    [--workers W --checkpoint-dir DIR]
//                    [--supervise-exe CRP_SHARD --supervise-dir DIR]
//   perfbench_layers reference GRID --trials T --seed S --cd-engine E
//
// GRID is `--grid table1 --n N` or `--grid-spec FILE`, as for crp_shard.
//
// trace replays one crp_shard invocation through the library's public
// functions, with a span around every call into a layer: grid build or
// spec parse, fingerprint, shard plan, one span per cell, one per
// Engine::run_many block (through an Engine decorator handed to
// measure_blocks), the cold batch-table builds and history-tree
// expansions, and CSV serialization. The cell scheduling mirrors
// run_sweep (whole cells across the pool when the grid is at least as
// wide as the pool, else cells in order with the pool inside each), so
// the rows it writes must equal crp_shard's byte for byte; run.py checks
// that. With --checkpoint-dir the grid is also run as W journaled
// shards (CheckpointSink decorator, cell hooks, atomic artifact writes)
// and merged; with --supervise-exe the fleet runs once under
// run_supervisor. Spans are kept in memory and written to SPANS.jsonl
// when the run ends; the per-layer metrics go to stdout as one JSON
// object.
//
// reference prints, per cell, the (mean, success_rate) the output
// check compares each CSV row against: exact (harness/exact.h) for the
// no-CD cells, whose supports are small; for CD cells a Monte-Carlo run
// of the CD engine the workload does not use, with its standard errors.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "channel/engine.h"
#include "channel/history_engine.h"
#include "channel/kernels/kernels.h"
#include "channel/rng.h"
#include "harness/checkpoint.h"
#include "harness/exact.h"
#include "harness/gridspec.h"
#include "harness/grids.h"
#include "harness/parallel.h"
#include "harness/shard.h"
#include "harness/supervisor.h"
#include "harness/sweep.h"

namespace {

namespace ch = crp::harness;
namespace cc = crp::channel;
using SteadyClock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Spans

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = no parent (the run's root)
  std::string name;
  SteadyClock::time_point start;
  SteadyClock::time_point end;
  std::uint64_t work = 0;  ///< trials, bytes, or cells, per span kind

  double seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

/// In-memory span store shared by every thread of one traced run.
class Tracer {
 public:
  std::int64_t reserve() { return next_id_.fetch_add(1); }

  void record(Span span) {
    const std::lock_guard lock(mutex_);
    spans_.push_back(std::move(span));
  }

  /// The recorded spans; call only once every traced call has returned.
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::atomic<std::int64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Records one span from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::int64_t parent)
      : tracer_(tracer) {
    span_.id = tracer.reserve();
    span_.parent = parent;
    span_.name = std::move(name);
    span_.start = SteadyClock::now();
  }
  ~ScopedSpan() {
    span_.end = SteadyClock::now();
    tracer_.record(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

  std::int64_t id() const { return span_.id; }
  void set_work(std::uint64_t work) { span_.work = work; }

 private:
  Tracer& tracer_;
  Span span_;
};

/// Engine decorator: one span per run_many block.
class TracedEngine final : public cc::Engine {
 public:
  TracedEngine(const cc::Engine& inner, Tracer& tracer, std::string name,
               std::int64_t parent)
      : inner_(inner), tracer_(tracer), name_(std::move(name)),
        parent_(parent) {}

  void run_many(cc::TrialBlock& block) const override {
    ScopedSpan span(tracer_, name_, parent_);
    span.set_work(block.size());
    inner_.run_many(block);
  }

 private:
  const cc::Engine& inner_;
  Tracer& tracer_;
  std::string name_;
  std::int64_t parent_;
};

/// The span the journaled runner is inside: opened by on_cell_start,
/// closed by on_cell_executed (after the cell's record is durable).
struct CheckpointCellState {
  std::int64_t shard_span = 0;
  std::int64_t cell_id = 0;
  SteadyClock::time_point cell_start;
};

/// CheckpointSink decorator: one span per append and per fsync.
class TracedSink final : public ch::CheckpointSink {
 public:
  TracedSink(std::unique_ptr<ch::CheckpointSink> inner, Tracer& tracer,
             const CheckpointCellState& cell)
      : inner_(std::move(inner)), tracer_(tracer), cell_(cell) {}

  void append(std::string_view bytes) override {
    ScopedSpan span(tracer_, "checkpoint.append", parent());
    span.set_work(bytes.size());
    inner_->append(bytes);
  }
  void sync() override {
    const ScopedSpan span(tracer_, "checkpoint.sync", parent());
    inner_->sync();
  }

 private:
  std::int64_t parent() const {
    return cell_.cell_id != 0 ? cell_.cell_id : cell_.shard_span;
  }

  std::unique_ptr<ch::CheckpointSink> inner_;
  Tracer& tracer_;
  const CheckpointCellState& cell_;
};

// ---------------------------------------------------------------------------
// Span statistics

double total_seconds(const std::vector<Span>& spans, const std::string& name,
                     std::uint64_t* work = nullptr) {
  double total = 0.0;
  for (const Span& span : spans) {
    if (span.name != name) continue;
    total += span.seconds();
    if (work != nullptr) *work += span.work;
  }
  return total;
}

std::vector<double> durations(const std::vector<Span>& spans,
                              const std::string& prefix) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (span.name.compare(0, prefix.size(), prefix) == 0) {
      out.push_back(span.seconds());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Nearest-rank percentile of sorted values; 0 when empty.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Seconds of [start, end) covered by the children of `parent`.
double covered_by_children(const std::vector<Span>& spans,
                           const Span& parent) {
  std::vector<std::pair<SteadyClock::time_point, SteadyClock::time_point>>
      intervals;
  for (const Span& span : spans) {
    if (span.parent != parent.id) continue;
    intervals.emplace_back(std::max(span.start, parent.start),
                           std::min(span.end, parent.end));
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  SteadyClock::time_point reach = parent.start;
  for (const auto& [begin, end] : intervals) {
    const auto from = std::max(begin, reach);
    if (end > from) {
      covered += std::chrono::duration<double>(end - from).count();
      reach = end;
    }
  }
  return covered;
}

// ---------------------------------------------------------------------------
// Command line

struct Args {
  std::string mode;
  std::string grid = "table1";
  std::string grid_spec;
  std::size_t n = 1 << 16;
  std::size_t trials = 6000;
  std::uint64_t seed = 1;
  std::string cd_engine = "simulate";
  std::string csv;
  std::string spans;
  std::size_t workers = 1;
  std::string checkpoint_dir;
  std::string supervise_exe;
  std::string supervise_dir;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench_layers: " << message
            << "\nusage: perfbench_layers trace|reference (--grid table1 "
               "--n N | --grid-spec FILE) --trials T --seed S --cd-engine "
               "simulate|tree [--csv F --spans F] [--workers W "
               "--checkpoint-dir D] [--supervise-exe X --supervise-dir D]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& text, const std::string& flag) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    usage("expected digits for " + flag + ", got \"" + text + "\"");
  }
  return std::stoull(text);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Args args;
  args.mode = argv[1];
  if (args.mode != "trace" && args.mode != "reference") {
    usage("unknown mode \"" + args.mode + "\"");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--grid") {
      args.grid = value;
    } else if (flag == "--grid-spec") {
      args.grid_spec = value;
    } else if (flag == "--n") {
      args.n = parse_u64(value, flag);
    } else if (flag == "--trials") {
      args.trials = parse_u64(value, flag);
    } else if (flag == "--seed") {
      args.seed = parse_u64(value, flag);
    } else if (flag == "--cd-engine") {
      args.cd_engine = value;
    } else if (flag == "--csv") {
      args.csv = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--workers") {
      args.workers = std::max<std::uint64_t>(1, parse_u64(value, flag));
    } else if (flag == "--checkpoint-dir") {
      args.checkpoint_dir = value;
    } else if (flag == "--supervise-exe") {
      args.supervise_exe = value;
    } else if (flag == "--supervise-dir") {
      args.supervise_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.grid != "table1") usage("unknown grid \"" + args.grid + "\"");
  if (args.cd_engine != "simulate" && args.cd_engine != "tree") {
    usage("unknown --cd-engine \"" + args.cd_engine + "\"");
  }
  if (args.mode == "trace" && (args.csv.empty() || args.spans.empty())) {
    usage("trace needs --csv and --spans");
  }
  return args;
}

/// The grid plus the storage its cells borrow (crp_shard's OwnedGrid).
struct OwnedGrid {
  std::vector<ch::Table1EntropyPoint> points;
  ch::GridSpec spec;
  std::vector<ch::SweepCell> cells;
};

OwnedGrid build_grid(const Args& args, Tracer* tracer, std::int64_t parent) {
  OwnedGrid owned;
  if (!args.grid_spec.empty()) {
    std::optional<ScopedSpan> span;
    if (tracer != nullptr) span.emplace(*tracer, "gridspec.parse", parent);
    owned.spec = ch::read_grid_spec_file(args.grid_spec);
    owned.cells = owned.spec.cells;
    return owned;
  }
  std::optional<ScopedSpan> span;
  if (tracer != nullptr) span.emplace(*tracer, "grids.build", parent);
  owned.points = ch::table1_entropy_points(args.n);
  owned.cells = ch::table1_upper_bound_grid(owned.points).cells();
  return owned;
}

ch::SweepOptions sweep_options(const Args& args) {
  ch::SweepOptions sweep{.trials = args.trials, .seed = args.seed};
  if (args.cd_engine == "tree") sweep.cd_engine = ch::CdEngine::kHistoryTree;
  return sweep;
}

std::vector<std::size_t> distinct_sizes(const ch::SweepCell& cell) {
  if (cell.sizes.distribution == nullptr) return {cell.sizes.fixed_k};
  const auto sizes = cell.sizes.distribution->support_sizes();
  return {sizes.begin(), sizes.end()};
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

// ---------------------------------------------------------------------------
// trace

/// Layer counts the spans alone cannot carry.
struct LayerCounts {
  std::mutex mutex;
  std::set<std::tuple<const cc::CollisionPolicy*, std::size_t, std::size_t>>
      tree_keys;
  std::uint64_t batch_tables = 0;
  std::uint64_t tree_nodes = 0;
  std::uint64_t keys_inverse_cdf = 0;
  std::uint64_t keys_walk = 0;
  std::uint64_t keys_simulate = 0;
};

/// One cell, as run_sweep's run_cell measures it, with its layers
/// traced: the cold table builds or tree expansions first, then the
/// blocks through the decorated engine.
ch::Measurement traced_cell(const ch::SweepCell& cell, std::size_t trials,
                            std::uint64_t cell_seed, std::size_t threads,
                            const ch::SweepOptions& sweep,
                            const cc::HistoryTreeCache* tree_cache,
                            Tracer& tracer, std::int64_t cell_span,
                            LayerCounts& counts) {
  const ch::MeasureOptions options{.max_rounds = cell.max_rounds,
                                   .threads = threads,
                                   .engine = sweep.engine,
                                   .cd_engine = sweep.cd_engine,
                                   .tree_cache = tree_cache};
  const cc::SizeSource sizes{cell.sizes.distribution, cell.sizes.fixed_k};
  const std::vector<std::size_t> ks = distinct_sizes(cell);
  if (cell.algorithm.schedule != nullptr) {
    const cc::BatchColumnarEngine engine(*cell.algorithm.schedule);
    {
      // A fresh engine per cell, as measure_uniform_no_cd builds one:
      // every table is cold. -inf asks for the whole budget, the most
      // any trial of an aperiodic schedule can need.
      const ScopedSpan span(tracer, "batch.table_build", cell_span);
      for (const std::size_t k : ks) {
        engine.sampler().snapshot(
            k, -std::numeric_limits<double>::infinity(), cell.max_rounds);
      }
    }
    {
      const std::lock_guard lock(counts.mutex);
      counts.batch_tables += ks.size();
    }
    const TracedEngine traced(engine, tracer, "engine.batch", cell_span);
    return ch::measure_blocks(traced, sizes, trials, cell_seed, options);
  }
  if (cell.algorithm.policy == nullptr) {
    throw std::invalid_argument("sweep cell '" + cell.algorithm.name +
                                "' names neither a schedule nor a policy");
  }
  const cc::CollisionPolicy& policy = *cell.algorithm.policy;
  if (tree_cache != nullptr) {
    const auto engine = tree_cache->engine_for(policy);
    const std::size_t horizon =
        std::min(cc::HistoryTreeEngine::Options().depth_cap, cell.max_rounds);
    for (const std::size_t k : ks) {
      {
        const std::lock_guard lock(counts.mutex);
        if (!counts.tree_keys.emplace(&policy, k, horizon).second) continue;
      }
      ScopedSpan span(tracer, "history_engine.expand", cell_span);
      const auto [tree, mode] = engine->tree_for(k, cell.max_rounds);
      span.set_work(tree->nodes.size());
      const std::lock_guard lock(counts.mutex);
      counts.tree_nodes += tree->nodes.size();
      switch (mode) {
        case cc::HistoryTreeEngine::Mode::kInverseCdf:
          ++counts.keys_inverse_cdf;
          break;
        case cc::HistoryTreeEngine::Mode::kWalk:
          ++counts.keys_walk;
          break;
        case cc::HistoryTreeEngine::Mode::kSimulate:
          ++counts.keys_simulate;
          break;
      }
    }
    const TracedEngine traced(*engine, tracer, "engine.tree", cell_span);
    return ch::measure_blocks(traced, sizes, trials, cell_seed, options);
  }
  const cc::CollisionPolicyColumnarEngine engine(policy);
  const TracedEngine traced(engine, tracer, "engine.cd_sim", cell_span);
  return ch::measure_blocks(traced, sizes, trials, cell_seed, options);
}

/// run_sweep with every cell traced, scheduled the way run_sweep
/// schedules it.
std::vector<ch::SweepResult> traced_sweep(std::span<const ch::SweepCell> cells,
                                          const ch::SweepOptions& options,
                                          Tracer& tracer,
                                          std::int64_t sweep_span,
                                          LayerCounts& counts) {
  std::vector<ch::SweepResult> results(cells.size());
  const std::size_t workers =
      options.threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : options.threads;
  const bool cells_in_parallel = cells.size() >= workers;
  const std::size_t inner_threads = cells_in_parallel ? 1 : options.threads;
  const cc::HistoryTreeCache tree_cache;
  const cc::HistoryTreeCache* shared_trees =
      options.cd_engine == ch::CdEngine::kHistoryTree ? &tree_cache : nullptr;
  const auto execute = [&](std::size_t i) {
    const ch::SweepCell& cell = cells[i];
    ScopedSpan span(tracer, "sweep.cell", sweep_span);
    const std::uint64_t stream =
        cell.seed_stream == ch::kSeedStreamFromIndex ? i : cell.seed_stream;
    const std::uint64_t cell_seed =
        cc::derive_stream_seed(options.seed, stream);
    const std::size_t trials = cell.trials != 0 ? cell.trials : options.trials;
    span.set_work(trials);
    results[i] = ch::SweepResult{
        .cell = cell,
        .cell_index = i,
        .cell_seed = cell_seed,
        .measurement = traced_cell(cell, trials, cell_seed, inner_threads,
                                   options, shared_trees, tracer, span.id(),
                                   counts)};
  };
  if (cells_in_parallel) {
    ch::parallel_blocks(
        cells.size(), options.threads,
        [&execute](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) execute(i);
        },
        /*block_size=*/1);
  } else {
    for (std::size_t i = 0; i < cells.size(); ++i) execute(i);
  }
  return results;
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.close();
  if (!out) throw ch::IoError("cannot write " + path);
}

/// Prints `"name": value` pairs as one JSON object.
class JsonObject {
 public:
  void add(const std::string& name, double value) {
    out_ << (first_ ? "" : ", ") << '"' << name << "\": "
         << std::setprecision(12) << value;
    first_ = false;
  }
  void add(const std::string& name, const std::string& value) {
    out_ << (first_ ? "" : ", ") << '"' << name << "\": \""
         << ch::json_escape(value) << '"';
    first_ = false;
  }
  std::string str() const { return "{" + out_.str() + "}"; }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

int trace_mode(const Args& args) {
  Tracer tracer;
  LayerCounts counts;
  JsonObject metrics;
  const ch::SweepOptions sweep = sweep_options(args);
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  std::string csv;
  std::vector<ch::ShardPlan> plans;
  double sweep_wall = 0.0;
  double sweep_cpu = 0.0;
  double replay_wall = 0.0;
  double supervise_wall = 0.0;
  std::int64_t root_id = 0;
  {
    ScopedSpan root(tracer, "trace.run", 0);
    root_id = root.id();
    const auto replay_start = SteadyClock::now();
    const OwnedGrid grid = build_grid(args, &tracer, root.id());
    const std::span<const ch::SweepCell> cells(grid.cells);
    {
      const ScopedSpan span(tracer, "shard.fingerprint", root.id());
      ch::grid_fingerprint(cells);
    }
    {
      const ScopedSpan span(tracer, "shard.plan", root.id());
      for (std::size_t s = 0; s < args.workers; ++s) {
        plans.push_back(ch::plan_shards(
            cells, ch::ShardOptions{.shard_count = args.workers,
                                    .shard_index = s}));
      }
    }
    std::vector<ch::SweepResult> results;
    {
      ScopedSpan span(tracer, "sweep.run", root.id());
      span.set_work(cells.size());
      const double cpu_before = process_cpu_seconds();
      const auto start = SteadyClock::now();
      results = traced_sweep(cells, sweep, tracer, span.id(), counts);
      sweep_wall =
          std::chrono::duration<double>(SteadyClock::now() - start).count();
      sweep_cpu = process_cpu_seconds() - cpu_before;
    }
    {
      const ScopedSpan span(tracer, "sweep.csv", root.id());
      std::ostringstream out;
      ch::write_sweep_csv(out, results);
      csv = out.str();
    }
    replay_wall = std::chrono::duration<double>(SteadyClock::now() -
                                                replay_start)
                      .count();
    write_file(args.csv, csv);

    if (!args.checkpoint_dir.empty()) {
      std::vector<double> range_walls;
      std::vector<std::string> manifests;
      const std::filesystem::path dir(args.checkpoint_dir);
      for (std::size_t s = 0; s < args.workers; ++s) {
        ScopedSpan shard_span(tracer, "checkpoint.shard", root.id());
        const auto start = SteadyClock::now();
        const std::string stem = "shard-" + std::to_string(s) + "-of-" +
                                 std::to_string(args.workers);
        CheckpointCellState cell_state;
        cell_state.shard_span = shard_span.id();
        ch::CheckpointRunOptions checkpoint;
        checkpoint.journal_path = (dir / (stem + ".journal")).string();
        checkpoint.sink_factory = [&tracer,
                                   &cell_state](const std::string& path) {
          return std::make_unique<TracedSink>(
              ch::open_file_checkpoint_sink(path), tracer, cell_state);
        };
        checkpoint.on_cell_start = [&tracer, &cell_state](std::size_t) {
          cell_state.cell_id = tracer.reserve();
          cell_state.cell_start = SteadyClock::now();
        };
        checkpoint.on_cell_executed = [&tracer, &cell_state](std::size_t) {
          tracer.record(Span{.id = cell_state.cell_id,
                             .parent = cell_state.shard_span,
                             .name = "checkpoint.cell",
                             .start = cell_state.cell_start,
                             .end = SteadyClock::now(),
                             .work = 1});
          cell_state.cell_id = 0;
        };
        const auto run = ch::run_sweep_shard_checkpointed(
            cells,
            ch::ShardOptions{.shard_count = args.workers, .shard_index = s},
            sweep, checkpoint);
        {
          ScopedSpan span(tracer, "checkpoint.atomic_write", shard_span.id());
          ch::ShardManifest manifest = run.manifest;
          manifest.csv = stem + ".csv";
          std::ostringstream manifest_json;
          ch::write_shard_manifest(manifest_json, manifest);
          ch::atomic_write_file((dir / manifest.csv).string(), run.csv);
          const std::string manifest_path =
              (dir / (stem + ".manifest.json")).string();
          ch::atomic_write_file(manifest_path, manifest_json.str());
          span.set_work(run.csv.size() + manifest_json.str().size());
          manifests.push_back(manifest_path);
        }
        range_walls.push_back(
            std::chrono::duration<double>(SteadyClock::now() - start)
                .count());
      }
      std::string merged;
      {
        const ScopedSpan span(tracer, "shard.merge", root.id());
        std::vector<ch::ShardArtifact> shards;
        for (const std::string& path : manifests) {
          shards.push_back(ch::read_shard_artifact_file(path));
        }
        std::ostringstream out;
        ch::merge_shard_csvs(out, std::span<const ch::ShardArtifact>(shards));
        merged = out.str();
      }
      write_file((dir / "merged.csv").string(), merged);
      std::uintmax_t journal_bytes = 0;
      for (std::size_t s = 0; s < args.workers; ++s) {
        journal_bytes += std::filesystem::file_size(
            dir / ("shard-" + std::to_string(s) + "-of-" +
                   std::to_string(args.workers) + ".journal"));
      }
      double mean = 0.0;
      for (const double wall : range_walls) mean += wall;
      mean /= static_cast<double>(range_walls.size());
      metrics.add("shard.range_imbalance",
                  *std::max_element(range_walls.begin(), range_walls.end()) /
                      mean);
      metrics.add("checkpoint.journal_bytes",
                  static_cast<double>(journal_bytes));
      metrics.add("checkpoint.merged_equals_monolithic",
                  merged == csv ? 1.0 : 0.0);
    }

    if (!args.supervise_exe.empty()) {
      ch::SuperviseOptions supervise;
      supervise.exe = args.supervise_exe;
      supervise.worker_flags = {"--grid-spec", args.grid_spec,
                                "--trials",    std::to_string(args.trials),
                                "--seed",      std::to_string(args.seed),
                                "--cd-engine", args.cd_engine};
      supervise.out_dir = args.supervise_dir;
      supervise.out =
          (std::filesystem::path(args.supervise_dir) / "supervised.csv")
              .string();
      supervise.workers = args.workers;
      supervise.retry.jitter_seed =
          cc::derive_stream_seed(args.seed, 0x6a177e72U);
      ch::SuperviseResult result;
      {
        const ScopedSpan span(tracer, "supervisor.run", root.id());
        const auto start = SteadyClock::now();
        result = ch::run_supervisor(cells, sweep, supervise);
        supervise_wall =
            std::chrono::duration<double>(SteadyClock::now() - start).count();
      }
      metrics.add("supervisor.workers_spawned",
                  static_cast<double>(result.workers_spawned));
      metrics.add("supervisor.backfill_rounds",
                  static_cast<double>(result.backfill_rounds));
      metrics.add("supervisor.quarantined",
                  static_cast<double>(result.quarantined.size()));
      metrics.add("supervisor.wall_s", supervise_wall);
      metrics.add("supervisor.out", supervise.out);
    }
  }

  const std::vector<Span>& spans = tracer.spans();
  const auto trials_and_ns = [&](const std::string& name) {
    std::uint64_t trials = 0;
    const double seconds = total_seconds(spans, name, &trials);
    return std::make_pair(seconds,
                          trials == 0 ? 0.0
                                      : seconds * 1e9 /
                                            static_cast<double>(trials));
  };
  const auto [cd_busy, cd_ns] = trials_and_ns("engine.cd_sim");
  const auto [batch_busy, batch_ns] = trials_and_ns("engine.batch");
  const auto [tree_busy, tree_ns] = trials_and_ns("engine.tree");
  metrics.add("engine.cd_sim.ns_per_trial", cd_ns);
  metrics.add("engine.cd_sim.busy_s", cd_busy);
  metrics.add("engine.batch.ns_per_trial", batch_ns);
  metrics.add("engine.tree.ns_per_trial", tree_ns);
  metrics.add("batch.tables", static_cast<double>(counts.batch_tables));
  metrics.add("batch.table_build_s",
              total_seconds(spans, "batch.table_build"));
  metrics.add("history_engine.trees",
              static_cast<double>(counts.tree_keys.size()));
  metrics.add("history_tree.nodes", static_cast<double>(counts.tree_nodes));
  metrics.add("history_engine.expand_s",
              total_seconds(spans, "history_engine.expand"));
  metrics.add("history_engine.keys_inverse_cdf",
              static_cast<double>(counts.keys_inverse_cdf));
  metrics.add("history_engine.keys_walk",
              static_cast<double>(counts.keys_walk));
  metrics.add("history_engine.keys_simulate",
              static_cast<double>(counts.keys_simulate));

  const std::vector<double> blocks = durations(spans, "engine.");
  metrics.add("parallel.blocks", static_cast<double>(blocks.size()));
  metrics.add("parallel.block_s_p50", percentile(blocks, 0.50));
  metrics.add("parallel.block_s_p99", percentile(blocks, 0.99));
  metrics.add("parallel.idle_frac",
              1.0 - (cd_busy + batch_busy + tree_busy) /
                        (static_cast<double>(threads) * sweep_wall));
  const std::vector<double> cells = durations(spans, "sweep.cell");
  metrics.add("sweep.cell_s_p50", percentile(cells, 0.50));
  metrics.add("sweep.cell_s_max", cells.empty() ? 0.0 : cells.back());
  metrics.add("sweep.cpu_util",
              sweep_cpu / (sweep_wall * static_cast<double>(threads)));
  metrics.add("sweep.csv_s", total_seconds(spans, "sweep.csv"));
  metrics.add("grids.build_s", total_seconds(spans, "grids.build"));
  metrics.add("gridspec.parse_s", total_seconds(spans, "gridspec.parse"));
  metrics.add("shard.fingerprint_s", total_seconds(spans, "shard.fingerprint"));
  metrics.add("shard.plan_s", total_seconds(spans, "shard.plan"));

  const std::vector<double> appends = durations(spans, "checkpoint.append");
  const std::vector<double> syncs = durations(spans, "checkpoint.sync");
  metrics.add("checkpoint.appends", static_cast<double>(appends.size()));
  metrics.add("checkpoint.append_s_p50", percentile(appends, 0.50));
  metrics.add("checkpoint.append_s_p99", percentile(appends, 0.99));
  metrics.add("checkpoint.sync_s_p50", percentile(syncs, 0.50));
  metrics.add("checkpoint.sync_s_p99", percentile(syncs, 0.99));
  metrics.add("checkpoint.atomic_write_s",
              total_seconds(spans, "checkpoint.atomic_write"));
  metrics.add("shard.merge_s", total_seconds(spans, "shard.merge"));

  const auto root = std::find_if(spans.begin(), spans.end(),
                                 [&](const Span& s) { return s.id == root_id; });
  metrics.add("trace.uncovered_frac",
              1.0 - covered_by_children(spans, *root) / root->seconds());
  metrics.add("trace.replay_wall_s", replay_wall);
  metrics.add("kernel_tier", cc::kernel_tier_name());

  // Spans go out only now that the run is over.
  std::ostringstream out;
  for (const Span& span : spans) {
    out << "{\"id\": " << span.id << ", \"parent\": " << span.parent
        << ", \"name\": \"" << span.name << "\", \"start_s\": "
        << std::setprecision(12)
        << std::chrono::duration<double>(span.start - root->start).count()
        << ", \"end_s\": "
        << std::chrono::duration<double>(span.end - root->start).count()
        << ", \"work\": " << span.work << "}\n";
  }
  write_file(args.spans, out.str());
  std::cout << metrics.str() << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// reference

struct Reference {
  std::string method;
  double mean = 0.0;
  double mean_se = 0.0;
  double success = 0.0;
  double success_se = 0.0;
};

/// Exact no-CD answers for every (schedule, k, budget) the grid needs:
/// one exact_profile_no_cd per (schedule, k) to its largest budget,
/// read at each budget. Profiles run across the block pool.
class ExactNoCd {
 public:
  void need(const ch::SweepCell& cell) {
    for (const std::size_t k : distinct_sizes(cell)) {
      keys_[{cell.algorithm.schedule, k}].emplace(cell.max_rounds,
                                                  Answer{});
    }
  }

  void solve() {
    std::vector<std::pair<const Key, Budgets>*> work;
    for (auto& entry : keys_) work.push_back(&entry);
    ch::parallel_blocks(
        work.size(), 0,
        [&work](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            auto& [key, budgets] = *work[i];
            const std::size_t horizon = budgets.rbegin()->first;
            const ch::ExactProfile profile =
                ch::exact_profile_no_cd(*key.first, key.second, horizon);
            double rounds = 0.0;
            for (std::size_t r = 1; r <= horizon; ++r) {
              rounds += static_cast<double>(r) *
                        (profile.solve_by[r] - profile.solve_by[r - 1]);
              const auto it = budgets.find(r);
              if (it != budgets.end()) {
                it->second = Answer{profile.solve_by[r], rounds};
              }
            }
          }
        },
        /*block_size=*/1);
  }

  Reference answer(const ch::SweepCell& cell) const {
    double success = 0.0;
    double weighted_rounds = 0.0;
    for (const std::size_t k : distinct_sizes(cell)) {
      const double weight = cell.sizes.distribution != nullptr
                                ? cell.sizes.distribution->prob(k)
                                : 1.0;
      const Answer& answer =
          keys_.at({cell.algorithm.schedule, k}).at(cell.max_rounds);
      success += weight * answer.success;
      weighted_rounds += weight * answer.rounds;
    }
    return Reference{.method = "exact",
                     .mean = success > 0.0 ? weighted_rounds / success : 0.0,
                     .success = success};
  }

 private:
  /// Pr(solved within the budget) and E[rounds; solved within it].
  struct Answer {
    double success = 0.0;
    double rounds = 0.0;
  };
  using Key = std::pair<const cc::ProbabilitySchedule*, std::size_t>;
  using Budgets = std::map<std::size_t, Answer>;
  std::map<Key, Budgets> keys_;
};

Reference monte_carlo(const ch::SweepResult& result, const std::string& how) {
  const ch::Measurement& m = result.measurement;
  const auto n = static_cast<double>(m.trials);
  return Reference{
      .method = how,
      .mean = m.rounds.mean,
      .mean_se = m.rounds.ci95 / 1.96,
      .success = m.success_rate,
      .success_se = std::sqrt(m.success_rate * (1.0 - m.success_rate) / n)};
}

int reference_mode(const Args& args) {
  const OwnedGrid grid = build_grid(args, nullptr, 0);
  std::vector<Reference> refs(grid.cells.size());
  // The CD cells, with their seed streams pinned so the sub-grid keeps
  // each cell's own stream.
  std::vector<ch::SweepCell> cd_cells;
  std::vector<std::size_t> cd_index;
  std::vector<std::size_t> exact_index;
  ExactNoCd exact;
  for (std::size_t i = 0; i < grid.cells.size(); ++i) {
    ch::SweepCell cell = grid.cells[i];
    if (cell.seed_stream == ch::kSeedStreamFromIndex) cell.seed_stream = i;
    if (cell.algorithm.policy != nullptr) {
      cd_cells.push_back(cell);
      cd_index.push_back(i);
    } else {
      exact.need(cell);
      exact_index.push_back(i);
    }
  }
  exact.solve();
  for (const std::size_t i : exact_index) refs[i] = exact.answer(grid.cells[i]);
  // An independent stream: the reference must not share the checked
  // run's randomness.
  ch::SweepOptions options{.trials = args.trials,
                           .seed = cc::derive_stream_seed(args.seed, 0x5eed)};
  const bool workload_tree = args.cd_engine == "tree";
  options.cd_engine =
      workload_tree ? ch::CdEngine::kSimulate : ch::CdEngine::kHistoryTree;
  const auto cd = ch::run_sweep(std::span<const ch::SweepCell>(cd_cells),
                                options);
  for (std::size_t j = 0; j < cd.size(); ++j) {
    refs[cd_index[j]] = monte_carlo(cd[j], workload_tree ? "simulate" : "tree");
  }

  std::cout << "[";
  for (std::size_t i = 0; i < refs.size(); ++i) {
    JsonObject row;
    row.add("cell", static_cast<double>(i));
    row.add("method", refs[i].method);
    row.add("mean", refs[i].mean);
    row.add("mean_se", refs[i].mean_se);
    row.add("success", refs[i].success);
    row.add("success_se", refs[i].success_se);
    std::cout << (i == 0 ? "\n" : ",\n") << row.str();
  }
  std::cout << "\n]\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return args.mode == "trace" ? trace_mode(args) : reference_mode(args);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_layers: " << error.what() << "\n";
    return 1;
  }
}
