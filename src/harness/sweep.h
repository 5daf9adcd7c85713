// Sweep-level scheduler: declare a whole grid of measurement
// configurations — algorithm (schedule or policy) × size source ×
// round budget — and execute the cells across the thread pool in one
// call, collecting one Measurement per cell.
//
// This is the execution layer the paper's Table 1/2 and divergence
// sweeps run on: each bench declares its grid, run_sweep() schedules
// the cells, and the results feed harness/table.h rows or
// harness/csv.h exports directly. Cells fold through the streaming
// accumulator layer (harness/accumulate.h): per-cell memory is flat
// in the trial count, and CD cells running the history-tree engine
// share one expansion cache across the whole sweep.
//
/// Ownership: SweepAlgorithm/SweepSizes borrow their schedules,
/// policies, and distributions — the referenced objects must outlive
/// run_sweep(); SweepResults own their Measurements outright.
///
/// Thread-safety: run_sweep() is the synchronization boundary. It
/// hands every cell to one pool of workers that claim (cell, block)
/// items (measure_cells, harness/measure.h): at most one open cell
/// per worker, each cell's first block alone, then any idle worker on
/// the lowest open cell's remaining blocks. Blocks of one cell may run
/// on several workers at once, so the algorithms under test must be
/// const-callable concurrently (every schedule/policy in the library
/// is).
///
/// Determinism: every cell measures under its own seed, derived from
/// (options.seed, the cell's seed stream) with the same splitmix
/// mixing the per-trial streams use. A cell's result therefore
/// depends only on its own configuration — not on execution order,
/// thread count, or which other cells share the grid — and an entire
/// sweep is replayable from one master seed (tests/sweep_test.cpp
/// pins this down). Cells default their seed stream to their grid
/// index; pin seed_stream explicitly when a grid is built dynamically
/// (e.g. filtered by a CLI flag) and cells must keep stable seeds
/// regardless of which others are present.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "harness/measure.h"
#include "info/distribution.h"

namespace crp::harness {

/// Sentinel: derive the cell's seed from its index in the grid.
///
/// The value 0xFFFF'FFFF'FFFF'FFFF is *reserved*: it is the default of
/// SweepCell::seed_stream, and run_sweep cannot distinguish a caller
/// who explicitly pinned it from one who never set the field — an
/// explicit pin would silently fall back to index-derived (and thus
/// grid-position-dependent) seeds, the exact instability pinning is
/// meant to prevent. Route any stream identity that comes from
/// external or computed input (CLI flags, config files, shard plans)
/// through pinned_seed_stream(), which rejects the reserved value.
inline constexpr std::uint64_t kSeedStreamFromIndex = ~std::uint64_t{0};

/// Validates an *explicit* seed-stream identity: returns `stream`
/// unchanged unless it equals the reserved kSeedStreamFromIndex
/// sentinel, in which case it throws std::invalid_argument instead of
/// letting the pin silently decay to index-derived seeds. The shard
/// planner and the crp_shard CLI route every pinned stream through
/// this.
std::uint64_t pinned_seed_stream(std::uint64_t stream);

/// One algorithm under test: exactly one of schedule/policy is
/// non-null (uniform no-CD vs uniform CD). Referenced objects must
/// outlive the sweep.
struct SweepAlgorithm {
  std::string name;
  const channel::ProbabilitySchedule* schedule = nullptr;
  const channel::CollisionPolicy* policy = nullptr;
};

/// One workload: sizes drawn from a distribution (non-null) or fixed
/// at fixed_k. Referenced objects must outlive the sweep.
struct SweepSizes {
  std::string name;
  const info::SizeDistribution* distribution = nullptr;
  std::size_t fixed_k = 0;
};

/// One grid cell: an algorithm evaluated against a workload at a round
/// budget.
struct SweepCell {
  SweepAlgorithm algorithm;
  SweepSizes sizes;
  std::size_t max_rounds = 1 << 20;
  /// Trials for this cell; 0 = SweepOptions::trials.
  std::size_t trials = 0;
  /// Seed stream identity (see header comment).
  std::uint64_t seed_stream = kSeedStreamFromIndex;
};

/// Declarative grid builder: axes cross-multiply, explicit cells (for
/// paired sweeps such as Table 1's per-entropy-point schedule ×
/// matching lifted distribution) append as declared.
class SweepGrid {
 public:
  SweepGrid& add_algorithm(SweepAlgorithm algorithm);
  SweepGrid& add_sizes(SweepSizes sizes);
  SweepGrid& add_budget(std::size_t max_rounds);
  SweepGrid& add_cell(SweepCell cell);

  /// The explicit cells, followed by the cross product algorithm ×
  /// sizes × budget (budgets default to {1 << 20} when none declared).
  std::vector<SweepCell> cells() const;

 private:
  std::vector<SweepAlgorithm> algorithms_;
  std::vector<SweepSizes> sizes_;
  std::vector<std::size_t> budgets_;
  std::vector<SweepCell> cells_;
};

/// Execution knobs for a whole sweep.
struct SweepOptions {
  /// Default trials per cell (cells may override).
  std::size_t trials = 6000;
  /// Master seed; per-cell seeds derive from it.
  std::uint64_t seed = 1;
  /// Worker threads for the whole sweep (0 = all hardware threads).
  std::size_t threads = 0;
  /// Engine for the uniform no-CD cells (CD cells ignore it).
  NoCdEngine engine = NoCdEngine::kBatch;
  /// Engine for the uniform CD cells (no-CD cells ignore it).
  CdEngine cd_engine = CdEngine::kSimulate;
};

/// One executed cell.
struct SweepResult {
  SweepCell cell;
  std::size_t cell_index = 0;
  std::uint64_t cell_seed = 0;  ///< the derived seed the cell ran under
  Measurement measurement;
};

/// Executes every cell and returns results in cell order. Every
/// cell's blocks run on one pool of options.threads workers, so heavy
/// cells spread over every worker while light ones fill the gaps,
/// however many cells the grid has; the results are identical at
/// every thread count. The first error any cell throws is rethrown
/// after the pool drains. `on_result`, when set, gets each result in
/// cell order, as measure_cells delivers it (harness/measure.h).
std::vector<SweepResult> run_sweep(
    std::span<const SweepCell> cells, const SweepOptions& options = {},
    const std::function<void(const SweepResult&)>& on_result = {});
std::vector<SweepResult> run_sweep(const SweepGrid& grid,
                                   const SweepOptions& options = {});

/// CSV export: algorithm, sizes, budget, trials, cell_seed, then the
/// measurement summary columns (harness/csv.h). cell_seed is the
/// derived seed the cell ran under, so every row is independently
/// replayable — the serialization hook for multi-process sharding
/// (harness/shard.h). Algorithm/size-source names are RFC-4180 quoted
/// on the way out (csv_quote), so names containing commas or quotes
/// survive the round trip through split_csv_row.
void write_sweep_csv(std::ostream& out,
                     std::span<const SweepResult> results);

/// The pieces write_sweep_csv is made of, exposed for cell-granular
/// serialization (harness/checkpoint.h journals one row per completed
/// cell): the header line and one result's row, both without the
/// trailing newline. write_sweep_csv output is exactly
/// `sweep_csv_header() + '\n'` followed by `sweep_csv_row(r) + '\n'`
/// per result — a journaled row replayed verbatim is byte-identical
/// to the row a monolithic dump would have written.
std::string sweep_csv_header();
std::string sweep_csv_row(const SweepResult& result);

}  // namespace crp::harness
