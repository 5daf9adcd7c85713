#include "harness/sweep.h"

#include <stdexcept>
#include <utility>

#include "channel/history_engine.h"
#include "channel/rng.h"
#include "harness/csv.h"

namespace crp::harness {

namespace {

std::string size_source_label(const SweepSizes& sizes) {
  if (!sizes.name.empty()) return sizes.name;
  return sizes.distribution != nullptr ? "drawn"
                                       : "k=" + std::to_string(sizes.fixed_k);
}

}  // namespace

std::uint64_t pinned_seed_stream(std::uint64_t stream) {
  if (stream == kSeedStreamFromIndex) {
    throw std::invalid_argument(
        "seed_stream 0xFFFFFFFFFFFFFFFF is reserved as the "
        "derive-from-grid-index sentinel (kSeedStreamFromIndex); an "
        "explicit pin of this value would silently produce "
        "position-dependent seeds");
  }
  return stream;
}

SweepGrid& SweepGrid::add_algorithm(SweepAlgorithm algorithm) {
  algorithms_.push_back(std::move(algorithm));
  return *this;
}

SweepGrid& SweepGrid::add_sizes(SweepSizes sizes) {
  sizes_.push_back(std::move(sizes));
  return *this;
}

SweepGrid& SweepGrid::add_budget(std::size_t max_rounds) {
  budgets_.push_back(max_rounds);
  return *this;
}

SweepGrid& SweepGrid::add_cell(SweepCell cell) {
  cells_.push_back(std::move(cell));
  return *this;
}

std::vector<SweepCell> SweepGrid::cells() const {
  std::vector<SweepCell> cells = cells_;
  const std::vector<std::size_t> budgets =
      budgets_.empty() ? std::vector<std::size_t>{1 << 20} : budgets_;
  for (const auto& algorithm : algorithms_) {
    for (const auto& sizes : sizes_) {
      for (const std::size_t budget : budgets) {
        cells.push_back(SweepCell{
            .algorithm = algorithm, .sizes = sizes, .max_rounds = budget});
      }
    }
  }
  return cells;
}

std::vector<SweepResult> run_sweep(
    std::span<const SweepCell> cells, const SweepOptions& options,
    const std::function<void(const SweepResult&)>& on_result) {
  // One history-tree engine cache for the whole sweep: cells sharing a
  // CD policy expand each (policy, k, horizon) tree once instead of
  // once per cell. Results are identical to per-cell engines (the
  // expansion is deterministic), so the cache is purely an
  // amortization.
  const channel::HistoryTreeCache tree_cache;
  const channel::HistoryTreeCache* shared_trees =
      options.cd_engine == CdEngine::kHistoryTree ? &tree_cache : nullptr;
  std::vector<SweepResult> results(cells.size());
  std::vector<MeasureCell> measured(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepCell& cell = cells[i];
    if (cell.algorithm.schedule == nullptr &&
        cell.algorithm.policy == nullptr) {
      throw std::invalid_argument("sweep cell '" + cell.algorithm.name +
                                  "' names neither a schedule nor a policy");
    }
    const std::uint64_t stream =
        cell.seed_stream == kSeedStreamFromIndex ? i : cell.seed_stream;
    results[i] = SweepResult{
        .cell = cell,
        .cell_index = i,
        .cell_seed = channel::derive_stream_seed(options.seed, stream),
        .measurement = {}};
    const MeasureOptions measure{.max_rounds = cell.max_rounds,
                                 .engine = options.engine,
                                 .cd_engine = options.cd_engine,
                                 .tree_cache = shared_trees};
    measured[i] = MeasureCell{
        .engine =
            [&cell, measure] {
              return cell.algorithm.schedule != nullptr
                         ? uniform_engine(*cell.algorithm.schedule, measure)
                         : uniform_engine(*cell.algorithm.policy, measure);
            },
        .sizes = cell.sizes.distribution != nullptr
                     ? channel::SizeSource{cell.sizes.distribution, 0}
                     : channel::SizeSource{nullptr, cell.sizes.fixed_k},
        .trials = cell.trials != 0 ? cell.trials : options.trials,
        .seed = results[i].cell_seed,
        .max_rounds = cell.max_rounds};
  }
  // Every cell's blocks go to one pool: heavy cells spread over every
  // worker while light ones fill the gaps, and each cell's result is a
  // function of (cell, cell seed, trials) only.
  auto measurements = measure_cells(
      measured, options.threads,
      on_result ? [&](std::size_t i, const Measurement& measurement) {
        results[i].measurement = measurement;
        on_result(results[i]);
      } : std::function<void(std::size_t, const Measurement&)>());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    results[i].measurement = std::move(measurements[i]);
  }
  return results;
}

std::vector<SweepResult> run_sweep(const SweepGrid& grid,
                                   const SweepOptions& options) {
  const auto cells = grid.cells();
  return run_sweep(std::span<const SweepCell>(cells), options);
}

std::string sweep_csv_header() {
  auto header = CsvWriter::measurement_header();
  header.insert(header.begin(), {"algorithm", "sizes", "budget", "trials",
                                 "cell_seed"});
  return csv_row_string(header);
}

std::string sweep_csv_row(const SweepResult& result) {
  auto cells = CsvWriter::measurement_cells(result.measurement);
  // cell_seed makes every row independently replayable: re-running
  // the cell's measure_* call under this seed reproduces the row,
  // which is what lets a driver shard a grid's cells across
  // processes, checkpoint them cell by cell, and merge the CSVs
  // (tests/sweep_test.cpp round-trips this).
  cells.insert(cells.begin(),
               {result.cell.algorithm.name,
                size_source_label(result.cell.sizes),
                std::to_string(result.cell.max_rounds),
                std::to_string(result.measurement.trials),
                std::to_string(result.cell_seed)});
  return csv_row_string(cells);
}

void write_sweep_csv(std::ostream& out,
                     std::span<const SweepResult> results) {
  out << sweep_csv_header() << '\n';
  for (const auto& result : results) out << sweep_csv_row(result) << '\n';
}

}  // namespace crp::harness
