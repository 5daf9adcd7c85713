// The sweep scheduler (harness/sweep.h): per-cell derived seeds make a
// whole grid replayable from one master seed, independent of thread
// count, execution order, and grid composition; results line up with
// direct measure_* calls, also when one pool spreads a cell's blocks
// over several workers; errors surface after the pool drains; and the
// table/CSV renderers emit one row per cell.
#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "baselines/willard.h"
#include "channel/rng.h"
#include "harness/csv.h"
#include "harness/sweep.h"
#include "info/distribution.h"

#include "test_support.h"

namespace crp::harness {
namespace {

/// The six-cell grid plus a support with few distinct sizes, so
/// history-tree cells expand few trees.
struct Fixture : SixCellFixture {
  info::SizeDistribution small = info::SizeDistribution::uniform(48);
};

TEST(Sweep, DeterministicAcrossThreadCounts) {
  // Same grid, same master seed, pools narrower and wider than the
  // grid — must produce identical measurements.
  const Fixture f;
  const auto cells = f.cells();
  const auto reference =
      run_sweep(cells, {.trials = 600, .seed = 31, .threads = 1});
  ASSERT_EQ(reference.size(), cells.size());
  for (const std::size_t threads : {2ul, 3ul, 16ul}) {
    const auto pooled =
        run_sweep(cells, {.trials = 600, .seed = 31, .threads = threads});
    ASSERT_EQ(pooled.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      expect_identical(reference[i].measurement, pooled[i].measurement);
      EXPECT_EQ(reference[i].cell_seed, pooled[i].cell_seed);
    }
  }
}

/// A policy whose fourth and later rounds ask for a NaN probability:
/// the exact CD simulator rejects it mid-block.
/// The state is the history's length, capped at 3.
class NanAfterThreeRounds final : public channel::CollisionPolicy {
 public:
  State initial_state() const override { return 0; }
  State next_state(State state, bool) const override {
    return std::min<State>(state + 1, 3);
  }
  double probability_at(State state) const override {
    return state >= 3 ? std::numeric_limits<double>::quiet_NaN() : 0.5;
  }
  std::string name() const override { return "nan-after-3"; }
};

/// Unequal cells, most of them several blocks long and one with a
/// ragged tail, mixing no-CD and CD cells and drawn and fixed sizes.
std::vector<SweepCell> multi_block_cells(const Fixture& f) {
  const auto cell = [](std::string name, const channel::ProbabilitySchedule*
                                             schedule,
                       const channel::CollisionPolicy* policy,
                       SweepSizes sizes, std::size_t trials) {
    return SweepCell{
        .algorithm = {.name = std::move(name),
                      .schedule = schedule,
                      .policy = policy},
        .sizes = std::move(sizes),
        .max_rounds = 1 << 12,
        .trials = trials};
  };
  const SweepSizes uniform{.name = "small", .distribution = &f.small};
  const SweepSizes fixed{.name = "k=100", .fixed_k = 100};
  return {
      cell("willard", nullptr, &f.willard, uniform, 3 * 1024 + 37),
      cell("decay", &f.decay, nullptr, uniform, 0),
      cell("willard", nullptr, &f.willard, fixed, 2 * 1024),
      cell("slow-decay", &f.slow_decay, nullptr, fixed, 5 * 1024 + 1),
      cell("decay", &f.decay, nullptr, fixed, 7),
      cell("willard", nullptr, &f.willard, uniform, 1024),
      cell("slow-decay", &f.slow_decay, nullptr, uniform, 4 * 1024 + 999),
      cell("willard", nullptr, &f.willard, fixed, 1),
      cell("decay", &f.decay, nullptr, uniform, 3 * 1024 + 37),
  };
}

std::string sweep_csv(std::span<const SweepResult> results) {
  std::ostringstream csv;
  write_sweep_csv(csv, results);
  return csv.str();
}

TEST(Sweep, MultiBlockCellsAreIdenticalAtEveryPoolWidth) {
  // Cells of several blocks each, more of them than most pools are
  // wide: the pool splits heavy cells across workers and folds their
  // blocks in whatever order they finish. Every measurement and every
  // CSV byte must match threads = 1, and each cell must match a direct
  // measure_* call at its derived seed.
  const Fixture f;
  const auto cells = multi_block_cells(f);
  for (const CdEngine cd_engine :
       {CdEngine::kSimulate, CdEngine::kHistoryTree}) {
    const SweepOptions serial{
        .trials = 2500, .seed = 17, .threads = 1, .cd_engine = cd_engine};
    const auto reference = run_sweep(cells, serial);
    ASSERT_EQ(reference.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const SweepCell& cell = cells[i];
      const std::size_t trials = cell.trials != 0 ? cell.trials : 2500;
      const std::uint64_t seed = channel::derive_stream_seed(17, i);
      const MeasureOptions direct{.max_rounds = cell.max_rounds,
                                  .threads = 1,
                                  .cd_engine = cd_engine};
      const auto& sizes = cell.sizes;
      Measurement expected;
      if (cell.algorithm.schedule != nullptr) {
        expected = sizes.distribution != nullptr
                       ? measure_uniform_no_cd(*cell.algorithm.schedule,
                                               *sizes.distribution, trials,
                                               seed, direct)
                       : measure_uniform_no_cd_fixed_k(
                             *cell.algorithm.schedule, sizes.fixed_k, trials,
                             seed, direct);
      } else {
        expected = sizes.distribution != nullptr
                       ? measure_uniform_cd(*cell.algorithm.policy,
                                            *sizes.distribution, trials,
                                            seed, direct)
                       : measure_uniform_cd_fixed_k(*cell.algorithm.policy,
                                                    sizes.fixed_k, trials,
                                                    seed, direct);
      }
      EXPECT_EQ(reference[i].measurement.trials, trials);
      expect_identical(reference[i].measurement, expected);
    }
    const std::string reference_csv = sweep_csv(reference);
    for (const std::size_t threads : {2ul, 3ul, 4ul, 7ul, 16ul}) {
      SweepOptions pooled = serial;
      pooled.threads = threads;
      const auto results = run_sweep(cells, pooled);
      ASSERT_EQ(results.size(), reference.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        expect_identical(reference[i].measurement, results[i].measurement);
        EXPECT_EQ(reference[i].cell_seed, results[i].cell_seed);
      }
      EXPECT_EQ(sweep_csv(results), reference_csv) << "threads " << threads;
    }
  }
}

TEST(Sweep, FailingCellRethrowsAfterThePoolDrains) {
  // One poisoned cell among healthy multi-block ones: the sweep throws
  // the engine's own error on the caller, at every pool width and
  // under both CD engines, and returns (a hang would time the suite
  // out). Under the history-tree engine the error comes from the
  // cell's one expansion, which every block of the cell must rethrow.
  const Fixture f;
  const NanAfterThreeRounds nan_policy;
  auto cells = multi_block_cells(f);
  cells.insert(cells.begin() + 3,
               SweepCell{.algorithm = {.name = "nan", .policy = &nan_policy},
                         .sizes = {.fixed_k = 100},
                         .max_rounds = 1 << 12,
                         .trials = 3 * 1024});
  for (const CdEngine cd_engine :
       {CdEngine::kSimulate, CdEngine::kHistoryTree}) {
    for (const std::size_t threads : {1ul, 4ul}) {
      try {
        run_sweep(cells, {.trials = 2000,
                          .seed = 3,
                          .threads = threads,
                          .cd_engine = cd_engine});
        ADD_FAILURE() << "threads " << threads << ", CD engine "
                      << static_cast<int>(cd_engine) << ": no exception";
      } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("probability"),
                  std::string::npos)
            << error.what();
      }
    }
  }
}

TEST(Sweep, ZeroTrialsAndEmptyGrids) {
  const Fixture f;
  const auto cells = f.cells();
  for (const std::size_t threads : {1ul, 4ul}) {
    const auto results =
        run_sweep(cells, {.trials = 0, .seed = 8, .threads = threads});
    ASSERT_EQ(results.size(), cells.size());
    for (const auto& result : results) {
      EXPECT_EQ(result.measurement.trials, 0u);
      EXPECT_EQ(result.measurement.success_rate, 0.0);
      EXPECT_TRUE(result.measurement.histogram.empty());
    }
    EXPECT_TRUE(
        run_sweep(std::span<const SweepCell>(), {.threads = threads}).empty());
    EXPECT_TRUE(measure_cells({}, threads).empty());
  }
}

TEST(Sweep, CellsMatchDirectMeasurement) {
  // A sweep is exactly the corresponding measure_* calls at the
  // derived per-cell seeds.
  const Fixture f;
  const auto cells = f.cells();
  const SweepOptions options{.trials = 500, .seed = 77, .threads = 1};
  const auto results = run_sweep(cells, options);
  const MeasureOptions direct{.max_rounds = 1 << 12, .threads = 1};
  expect_identical(
      results[0].measurement,
      measure_uniform_no_cd(f.decay, f.uniform, 500,
                            channel::derive_stream_seed(77, 0), direct));
  expect_identical(results[1].measurement,
                   measure_uniform_no_cd_fixed_k(
                       f.decay, 100, 500,
                       channel::derive_stream_seed(77, 1), direct));
  expect_identical(
      results[5].measurement,
      measure_uniform_cd_fixed_k(f.willard, 100, 500,
                                 channel::derive_stream_seed(77, 5),
                                 direct));
}

TEST(Sweep, PinnedSeedStreamsSurviveGridFiltering) {
  // A cell with an explicit seed_stream measures identically no matter
  // which other cells share the grid (the crp_sim registry contract).
  const Fixture f;
  const SweepCell pinned{.algorithm = {.name = "decay",
                                       .schedule = &f.decay},
                         .sizes = {.name = "uniform",
                                   .distribution = &f.uniform},
                         .max_rounds = 1 << 12,
                         .seed_stream = 42};
  const SweepCell other{.algorithm = {.name = "willard",
                                      .policy = &f.willard},
                        .sizes = {.name = "k=100", .fixed_k = 100},
                        .max_rounds = 1 << 12};
  const SweepOptions options{.trials = 400, .seed = 5, .threads = 1};
  const std::vector<SweepCell> alone{pinned};
  const std::vector<SweepCell> paired{other, pinned};
  const auto r_alone = run_sweep(alone, options);
  const auto r_paired = run_sweep(paired, options);
  expect_identical(r_alone[0].measurement, r_paired[1].measurement);
  EXPECT_EQ(r_alone[0].cell_seed, r_paired[1].cell_seed);
}

TEST(Sweep, PerCellTrialOverrides) {
  const Fixture f;
  SweepGrid grid;
  grid.add_cell({.algorithm = {.name = "decay", .schedule = &f.decay},
                 .sizes = {.fixed_k = 50},
                 .max_rounds = 1 << 12,
                 .trials = 123});
  const auto results =
      run_sweep(grid.cells(), {.trials = 999, .seed = 1, .threads = 1});
  EXPECT_EQ(results[0].measurement.trials, 123u);
}

TEST(Sweep, RejectsAlgorithmlessCells) {
  const Fixture f;
  const std::vector<SweepCell> cells{
      SweepCell{.algorithm = {.name = "nothing"},
                .sizes = {.distribution = &f.uniform}}};
  EXPECT_THROW(run_sweep(cells, {.trials = 10, .threads = 1}),
               std::invalid_argument);
}

TEST(Sweep, CsvEmitsOneRowPerCell) {
  const Fixture f;
  const auto results =
      run_sweep(f.cells(), {.trials = 200, .seed = 9, .threads = 1});
  std::ostringstream csv;
  write_sweep_csv(csv, results);
  std::size_t lines = 0;
  std::string line;
  std::istringstream in(csv.str());
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, results.size() + 1);  // header + one per cell
  EXPECT_NE(csv.str().find("algorithm,sizes,budget,trials,cell_seed,mean"),
            std::string::npos);
}

TEST(Sweep, CsvCellSeedRoundTrips) {
  // The cell_seed column must carry the exact derived seed: parsing it
  // back and re-running the cell's measure_* call under it reproduces
  // the row — the contract a multi-process shard driver relies on.
  const Fixture f;
  const SweepOptions options{.trials = 300, .seed = 123, .threads = 1};
  const auto results = run_sweep(f.cells(), options);
  std::ostringstream csv;
  write_sweep_csv(csv, results);

  std::istringstream in(csv.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  std::size_t seed_column = 0;
  {
    std::istringstream header(line);
    std::string cell;
    while (std::getline(header, cell, ',') && cell != "cell_seed") {
      ++seed_column;
    }
    EXPECT_EQ(cell, "cell_seed");
  }
  for (const auto& result : results) {
    ASSERT_TRUE(std::getline(in, line));
    std::istringstream row(line);
    std::string cell;
    for (std::size_t c = 0; c <= seed_column; ++c) {
      ASSERT_TRUE(std::getline(row, cell, ','));
    }
    const std::uint64_t parsed = std::stoull(cell);
    EXPECT_EQ(parsed, result.cell_seed);
  }

  // Replay one cell from the parsed seed alone.
  const auto replay = measure_uniform_no_cd(
      f.decay, f.uniform, 300, results[0].cell_seed,
      MeasureOptions{.max_rounds = 1 << 12, .threads = 1});
  expect_identical(replay, results[0].measurement);
}

TEST(Sweep, CsvQuotesCommaAndQuoteBearingNames) {
  // A name containing a comma or a double quote must survive the CSV
  // round trip instead of silently splitting its row (RFC-4180
  // quoting in CsvWriter, quote-aware split_csv_row on the way back).
  const Fixture f;
  SweepGrid grid;
  grid.add_cell({.algorithm = {.name = "decay, tuned \"v2\"",
                               .schedule = &f.decay},
                 .sizes = {.name = "uniform, n=1024",
                           .distribution = &f.uniform},
                 .max_rounds = 1 << 12});
  const auto results =
      run_sweep(grid.cells(), {.trials = 100, .seed = 4, .threads = 1});
  std::ostringstream csv;
  write_sweep_csv(csv, results);

  std::istringstream in(csv.str());
  std::string header_line;
  std::string row_line;
  ASSERT_TRUE(std::getline(in, header_line));
  ASSERT_TRUE(std::getline(in, row_line));
  const auto header = split_csv_row(header_line);
  const auto row = split_csv_row(row_line);
  ASSERT_EQ(row.size(), header.size());  // the row did not split
  EXPECT_EQ(row[0], "decay, tuned \"v2\"");
  EXPECT_EQ(row[1], "uniform, n=1024");
  // The raw line carries both names RFC-4180 quoted.
  EXPECT_EQ(
      row_line.rfind("\"decay, tuned \"\"v2\"\"\",\"uniform, n=1024\",", 0),
      0u);
}

TEST(Sweep, PinnedSeedStreamRejectsReservedSentinel) {
  // kSeedStreamFromIndex is reserved: an explicit pin of 0xFFFF...F is
  // indistinguishable from the default and would silently decay to
  // index-derived seeds, so the pinning helper throws instead.
  EXPECT_THROW(pinned_seed_stream(kSeedStreamFromIndex),
               std::invalid_argument);
  EXPECT_EQ(pinned_seed_stream(0), 0u);
  EXPECT_EQ(pinned_seed_stream(~std::uint64_t{0} - 1),
            ~std::uint64_t{0} - 1);
}

}  // namespace
}  // namespace crp::harness
