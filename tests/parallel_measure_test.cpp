// Determinism of the thread-pool harness: measure_parallel must
// reproduce the serial measure() bit for bit at every thread count,
// for synthetic trials and for real workloads (including the batch
// engine, whose lazily built tables are shared across workers). The
// (cell, block) scheduler under measure_cells keeps its rules: a cell's
// first block runs alone, at most `threads` cells hold an engine, and
// an error in any block surfaces on the caller after the pool drains.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "channel/batch.h"
#include "channel/rng.h"
#include "core/advice_deterministic.h"
#include "harness/measure.h"
#include "harness/parallel.h"
#include "info/distribution.h"

namespace crp::harness {
namespace {

void expect_identical(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.samples, b.samples);  // element-wise, in trial order
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.rounds.count, b.rounds.count);
  EXPECT_EQ(a.rounds.mean, b.rounds.mean);
  EXPECT_EQ(a.rounds.stddev, b.rounds.stddev);
  EXPECT_EQ(a.rounds.p50, b.rounds.p50);
  EXPECT_EQ(a.rounds.p90, b.rounds.p90);
  EXPECT_EQ(a.rounds.p99, b.rounds.p99);
  EXPECT_EQ(a.rounds.min, b.rounds.min);
  EXPECT_EQ(a.rounds.max, b.rounds.max);
}

TEST(MeasureParallel, BitIdenticalToSerialAtEveryThreadCount) {
  const Trial trial = [](std::size_t, std::mt19937_64& rng) {
    std::uniform_int_distribution<std::size_t> rounds(1, 500);
    const std::size_t r = rounds(rng);
    return channel::RunResult{r % 7 != 0, r, std::nullopt};
  };
  const auto serial = measure(trial, 3001, 42);
  for (std::size_t threads : {1ul, 2ul, 8ul}) {
    expect_identical(serial, measure_parallel(trial, 3001, 42, threads));
  }
}

TEST(MeasureParallel, BatchEngineTrialsAreThreadCountInvariant) {
  // The sampler's schedule and per-k tables are built lazily by
  // whichever worker gets there first; results must not depend on the
  // race outcome.
  const baselines::DecaySchedule decay(1 << 10);
  const channel::BatchNoCdSampler sampler(decay);
  const auto sizes = info::SizeDistribution::uniform(1 << 10);
  const Trial trial = [&](std::size_t, std::mt19937_64& rng) {
    const std::size_t k = sizes.sample(rng);
    return sampler.sample(k, rng, {.max_rounds = 1 << 14});
  };
  const auto serial = measure(trial, 4000, 7);
  for (std::size_t threads : {2ul, 8ul}) {
    expect_identical(serial, measure_parallel(trial, 4000, 7, threads));
  }
}

TEST(MeasureParallel, MeasureHelpersMatchSerialHelpers) {
  const baselines::DecaySchedule decay(1 << 10);
  for (const auto engine :
       {NoCdEngine::kBinomial, NoCdEngine::kBatch, NoCdEngine::kPerPlayer}) {
    MeasureOptions serial_options{.max_rounds = 1 << 14, .threads = 1};
    serial_options.engine = engine;
    auto pooled_options = serial_options;
    pooled_options.threads = 8;
    const auto serial = measure_uniform_no_cd_fixed_k(decay, 200, 2500, 97,
                                                      serial_options);
    const auto pooled = measure_uniform_no_cd_fixed_k(decay, 200, 2500, 97,
                                                      pooled_options);
    expect_identical(serial, pooled);
  }
}

TEST(MeasureParallel, DeterministicAdviceMatchesLegacySerialPath) {
  constexpr std::size_t n = 1 << 8;
  constexpr std::size_t b = 3;
  const core::SubtreeScanProtocol scan(n, b);
  const core::MinIdPrefixAdvice advice(n, b);
  const auto sizes = info::SizeDistribution::uniform(32);
  const auto legacy = measure_deterministic_advice(scan, advice, sizes, n,
                                                   false, 800, 5, 8 * n);
  // keep_samples matches the legacy fold (the plain-max_rounds entry
  // points always retain samples).
  const auto pooled = measure_deterministic_advice(
      scan, advice, sizes, n, false, 800, 5,
      MeasureOptions{.max_rounds = 8 * n, .threads = 8,
                     .keep_samples = true});
  expect_identical(legacy, pooled);
}

TEST(MeasureParallel, HandlesDegenerateTrialCounts) {
  const Trial trial = [](std::size_t, std::mt19937_64&) {
    return channel::RunResult{true, 1, std::nullopt};
  };
  const auto none = measure_parallel(trial, 0, 1, 8);
  EXPECT_EQ(none.trials, 0u);
  EXPECT_EQ(none.samples.size(), 0u);
  const auto one = measure_parallel(trial, 1, 1, 8);
  EXPECT_EQ(one.trials, 1u);
  EXPECT_EQ(one.samples.size(), 1u);
}

TEST(MeasureParallel, PropagatesTrialExceptions) {
  const Trial trial = [](std::size_t t, std::mt19937_64&) {
    if (t == 1234) throw std::runtime_error("boom");
    return channel::RunResult{true, 1, std::nullopt};
  };
  EXPECT_THROW(measure_parallel(trial, 3000, 1, 4), std::runtime_error);
}

/// Deterministic synthetic engine: trial t solves in (t % 7) + 1
/// rounds, and the block starting at `throw_at` throws. It records any
/// block that starts before the first block has finished, and how
/// many engines are alive.
class ProbeEngine final : public channel::Engine {
 public:
  struct Shared {
    std::mutex mutex;
    std::size_t alive = 0;
    std::size_t max_alive = 0;
    bool overlapped_first_block = false;
  };

  ProbeEngine(Shared& shared, std::size_t throw_at)
      : shared_(shared), throw_at_(throw_at) {
    const std::lock_guard lock(shared_.mutex);
    shared_.max_alive = std::max(shared_.max_alive, ++shared_.alive);
  }
  ~ProbeEngine() override {
    const std::lock_guard lock(shared_.mutex);
    --shared_.alive;
  }

  void run_many(channel::TrialBlock& block) const override {
    if (block.first_trial == 0) {
      // Give other workers every chance to start a block of this cell
      // while its first block runs; none may.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    } else if (!first_done_.load()) {
      const std::lock_guard lock(shared_.mutex);
      shared_.overlapped_first_block = true;
    }
    for (std::size_t t = 0; t < block.size(); ++t) {
      block.solved[t] = 1;
      block.rounds[t] = (block.first_trial + t) % 7 + 1;
    }
    if (block.first_trial == 0) first_done_.store(true);
    if (block.first_trial == throw_at_) throw std::runtime_error("probe");
  }

 private:
  Shared& shared_;
  std::size_t throw_at_;
  mutable std::atomic<bool> first_done_{false};
};

constexpr std::size_t kNeverThrow = ~std::size_t{0};

std::vector<MeasureCell> probe_cells(ProbeEngine::Shared& shared,
                                     std::size_t count,
                                     std::size_t throw_cell,
                                     std::size_t throw_at) {
  std::vector<MeasureCell> cells;
  for (std::size_t c = 0; c < count; ++c) {
    cells.push_back(MeasureCell{
        .engine =
            [&shared, c, throw_cell, throw_at] {
              return std::make_shared<const ProbeEngine>(
                  shared, c == throw_cell ? throw_at : kNeverThrow);
            },
        .sizes = {nullptr, 3},
        .trials = (c % 3 + 2) * kTrialBlockSize + 11 * c,
        .seed = c,
        .options = {.keep_samples = c % 2 == 1}});
  }
  return cells;
}

TEST(MeasureCells, FirstBlockAloneAndAtMostThreadsOpenCells) {
  for (const std::size_t threads : {1ul, 2ul, 4ul}) {
    ProbeEngine::Shared shared;
    const auto cells = probe_cells(shared, 9, kNeverThrow, kNeverThrow);
    const auto pooled = measure_cells(cells, threads);
    EXPECT_FALSE(shared.overlapped_first_block) << "threads " << threads;
    EXPECT_LE(shared.max_alive, threads);
    EXPECT_EQ(shared.alive, 0u);  // every engine dropped at close
    ASSERT_EQ(pooled.size(), cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const ProbeEngine alone(shared, kNeverThrow);
      MeasureOptions options = cells[c].options;
      options.threads = 1;
      expect_identical(pooled[c],
                       measure_blocks(alone, cells[c].sizes, cells[c].trials,
                                      cells[c].seed, options));
      EXPECT_TRUE(pooled[c].histogram ==
                  measure_blocks(alone, cells[c].sizes, cells[c].trials,
                                 cells[c].seed, options)
                      .histogram);
    }
  }
}

TEST(MeasureCells, LaterBlockErrorsRethrowAfterThePoolDrains) {
  for (const std::size_t threads : {1ul, 4ul}) {
    ProbeEngine::Shared shared;
    // A throw in block 3 of a cell measured alone...
    const ProbeEngine engine(shared, 3 * kTrialBlockSize);
    EXPECT_THROW(measure_blocks(engine, {nullptr, 3}, 8 * kTrialBlockSize, 1,
                                {.threads = threads}),
                 std::runtime_error);
    // ...and in cell 4 of a pool of mixed cells.
    const auto cells = probe_cells(shared, 9, 4, 2 * kTrialBlockSize);
    EXPECT_THROW(measure_cells(cells, threads), std::runtime_error);
    EXPECT_EQ(shared.alive, 1u);  // only `engine`: the pool dropped its own
  }
}

TEST(MeasureCells, ZeroTrialCellsNeedNoBlocks) {
  ProbeEngine::Shared shared;
  for (const std::size_t threads : {1ul, 4ul}) {
    const ProbeEngine engine(shared, kNeverThrow);
    for (const bool keep_samples : {false, true}) {
      const auto none = measure_blocks(
          engine, {nullptr, 3}, 0, 1,
          {.threads = threads, .keep_samples = keep_samples});
      EXPECT_EQ(none.trials, 0u);
      EXPECT_EQ(none.success_rate, 0.0);
      EXPECT_TRUE(none.histogram.empty());
    }
  }
}

}  // namespace
}  // namespace crp::harness
