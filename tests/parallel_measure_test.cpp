// Determinism of the thread-pool harness: measure_blocks must return
// the same Measurement at every thread count, for synthetic per-trial
// functions run through channel::AdapterEngine and for real workloads
// (including the batch engine, whose lazily built tables are shared
// across workers). AdapterEngine keeps the per-trial stream contract:
// trial t runs on derive_rng(seed, t), drawing k first when sizes are
// drawn. The (cell, block) scheduler under measure_cells keeps its
// rules: no block runs before its cell's open step has returned, a
// cell's first block runs alone, at most `threads` cells hold
// an engine, and an error in any block surfaces on the caller after
// the pool drains; it hands every trial index of every cell to the
// cell's engine exactly once, on the cell's seed and round budget.
#include <algorithm>
#include <array>
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
#include "channel/engine.h"
#include "channel/rng.h"
#include "core/advice_deterministic.h"
#include "harness/measure.h"
#include "harness/parallel.h"
#include "info/distribution.h"

#include "test_support.h"

namespace crp::harness {
namespace {

/// A synthetic per-trial function: a uniform round in [1, 500] drawn
/// from the trial's stream, unsolved when divisible by 7.
channel::RunResult synthetic_trial(std::size_t, channel::Rng& rng,
                                   const channel::SimOptions&) {
  std::uniform_int_distribution<std::size_t> rounds(1, 500);
  const std::size_t r = rounds(rng);
  return channel::RunResult{r % 7 != 0, r, std::nullopt};
}

TEST(AdapterEngine, BitIdenticalAtEveryThreadCount) {
  const channel::AdapterEngine engine(synthetic_trial);
  const MeasureOptions serial{.threads = 1};
  const auto reference = measure_blocks(engine, {nullptr, 1}, 3001, 42,
                                        serial);
  EXPECT_EQ(reference.trials, 3001u);
  for (const std::size_t threads : {1ul, 2ul, 8ul}) {
    MeasureOptions pooled = serial;
    pooled.threads = threads;
    expect_identical(reference, measure_blocks(engine, {nullptr, 1}, 3001,
                                               42, pooled));
  }
}

TEST(AdapterEngine, DrawsKThenRunsOnOneStreamPerTrial) {
  // Pinned against a hand-written loop: trial t derives its stream
  // from (seed, t), draws k from the size distribution, then runs on
  // the same stream with the block's round budget.
  const auto sizes = info::SizeDistribution::uniform(64);
  const channel::AdapterEngine engine(
      [](std::size_t k, channel::Rng& rng,
         const channel::SimOptions& options) {
        std::uniform_int_distribution<std::size_t> extra(0, k);
        const std::size_t r = k + extra(rng);
        const bool solved = r < options.max_rounds;
        return channel::RunResult{solved, solved ? r : options.max_rounds,
                                  std::nullopt};
      });
  constexpr std::size_t kTrials = 2500;
  constexpr std::uint64_t kSeed = 77;
  constexpr std::size_t kBudget = 100;
  std::vector<std::uint8_t> solved(kTrials);
  std::vector<std::uint64_t> rounds(kTrials);
  channel::TrialBlock block{.seed = kSeed,
                            .first_trial = 0,
                            .max_rounds = kBudget,
                            .sizes = {&sizes, 0},
                            .solved = solved,
                            .rounds = rounds};
  engine.run_many(block);

  RoundHistogram expected;
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto rng = channel::derive_rng(kSeed, t);
    const std::size_t k = sizes.sample(rng);
    std::uniform_int_distribution<std::size_t> extra(0, k);
    const std::size_t r = k + extra(rng);
    EXPECT_EQ(solved[t], r < kBudget ? 1 : 0) << "trial " << t;
    EXPECT_EQ(rounds[t], r < kBudget ? r : kBudget) << "trial " << t;
    if (r < kBudget) {
      expected.add_solved(r);
    } else {
      expected.add_unsolved();
    }
  }
  const auto m = measure_blocks(engine, {&sizes, 0}, kTrials, kSeed,
                                {.max_rounds = kBudget});
  EXPECT_TRUE(m.histogram == expected);
  EXPECT_LT(m.success_rate, 1.0);  // the budget censors some trials
}

TEST(AdapterEngine, BatchSamplerTrialsAreThreadCountInvariant) {
  // The sampler's schedule and per-k tables are built lazily by
  // whichever worker gets there first; results must not depend on the
  // race outcome.
  const baselines::DecaySchedule decay(1 << 10);
  const channel::BatchNoCdSampler sampler(decay);
  const auto sizes = info::SizeDistribution::uniform(1 << 10);
  const channel::AdapterEngine engine(
      [&](std::size_t k, channel::Rng& rng,
          const channel::SimOptions& options) {
        return sampler.sample(k, rng, options.max_rounds);
      });
  const MeasureOptions serial{.max_rounds = 1 << 14, .threads = 1};
  const auto reference = measure_blocks(engine, {&sizes, 0}, 4000, 7, serial);
  for (const std::size_t threads : {2ul, 8ul}) {
    MeasureOptions pooled = serial;
    pooled.threads = threads;
    expect_identical(reference,
                     measure_blocks(engine, {&sizes, 0}, 4000, 7, pooled));
  }
}

TEST(AdapterEngine, HandlesDegenerateTrialCounts) {
  const channel::AdapterEngine engine(
      [](std::size_t, channel::Rng&, const channel::SimOptions&) {
        return channel::RunResult{true, 1, std::nullopt};
      });
  const MeasureOptions options{.threads = 8};
  const auto none = measure_blocks(engine, {nullptr, 1}, 0, 1, options);
  EXPECT_EQ(none.trials, 0u);
  EXPECT_EQ(none.success_rate, 0.0);
  EXPECT_TRUE(none.histogram.empty());
  const auto one = measure_blocks(engine, {nullptr, 1}, 1, 1, options);
  EXPECT_EQ(one.trials, 1u);
  EXPECT_EQ(one.success_rate, 1.0);
  EXPECT_EQ(one.rounds.count, 1u);
  EXPECT_EQ(one.histogram.solved(), 1u);
}

TEST(AdapterEngine, PropagatesTrialExceptionsAfterThePoolDrains) {
  // The per-trial function does not see its trial index; trial 1234 is
  // the one whose stream starts out equal to derive_rng(1, 1234).
  const auto boom = channel::derive_rng(1, 1234);
  std::atomic<std::size_t> calls{0};
  const channel::AdapterEngine engine(
      [&](std::size_t, channel::Rng& rng, const channel::SimOptions&) {
        calls.fetch_add(1);
        if (rng == boom) throw std::runtime_error("boom");
        return channel::RunResult{true, 1, std::nullopt};
      });
  for (const std::size_t threads : {1ul, 4ul}) {
    EXPECT_THROW(
        measure_blocks(engine, {nullptr, 1}, 3000, 1, {.threads = threads}),
        std::runtime_error);
    // Every worker has joined: no trial runs after the rethrow.
    const std::size_t after = calls.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(calls.load(), after);
  }
}

TEST(AdapterEngine, RejectsAnEmptySizeSource) {
  const channel::AdapterEngine engine(synthetic_trial);
  EXPECT_THROW(measure_blocks(engine, {nullptr, 0}, 10, 1, {.threads = 1}),
               std::invalid_argument);
  EXPECT_THROW(measure_blocks(engine, {nullptr, 0}, 10, 1, {.threads = 4}),
               std::invalid_argument);
}

TEST(MeasureHelpers, NoCdEnginesAreThreadCountInvariant) {
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

TEST(MeasureHelpers, DeterministicAdviceMatchesHandWrittenLoop) {
  constexpr std::size_t n = 1 << 8;
  constexpr std::size_t b = 3;
  const core::SubtreeScanProtocol scan(n, b);
  const core::MinIdPrefixAdvice advice(n, b);
  const auto sizes = info::SizeDistribution::uniform(32);
  std::vector<double> samples;
  RoundHistogram expected;
  for (std::size_t t = 0; t < 800; ++t) {
    auto rng = channel::derive_rng(5, t);
    const auto participants =
        random_participant_set(n, sizes.sample(rng), rng);
    const auto run = channel::run_deterministic(
        scan, advice.advise(participants), participants, false,
        {.max_rounds = 8 * n});
    if (run.solved) {
      samples.push_back(static_cast<double>(run.rounds));
      expected.add_solved(run.rounds);
    } else {
      expected.add_unsolved();
    }
  }
  const MeasureOptions serial{.max_rounds = 8 * n, .threads = 1};
  const auto reference = measure_deterministic_advice(scan, advice, sizes, n,
                                                      false, 800, 5, serial);
  EXPECT_TRUE(reference.histogram == expected);
  const auto summary = summarize(samples);
  EXPECT_EQ(reference.rounds.count, summary.count);
  EXPECT_EQ(reference.rounds.mean, summary.mean);
  EXPECT_EQ(reference.rounds.p50, summary.p50);
  EXPECT_EQ(reference.rounds.p90, summary.p90);
  EXPECT_EQ(reference.rounds.max, summary.max);
  MeasureOptions pooled = serial;
  pooled.threads = 8;
  expect_identical(reference, measure_deterministic_advice(
                                  scan, advice, sizes, n, false, 800, 5,
                                  pooled));
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
        .seed = c});
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
      const MeasureOptions options{.max_rounds = cells[c].max_rounds,
                                   .threads = 1};
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

TEST(ParallelCells, NoBlockRunsBeforeItsCellIsOpen) {
  // A cell's open step builds what its blocks use (measure_cells'
  // engine), so with either first_block_alone value no block of a cell
  // may start before that cell's open has returned, and none may run
  // after its close. A slow open gives the idle workers every chance.
  constexpr std::size_t kCells = 3;
  constexpr std::size_t kBlocks = 8;
  for (const bool first_block_alone : {false, true}) {
    std::array<std::atomic<int>, kCells> phase{};  // 0 new, 1 open, 2 closed
    std::atomic<std::size_t> early{0};
    std::atomic<std::size_t> late{0};
    std::atomic<std::size_t> ran{0};
    const CellSteps steps{
        .open =
            [&](std::size_t cell) {
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
              phase[cell].store(1);
            },
        .block =
            [&](std::size_t, std::size_t cell, std::size_t, std::size_t) {
              const int seen = phase[cell].load();
              if (seen == 0) ++early;
              if (seen == 2) ++late;
              ++ran;
            },
        .close = [&](std::size_t cell) { phase[cell].store(2); },
        .first_block_alone = first_block_alone};
    const std::vector<std::size_t> totals(kCells, kBlocks * kTrialBlockSize);
    parallel_cells(totals, 4, steps);
    EXPECT_EQ(early.load(), 0u) << "first_block_alone " << first_block_alone;
    EXPECT_EQ(late.load(), 0u) << "first_block_alone " << first_block_alone;
    EXPECT_EQ(ran.load(), kCells * kBlocks);
    for (const auto& cell : phase) EXPECT_EQ(cell.load(), 2);
  }
}

/// Solves every trial in (t % 7) + 1 rounds and records each block it
/// is handed; measure_cells builds one per cell.
class RecordingEngine final : public channel::Engine {
 public:
  struct Block {
    std::uint64_t seed = 0;
    std::size_t max_rounds = 0;
    std::size_t fixed_k = 0;
    std::size_t first_trial = 0;
    std::size_t size = 0;
  };

  RecordingEngine(std::mutex& mutex, std::vector<Block>& blocks)
      : mutex_(mutex), blocks_(blocks) {}

  void run_many(channel::TrialBlock& block) const override {
    for (std::size_t t = 0; t < block.size(); ++t) {
      block.solved[t] = 1;
      block.rounds[t] = (block.first_trial + t) % 7 + 1;
    }
    const std::lock_guard lock(mutex_);
    blocks_.push_back({block.seed, block.max_rounds, block.sizes.fixed_k,
                       block.first_trial, block.size()});
  }

 private:
  std::mutex& mutex_;
  std::vector<Block>& blocks_;
};

TEST(MeasureCells, HandsOutEveryTrialOnceOnItsCellsStream) {
  // The (cell seed, t) stream contract: no Measurement field shows
  // trial order, so the partition itself is pinned here. Every trial
  // index of every cell reaches that cell's engine exactly once, with
  // the cell's seed, round budget, and size source.
  const std::vector<std::size_t> trials{0, 1, 1023, 1024, 1025, 5000};
  for (const std::size_t threads : {1ul, 4ul, 8ul}) {
    std::mutex mutex;
    std::vector<std::vector<RecordingEngine::Block>> seen(trials.size());
    std::vector<MeasureCell> cells;
    for (std::size_t c = 0; c < trials.size(); ++c) {
      cells.push_back(MeasureCell{
          .engine =
              [&mutex, &seen, c] {
                return std::make_shared<const RecordingEngine>(mutex,
                                                               seen[c]);
              },
          .sizes = {nullptr, 2 + c},
          .trials = trials[c],
          .seed = channel::derive_stream_seed(31, c),
          .max_rounds = 50 + c});
    }
    const auto results = measure_cells(cells, threads);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::vector<std::size_t> handed(trials[c]);
      for (const RecordingEngine::Block& block : seen[c]) {
        EXPECT_EQ(block.seed, cells[c].seed) << "cell " << c;
        EXPECT_EQ(block.max_rounds, cells[c].max_rounds) << "cell " << c;
        EXPECT_EQ(block.fixed_k, cells[c].sizes.fixed_k) << "cell " << c;
        ASSERT_LE(block.first_trial + block.size, trials[c])
            << "cell " << c << " threads " << threads;
        for (std::size_t t = 0; t < block.size; ++t) {
          ++handed[block.first_trial + t];
        }
      }
      for (std::size_t t = 0; t < trials[c]; ++t) {
        ASSERT_EQ(handed[t], 1u)
            << "cell " << c << " trial " << t << " threads " << threads;
      }
      EXPECT_EQ(results[c].trials, trials[c]);
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

/// Sleeps `delay` per block, then solves trial t in (t % 7) + 1 rounds:
/// cells of unequal cost, so later cells close before earlier ones.
class DelayEngine final : public channel::Engine {
 public:
  explicit DelayEngine(std::chrono::milliseconds delay) : delay_(delay) {}
  void run_many(channel::TrialBlock& block) const override {
    std::this_thread::sleep_for(delay_);
    for (std::size_t t = 0; t < block.size(); ++t) {
      block.solved[t] = 1;
      block.rounds[t] = (block.first_trial + t) % 7 + 1;
    }
  }

 private:
  std::chrono::milliseconds delay_;
};

/// 12 cells whose per-block delays (0-12 ms) and block counts vary, so
/// on a pool they close out of cell order.
std::vector<MeasureCell> uneven_cells() {
  constexpr std::size_t kCells = 12;
  std::vector<MeasureCell> cells;
  for (std::size_t c = 0; c < kCells; ++c) {
    const std::chrono::milliseconds delay((kCells - c) % 5 * 3);
    cells.push_back(MeasureCell{
        .engine = [delay] { return std::make_shared<DelayEngine>(delay); },
        .sizes = {nullptr, 3},
        .trials = (c % 3 + 1) * kTrialBlockSize - c,
        .seed = c});
  }
  return cells;
}

TEST(MeasureCells, DeliversEveryResultOnceInCellOrder) {
  for (const std::size_t threads : {1ul, 2ul, 8ul}) {
    const auto cells = uneven_cells();
    std::vector<std::size_t> order;
    std::vector<Measurement> delivered;
    std::atomic<int> inside{0};
    int max_inside = 0;
    const auto results = measure_cells(
        cells, threads, [&](std::size_t c, const Measurement& measurement) {
          max_inside = std::max(max_inside, ++inside);
          order.push_back(c);
          delivered.push_back(measurement);
          --inside;
        });
    EXPECT_EQ(max_inside, 1) << "threads " << threads;
    ASSERT_EQ(order.size(), cells.size()) << "threads " << threads;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      EXPECT_EQ(order[c], c) << "threads " << threads;
      expect_identical(delivered[c], results[c]);
    }
  }
}

TEST(MeasureCells, ThrowingCallbackStopsDeliveryAndRethrows) {
  for (const std::size_t threads : {1ul, 2ul, 8ul}) {
    for (const std::size_t throw_at : {0ul, 5ul, 11ul}) {
      const auto cells = uneven_cells();
      std::vector<std::size_t> order;
      EXPECT_THROW(measure_cells(cells, threads,
                                 [&](std::size_t c, const Measurement&) {
                                   order.push_back(c);
                                   if (c == throw_at) {
                                     throw std::runtime_error("callback");
                                   }
                                 }),
                   std::runtime_error);
      // Cells 0..throw_at, each exactly once, and nothing after.
      ASSERT_EQ(order.size(), throw_at + 1) << "threads " << threads;
      for (std::size_t c = 0; c <= throw_at; ++c) EXPECT_EQ(order[c], c);
    }
  }
}

TEST(MeasureCells, ZeroTrialCellsNeedNoBlocks) {
  ProbeEngine::Shared shared;
  for (const std::size_t threads : {1ul, 4ul}) {
    const ProbeEngine engine(shared, kNeverThrow);
    const auto none =
        measure_blocks(engine, {nullptr, 3}, 0, 1, {.threads = threads});
    EXPECT_EQ(none.trials, 0u);
    EXPECT_EQ(none.success_rate, 0.0);
    EXPECT_TRUE(none.histogram.empty());
  }
}

}  // namespace
}  // namespace crp::harness
