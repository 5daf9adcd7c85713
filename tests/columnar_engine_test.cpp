// The columnar engine layer (channel/engine.h) vs the scalar
// simulators it drives:
//  * each of the three no-CD engines and the CD adapter, run on one
//    TrialBlock, must fill trial t's columns exactly as its scalar
//    simulator does on trial t's derived stream — same streams, same
//    draw order, element by element;
//  * the block partition must be invisible: any thread count, and any
//    trial count relative to the block size, gives identical results;
//  * regression: the measure_* helpers preserve the published
//    fixed-seed statistics (golden values captured from the original
//    scalar measurement stack).
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "baselines/willard.h"
#include "channel/batch.h"
#include "channel/engine.h"
#include "channel/rng.h"
#include "channel/simulator.h"
#include "core/advice_deterministic.h"
#include "core/likelihood_schedule.h"
#include "harness/measure.h"
#include "harness/parallel.h"
#include "info/distribution.h"
#include "predict/families.h"

namespace crp::harness {
namespace {

void expect_identical(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_TRUE(a.histogram == b.histogram);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.rounds.mean, b.rounds.mean);
  EXPECT_EQ(a.rounds.p50, b.rounds.p50);
  EXPECT_EQ(a.rounds.p90, b.rounds.p90);
  EXPECT_EQ(a.rounds.p99, b.rounds.p99);
  EXPECT_EQ(a.rounds.max, b.rounds.max);
}

info::SizeDistribution table1_sizes(std::size_t n) {
  const auto condensed =
      predict::uniform_over_ranges(info::num_ranges(n), 6);
  return predict::lift(condensed, n,
                       predict::RangePlacement::kHighEndpoint);
}

/// The result columns of one block of `trials` trials from trial 0.
struct Columns {
  std::vector<std::uint8_t> solved;
  std::vector<std::uint64_t> rounds;
};

Columns run_one_block(const channel::Engine& engine,
                      channel::SizeSource sizes, std::size_t trials,
                      std::uint64_t seed, std::size_t max_rounds) {
  Columns columns{std::vector<std::uint8_t>(trials),
                  std::vector<std::uint64_t>(trials)};
  channel::TrialBlock block{.seed = seed,
                            .first_trial = 0,
                            .max_rounds = max_rounds,
                            .sizes = sizes,
                            .solved = columns.solved,
                            .rounds = columns.rounds};
  engine.run_many(block);
  return columns;
}

void expect_trial(const Columns& columns, std::size_t t,
                  const channel::RunResult& run) {
  EXPECT_EQ(columns.solved[t], run.solved ? 1 : 0) << "trial " << t;
  EXPECT_EQ(columns.rounds[t], run.rounds) << "trial " << t;
}

TEST(ColumnarEngine, BatchMatchesScalarSamplerLoop) {
  // Scalar reference: one SplitMix64 stream per trial, one draw for k,
  // one for the solve round.
  constexpr std::size_t n = 1 << 12;
  constexpr std::size_t kTrials = 5000;
  constexpr std::uint64_t kSeed = 404;
  const auto actual = table1_sizes(n);
  const auto condensed = actual.condense();
  const core::LikelihoodOrderedSchedule schedule(condensed);

  const channel::BatchColumnarEngine engine(schedule);
  const auto columns =
      run_one_block(engine, {&actual, 0}, kTrials, kSeed, 1 << 14);
  const channel::BatchNoCdSampler sampler(schedule);
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto rng = channel::derive_fast_rng(kSeed, t);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const std::size_t k = actual.sample_at(unit(rng));
    expect_trial(columns, t, sampler.sample(k, rng, 1 << 14));
  }
}

TEST(ColumnarEngine, BinomialMatchesScalarTrialLoop) {
  constexpr std::size_t n = 1 << 10;
  constexpr std::size_t kTrials = 3000;
  constexpr std::uint64_t kSeed = 405;
  const auto actual = table1_sizes(n);
  const baselines::DecaySchedule decay(n);

  const channel::BinomialColumnarEngine engine(decay);
  const auto columns =
      run_one_block(engine, {&actual, 0}, kTrials, kSeed, 1 << 14);
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto rng = channel::derive_rng(kSeed, t);
    const std::size_t k = actual.sample(rng);
    expect_trial(columns, t,
                 channel::run_uniform_no_cd(decay, k, rng,
                                            {.max_rounds = 1 << 14}));
  }
}

TEST(ColumnarEngine, PerPlayerMatchesScalarTrialLoop) {
  constexpr std::size_t n = 1 << 8;
  constexpr std::size_t kTrials = 1500;
  constexpr std::uint64_t kSeed = 406;
  const baselines::DecaySchedule decay(n);

  const channel::PerPlayerColumnarEngine engine(decay);
  const auto columns =
      run_one_block(engine, {nullptr, 50}, kTrials, kSeed, 1 << 14);
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto rng = channel::derive_rng(kSeed, t);
    expect_trial(columns, t,
                 channel::run_uniform_no_cd_per_player(
                     decay, 50, rng, {.max_rounds = 1 << 14}));
  }
}

TEST(ColumnarEngine, CdAdapterMatchesScalarTrialLoop) {
  constexpr std::size_t n = 1 << 10;
  constexpr std::size_t kTrials = 2000;
  constexpr std::uint64_t kSeed = 407;
  const auto actual = table1_sizes(n);
  const baselines::WillardPolicy willard(n);

  const channel::CollisionPolicyColumnarEngine engine(willard);
  const auto columns =
      run_one_block(engine, {&actual, 0}, kTrials, kSeed, 1 << 12);
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto rng = channel::derive_rng(kSeed, t);
    const std::size_t k = actual.sample(rng);
    expect_trial(columns, t,
                 channel::run_uniform_cd(willard, k, rng,
                                         {.max_rounds = 1 << 12}));
  }
}

TEST(ColumnarEngine, BlockPartitionIsInvisible) {
  // Numbers of trials straddling the block size, at several thread counts:
  // all must agree with the single-thread run (which itself visits
  // blocks in order).
  const baselines::DecaySchedule decay(1 << 10);
  const auto actual = table1_sizes(1 << 10);
  for (const std::size_t trials :
       {kTrialBlockSize - 1, kTrialBlockSize, 3 * kTrialBlockSize + 17}) {
    const MeasureOptions serial{.max_rounds = 1 << 14, .threads = 1};
    const auto reference =
        measure_uniform_no_cd(decay, actual, trials, 99, serial);
    for (const std::size_t threads : {2ul, 8ul}) {
      MeasureOptions pooled = serial;
      pooled.threads = threads;
      expect_identical(
          reference,
          measure_uniform_no_cd(decay, actual, trials, 99, pooled));
    }
  }
}

TEST(ColumnarEngine, CustomEngineThroughMeasureBlocks) {
  // measure_blocks is a public extension point: a custom engine only
  // fills columns, and the fold counts every trial it fills.
  class EveryThirdSolves final : public channel::Engine {
   public:
    void run_many(channel::TrialBlock& block) const override {
      for (std::size_t t = 0; t < block.size(); ++t) {
        const std::size_t global = block.first_trial + t;
        block.solved[t] = global % 3 == 0 ? 1 : 0;
        block.rounds[t] = global % 3 == 0 ? global + 1 : block.max_rounds;
      }
    }
  };
  const EveryThirdSolves engine;
  const auto m =
      measure_blocks(engine, channel::SizeSource{nullptr, 2}, 10, 0,
                     MeasureOptions{.threads = 1});
  EXPECT_EQ(m.trials, 10u);
  EXPECT_DOUBLE_EQ(m.success_rate, 0.4);
  // Trials 0, 3, 6, 9 solve in rounds 1, 4, 7, 10.
  RoundHistogram expected;
  for (const std::uint64_t round : {1, 4, 7, 10}) expected.add_solved(round);
  for (int unsolved = 0; unsolved < 6; ++unsolved) expected.add_unsolved();
  EXPECT_TRUE(m.histogram == expected);
}

TEST(ColumnarEngine, RejectsDegenerateBlocks) {
  const baselines::DecaySchedule decay(256);
  const channel::BatchColumnarEngine engine(decay);
  EXPECT_THROW(measure_blocks(engine, channel::SizeSource{nullptr, 0}, 10,
                              0, MeasureOptions{}),
               std::invalid_argument);
}

// ---- Golden statistics -------------------------------------------
//
// Captured from the original scalar measurement stack at fixed seeds
// before the columnar refactor. The measure_* helpers must keep
// reproducing them bit for bit: every engine derives the same
// per-trial streams and consumes draws in the same order as the
// scalar loops did. The goldens were captured from a sample-vector
// fold; the histogram fold reproduces the same count/mean/quantiles
// (tests/accumulator_test.cpp), and the sum of the solved rounds reads
// exactly off the histogram.

double sample_sum(const Measurement& m) {
  double sum = 0.0;
  const auto counts = m.histogram.counts();
  for (std::size_t r = 0; r < counts.size(); ++r) {
    sum += static_cast<double>(r) * static_cast<double>(counts[r]);
  }
  return sum;
}

TEST(ColumnarEngine, GoldenBatchDrawnSizes) {
  constexpr std::size_t n = 1 << 12;
  const auto condensed =
      predict::uniform_over_ranges(info::num_ranges(n), 6);
  const auto actual =
      predict::lift(condensed, n, predict::RangePlacement::kHighEndpoint);
  const core::LikelihoodOrderedSchedule schedule(condensed);
  const auto m = measure_uniform_no_cd(
      schedule, actual, 4000, 2021,
      MeasureOptions{.max_rounds = 1 << 14,
                     .threads = 1,
                     .engine = NoCdEngine::kBatch});
  EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
  EXPECT_DOUBLE_EQ(m.rounds.mean, 6.3362499999999997);
  EXPECT_DOUBLE_EQ(m.rounds.p50, 4.0);
  EXPECT_DOUBLE_EQ(m.rounds.p90, 15.099999999999909);
  EXPECT_DOUBLE_EQ(m.rounds.max, 74.0);
  EXPECT_DOUBLE_EQ(sample_sum(m), 25345.0);
}

TEST(ColumnarEngine, GoldenBatchFixedK) {
  const baselines::DecaySchedule decay(1 << 12);
  const auto m = measure_uniform_no_cd_fixed_k(
      decay, 100, 4000, 2022,
      MeasureOptions{.max_rounds = 1 << 14,
                     .threads = 1,
                     .engine = NoCdEngine::kBatch});
  EXPECT_DOUBLE_EQ(m.rounds.mean, 10.655250000000001);
  EXPECT_DOUBLE_EQ(sample_sum(m), 42621.0);
}

TEST(ColumnarEngine, GoldenBinomialDrawnSizes) {
  constexpr std::size_t n = 1 << 12;
  const auto condensed =
      predict::uniform_over_ranges(info::num_ranges(n), 6);
  const auto actual =
      predict::lift(condensed, n, predict::RangePlacement::kHighEndpoint);
  const core::LikelihoodOrderedSchedule schedule(condensed);
  const auto m = measure_uniform_no_cd(
      schedule, actual, 2000, 2023,
      MeasureOptions{.max_rounds = 1 << 14,
                     .threads = 1,
                     .engine = NoCdEngine::kBinomial});
  EXPECT_DOUBLE_EQ(m.rounds.mean, 6.3685);
  EXPECT_DOUBLE_EQ(sample_sum(m), 12737.0);
}

TEST(ColumnarEngine, GoldenCdPaths) {
  constexpr std::size_t n = 1 << 12;
  const auto actual = table1_sizes(n);
  const baselines::WillardPolicy willard(n);
  const MeasureOptions options{.max_rounds = 1 << 14, .threads = 1};
  const auto drawn =
      measure_uniform_cd(willard, actual, 2000, 2025, options);
  EXPECT_DOUBLE_EQ(drawn.rounds.mean, 4.1935000000000002);
  EXPECT_DOUBLE_EQ(sample_sum(drawn), 8387.0);
  const auto fixed =
      measure_uniform_cd_fixed_k(willard, 60, 2000, 2026, options);
  EXPECT_DOUBLE_EQ(fixed.rounds.mean, 4.2394999999999996);
  EXPECT_DOUBLE_EQ(sample_sum(fixed), 8479.0);
}

TEST(ColumnarEngine, GoldenDeterministicAdvice) {
  constexpr std::size_t n = 1 << 8;
  const core::SubtreeScanProtocol scan(n, 3);
  const core::MinIdPrefixAdvice advice(n, 3);
  const auto sizes = info::SizeDistribution::uniform(32);
  const auto m = measure_deterministic_advice(
      scan, advice, sizes, n, false, 1000, 2027,
      MeasureOptions{.max_rounds = 8 << 8, .threads = 1});
  EXPECT_DOUBLE_EQ(m.rounds.mean, 11.145);
  EXPECT_DOUBLE_EQ(sample_sum(m), 11145.0);

  const double wc = worst_case_deterministic_rounds(scan, advice, n, 4,
                                                    false, 200, 2028,
                                                    {.max_rounds = 8 << 8});
  EXPECT_DOUBLE_EQ(wc, 32.0);
}

}  // namespace
}  // namespace crp::harness
