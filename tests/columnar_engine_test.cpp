// The columnar engine layer (channel/engine.h) vs the scalar
// simulators it drives:
//  * each of the three no-CD engines and the CD adapter, run on one
//    TrialBlock, must fill trial t's columns exactly as its scalar
//    simulator does on trial t's derived stream — same streams, same
//    draw order, element by element. The CD adapter shares a memo
//    (history trie, Binomial parameters) across its block and seeds
//    its streams in lanes, so it is held to the plain per-trial loop
//    over policies that stress each (zero-mass classes, more distinct
//    probabilities than the per-trial cache keeps, exactly 0 and 1,
//    histories past the trie's node bound) at ragged block lengths;
//  * the block partition must be invisible: any thread count, and any
//    trial count relative to the block size, gives identical results;
//  * group_by_slot must equal a stable sort by support slot, and a
//    worker's reused BlockScratch must leave every block's columns
//    as a fresh scratch would;
//  * regression: the measure_* helpers preserve the published
//    fixed-seed statistics (golden values captured from the original
//    scalar measurement stack).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "baselines/willard.h"
#include "channel/batch.h"
#include "channel/engine.h"
#include "channel/history_engine.h"
#include "channel/kernels/kernels.h"
#include "channel/rng.h"
#include "channel/simulator.h"
#include "core/advice_deterministic.h"
#include "core/coded_search.h"
#include "core/likelihood_schedule.h"
#include "harness/measure.h"
#include "harness/parallel.h"
#include "info/distribution.h"
#include "predict/families.h"

#include "test_support.h"

namespace crp::harness {
namespace {

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
                      std::uint64_t seed, std::size_t max_rounds,
                      std::size_t first_trial = 0,
                      channel::BlockScratch* scratch = nullptr) {
  Columns columns{std::vector<std::uint8_t>(trials),
                  std::vector<std::uint64_t>(trials)};
  channel::TrialBlock block{.seed = seed,
                            .first_trial = first_trial,
                            .max_rounds = max_rounds,
                            .sizes = sizes,
                            .solved = columns.solved,
                            .rounds = columns.rounds,
                            .scratch = scratch};
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

/// Asks for 0.08 + 0.0001 * (len % 80) after a history of length len:
/// 80 distinct probabilities, more than the 64 a trial's
/// TransmitterSampler keeps, each revisited every 80 rounds, so long
/// trials take its fresh-distribution path. At k = 100 every round
/// takes libstdc++'s rejection path (k p >= 8), where a kept
/// distribution's saved normal draw makes it draw differently from a
/// fresh one, and a trial solves with probability 1/1000 to 1/500 a
/// round, so most trials at a 2048-round budget solve, late.
/// With many drawn k it also fills the block's Binomial parameter
/// table.
/// The state is the history's length mod 80.
class ManyProbabilities final : public channel::CollisionPolicy {
 public:
  State initial_state() const override { return 0; }
  State next_state(State state, bool) const override {
    return (state + 1) % 80;
  }
  double probability_at(State state) const override {
    return 0.08 + 0.0001 * static_cast<double>(state);
  }
  std::string name() const override { return "many-probabilities"; }
};

/// Emits exactly 0 and 1 as well as 0.3: the sampler's special cases.
/// The state is 2 * (history length mod 3) + (last round collided).
class ZeroOneThird final : public channel::CollisionPolicy {
 public:
  State initial_state() const override { return 0; }
  State next_state(State state, bool collided) const override {
    return 2 * ((state / 2 + 1) % 3) + (collided ? 1 : 0);
  }
  double probability_at(State state) const override {
    switch (state / 2) {
      case 0:
        return 0.0;
      case 1:
        return state % 2 != 0 ? 0.3 : 1.0;
      default:
        return 0.3;
    }
  }
  std::string name() const override { return "zero-one-third"; }
};

/// Never transmits: every trial runs to the budget, one history deep.
class NeverTransmits final : public channel::CollisionPolicy {
 public:
  State initial_state() const override { return 0; }
  State next_state(State, bool) const override { return 0; }
  double probability_at(State) const override { return 0.0; }
  std::string name() const override { return "never"; }
};

/// Every trial of `count` from `first` equals the per-trial
/// run_uniform_cd loop (a fresh memo per trial) on its derived stream.
void expect_cd_block_matches_loop(const channel::CollisionPolicy& policy,
                                  channel::SizeSource sizes,
                                  std::size_t first, std::size_t count,
                                  std::size_t max_rounds) {
  constexpr std::uint64_t kSeed = 408;
  const channel::CollisionPolicyColumnarEngine engine(policy);
  const auto columns =
      run_one_block(engine, sizes, count, kSeed, max_rounds, first);
  for (std::size_t t = 0; t < count; ++t) {
    auto rng = channel::derive_rng(kSeed, first + t);
    const std::size_t k =
        sizes.distribution ? sizes.distribution->sample(rng) : sizes.fixed_k;
    const auto run =
        channel::run_uniform_cd(policy, k, rng, {.max_rounds = max_rounds});
    ASSERT_EQ(columns.solved[t], run.solved ? 1 : 0)
        << policy.name() << " trial " << first + t << " of " << count;
    ASSERT_EQ(columns.rounds[t], run.rounds)
        << policy.name() << " trial " << first + t << " of " << count;
  }
}

TEST(ColumnarEngine, CdAdapterMatchesScalarTrialLoop) {
  constexpr std::size_t kTrials = 2000;
  constexpr std::uint64_t kSeed = 407;
  const auto actual = table1_sizes(1 << 10);
  const baselines::WillardPolicy willard(1 << 10);

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

  // The block-scoped memo and lane seeding over every policy shape,
  // at block lengths around the lane width and the block size, from
  // trial 0 and from a far-off first trial.
  constexpr std::size_t n = 1 << 16;
  const std::size_t ranges = info::num_ranges(n);
  // A Table 1 point (full support), and a prediction on 2 of the 16
  // ranges, whose code puts the other 14 in classes of zero mass.
  const auto full = predict::uniform_over_ranges(ranges, ranges);
  const auto narrow = predict::uniform_over_ranges(ranges, 2);
  const core::CodedSearchPolicy table1_point(full);
  const core::CodedSearchPolicy zero_mass(narrow);
  bool has_zero_mass_class = false;
  for (const auto& cls : zero_mass.classes()) {
    double mass = 0.0;
    for (const std::size_t r : cls) mass += narrow.prob(r);
    has_zero_mass_class = has_zero_mass_class || mass == 0.0;
  }
  ASSERT_TRUE(has_zero_mass_class);
  const ManyProbabilities many;
  const ZeroOneThird zero_one;

  const auto lifted = predict::lift(full, n,
                                    predict::RangePlacement::kHighEndpoint);
  const auto small = info::SizeDistribution::uniform(64);
  struct Case {
    const channel::CollisionPolicy* policy;
    channel::SizeSource sizes;
    std::size_t max_rounds;
  };
  const std::vector<Case> cases = {
      {&table1_point, {&lifted, 0}, 1 << 14},
      {&table1_point, {nullptr, 700}, 1 << 14},
      {&zero_mass, {&lifted, 0}, 1 << 14},
      {&zero_mass, {nullptr, 3}, 1 << 14},
      {&many, {&small, 0}, 1024},
      {&many, {nullptr, 100}, 2048},
      {&zero_one, {&small, 0}, 512},
      {&zero_one, {nullptr, 1}, 512},
      {&zero_one, {nullptr, 5}, 512},
  };
  for (const Case& c : cases) {
    for (const std::size_t count : {1ul, 7ul, 8ul, 9ul, 1025ul}) {
      expect_cd_block_matches_loop(*c.policy, c.sizes, 0, count,
                                   c.max_rounds);
      expect_cd_block_matches_loop(*c.policy, c.sizes, 987654321, count,
                                   c.max_rounds);
    }
  }
}

TEST(ColumnarEngine, CdMemoStaysWithinItsBounds) {
  // The loop steps the policy's state in constant time per round: a
  // never-solving policy at a 2^16 budget runs each trial to the
  // budget and ends exactly as the plain loop does.
  constexpr std::size_t kBudget = 1 << 16;
  const NeverTransmits never;
  expect_cd_block_matches_loop(never, {nullptr, 4}, 5, 9, kBudget);
  channel::CdRunMemo memo(never);
  channel::Rng rng(1);
  for (int trial = 0; trial < 3; ++trial) {
    const auto run = channel::run_uniform_cd(memo, 4, rng,
                                             {.max_rounds = kBudget});
    EXPECT_FALSE(run.solved);
    EXPECT_EQ(run.rounds, kBudget);
  }
  EXPECT_EQ(memo.binomial_params(), 0u);  // p = 0 never builds one

  // More (k, p) pairs than the parameter table keeps: it stops at its
  // bound, and the trials past it still match the plain loop.
  const ManyProbabilities many;
  const auto wide = info::SizeDistribution::uniform(4096);
  channel::CdRunMemo shared(many);
  for (std::size_t t = 0; t < 400; ++t) {
    if (t == 1) {
      EXPECT_EQ(shared.binomial_params(), 0u);
    }
    auto memo_rng = channel::derive_rng(9, t);
    auto plain_rng = channel::derive_rng(9, t);
    const std::size_t k = wide.sample(memo_rng);
    wide.sample(plain_rng);
    const auto memoized =
        channel::run_uniform_cd(shared, k, memo_rng, {.max_rounds = 256});
    const auto plain =
        channel::run_uniform_cd(many, k, plain_rng, {.max_rounds = 256});
    ASSERT_EQ(memoized.solved, plain.solved) << "trial " << t;
    ASSERT_EQ(memoized.rounds, plain.rounds) << "trial " << t;
    ASSERT_TRUE(memo_rng == plain_rng) << "trial " << t;
  }
  EXPECT_EQ(shared.binomial_params(),
            channel::BinomialParamCache::kMaxEntries);
}

TEST(ColumnarEngine, CdMemoKeepsTraceAndInvalidProbabilities) {
  // A trace from a warm memo records the rounds a fresh one does, and
  // an invalid probability throws on every trial that reaches it, as
  // it does in the plain loop.
  const core::CodedSearchPolicy policy(
      predict::uniform_over_ranges(info::num_ranges(1 << 10), 4));
  channel::CdRunMemo memo(policy);
  for (std::size_t t = 0; t < 50; ++t) {
    channel::ExecutionTrace warm;
    channel::ExecutionTrace fresh;
    auto warm_rng = channel::derive_rng(3, t);
    auto fresh_rng = channel::derive_rng(3, t);
    channel::run_uniform_cd(memo, 300, warm_rng,
                            {.max_rounds = 1 << 10, .trace = &warm});
    channel::run_uniform_cd(policy, 300, fresh_rng,
                            {.max_rounds = 1 << 10, .trace = &fresh});
    ASSERT_EQ(warm.size(), fresh.size()) << "trial " << t;
    for (std::size_t r = 0; r < warm.size(); ++r) {
      EXPECT_EQ(warm[r].probability, fresh[r].probability);
      EXPECT_EQ(warm[r].transmitters, fresh[r].transmitters);
      EXPECT_EQ(warm[r].feedback, fresh[r].feedback);
    }
  }

  // The state is the history's length, capped at 3.
  class NanAtDepthTwo final : public channel::CollisionPolicy {
   public:
    State initial_state() const override { return 0; }
    State next_state(State state, bool) const override {
      return std::min<State>(state + 1, 3);
    }
    double probability_at(State state) const override {
      return state == 2 ? std::numeric_limits<double>::quiet_NaN() : 1.0;
    }
    std::string name() const override { return "nan-at-2"; }
  };
  const NanAtDepthTwo nan_policy;
  channel::CdRunMemo nan_memo(nan_policy);
  channel::Rng rng(5);
  for (int trial = 0; trial < 3; ++trial) {
    EXPECT_THROW(channel::run_uniform_cd(nan_memo, 2, rng),
                 std::invalid_argument);
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

TEST(ColumnarEngine, GroupBySlotMatchesAStableSort) {
  // Supports on both sides of the short-table bound (which also picks
  // the split counting histogram), ties between draws and entries,
  // and ragged counts, all through one reused scratch.
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  channel::BlockScratch scratch;
  for (const std::size_t entries :
       {1ul, 2ul, 5ul, 16ul, 22ul, channel::kernels::kShortTable,
        channel::kernels::kShortTable + 1, 300ul}) {
    std::vector<double> cumulative(entries);
    for (auto& c : cumulative) c = unit(rng);
    std::sort(cumulative.begin(), cumulative.end());
    if (entries >= 3) cumulative[1] = cumulative[0];  // a tie
    cumulative.back() = 1.0;
    for (const std::size_t count : {0ul, 1ul, 17ul, 1024ul, 1031ul}) {
      std::vector<double> uk(count), u(count);
      for (std::size_t t = 0; t < count; ++t) {
        uk[t] = t % 3 == 0 ? cumulative[rng() % entries] : unit(rng);
        if (uk[t] >= 1.0) uk[t] = 0.0;
        u[t] = unit(rng);
      }
      channel::group_by_slot(cumulative, uk, u, scratch);

      std::vector<std::size_t> slot(count);
      for (std::size_t t = 0; t < count; ++t) {
        slot[t] = static_cast<std::size_t>(
            std::lower_bound(cumulative.begin(), cumulative.end(), uk[t]) -
            cumulative.begin());
      }
      std::vector<std::uint32_t> order(count);
      std::iota(order.begin(), order.end(), 0u);
      std::stable_sort(order.begin(), order.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return slot[a] < slot[b];
                       });
      const std::string where = "entries " + std::to_string(entries) +
                                " count " + std::to_string(count);
      ASSERT_EQ(std::vector<std::uint32_t>(scratch.order.begin(),
                                           scratch.order.begin() + count),
                order)
          << where;
      for (std::size_t s = 0; s <= entries; ++s) {
        const auto before = static_cast<std::size_t>(
            std::count_if(slot.begin(), slot.end(),
                          [s](std::size_t v) { return v < s; }));
        EXPECT_EQ(scratch.start[s], before) << where << " slot " << s;
      }
      for (std::size_t j = 0; j < count; ++j) {
        EXPECT_EQ(scratch.grouped[j], u[order[j]]) << where;
      }
    }
  }
}

TEST(ColumnarEngine, ReusedScratchMatchesFreshRuns) {
  // One worker's scratch through a large drawn-size block, a small
  // fixed-k block, a different (short) distribution and back: every
  // block's columns must equal a run with scratch of its own.
  constexpr std::size_t kBudget = 1 << 12;
  const auto wide = info::SizeDistribution::uniform(200);  // 199 slots
  const auto narrow = table1_sizes(1 << 10);
  const baselines::DecaySchedule decay(1 << 10);
  const baselines::WillardPolicy willard(1 << 10);
  const channel::BatchColumnarEngine batch(decay);
  const channel::HistoryTreeEngine tree(willard);
  struct Step {
    channel::SizeSource sizes;
    std::size_t trials;
  };
  const Step steps[] = {{{&wide, 0}, 3000},   {{nullptr, 7}, 37},
                        {{&narrow, 0}, 1024}, {{&wide, 0}, 5},
                        {{nullptr, 300}, 40}, {{&narrow, 0}, 17}};
  for (const channel::Engine* engine :
       {static_cast<const channel::Engine*>(&batch),
        static_cast<const channel::Engine*>(&tree)}) {
    channel::BlockScratch scratch;
    std::size_t first = 0;
    for (const Step& step : steps) {
      const auto reused = run_one_block(*engine, step.sizes, step.trials, 61,
                                        kBudget, first, &scratch);
      const auto fresh =
          run_one_block(*engine, step.sizes, step.trials, 61, kBudget, first);
      EXPECT_EQ(reused.solved, fresh.solved) << "first trial " << first;
      EXPECT_EQ(reused.rounds, fresh.rounds) << "first trial " << first;
      first += step.trials;
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
