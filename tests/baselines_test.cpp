#include <cmath>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "baselines/simple.h"
#include "baselines/willard.h"
#include "channel/rng.h"
#include "channel/simulator.h"
#include "harness/measure.h"
#include "info/distribution.h"

namespace crp::baselines {
namespace {

TEST(Decay, SweepsGeometricProbabilities) {
  const DecaySchedule decay(1024);  // 10 ranges -> sweep length 11
  EXPECT_EQ(decay.sweep_length(), 11u);
  EXPECT_DOUBLE_EQ(decay.probability(0), 1.0);
  EXPECT_DOUBLE_EQ(decay.probability(1), 0.5);
  EXPECT_DOUBLE_EQ(decay.probability(10), std::exp2(-10.0));
  EXPECT_DOUBLE_EQ(decay.probability(11), 1.0);  // next sweep restarts
}

TEST(Decay, ReverseSweepMirrorsForward) {
  const DecaySchedule forward(256);
  const ReverseDecaySchedule backward(256);
  const std::size_t sweep = forward.sweep_length();
  for (std::size_t r = 0; r < sweep; ++r) {
    EXPECT_DOUBLE_EQ(forward.probability(r),
                     backward.probability(sweep - 1 - r));
  }
}

TEST(Decay, SolvesAllSizesWithinExpectedLogBound) {
  constexpr std::size_t n = 1 << 12;
  const DecaySchedule decay(n);
  for (std::size_t k : {2ul, 5ul, 37ul, 512ul, 4095ul}) {
    const auto m = harness::measure_uniform_no_cd_fixed_k(
        decay, k, 3000, /*seed=*/17,
        {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
    EXPECT_DOUBLE_EQ(m.success_rate, 1.0) << "k=" << k;
    // One sweep is 13 rounds; expected rounds should be a small
    // multiple of the sweep length regardless of k.
    EXPECT_LT(m.rounds.mean, 6.0 * (info::num_ranges(n) + 1)) << "k=" << k;
  }
}

TEST(Decay, ExpectedRoundsGrowLogarithmically) {
  // Doubling n^2 -> mean rounds roughly scales with log n: compare a
  // small and a large network at worst-case k ~ n.
  const DecaySchedule small(1 << 6);
  const DecaySchedule large(1 << 12);
  const auto m_small = harness::measure_uniform_no_cd_fixed_k(
      small, (1 << 6) - 1, 4000, 3,
      {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
  const auto m_large = harness::measure_uniform_no_cd_fixed_k(
      large, (1 << 12) - 1, 4000, 3,
      {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
  const double ratio = m_large.rounds.mean / m_small.rounds.mean;
  // log scaling predicts roughly 13/7 ~ 1.9; allow generous slack but
  // reject linear scaling (which would be ~64x).
  EXPECT_GT(ratio, 1.2);
  EXPECT_LT(ratio, 4.0);
}

TEST(Willard, ProbabilityReplayIsConsistent) {
  const WillardPolicy willard(1 << 16);  // 16 ranges
  // Empty history: mid of [1,16] = 8.
  EXPECT_DOUBLE_EQ(willard.probability({}), std::exp2(-8.0));
  // Collision: k larger than 2^8 -> [9,16], mid 12.
  EXPECT_DOUBLE_EQ(willard.probability({true}), std::exp2(-12.0));
  // Silence: [1,7], mid 4.
  EXPECT_DOUBLE_EQ(willard.probability({false}), std::exp2(-4.0));
}

TEST(Willard, SolvesAllSizesInLogLogTime) {
  constexpr std::size_t n = 1 << 16;
  const WillardPolicy willard(n);
  for (std::size_t k : {2ul, 100ul, 5000ul, 60000ul}) {
    const auto m = harness::measure_uniform_cd_fixed_k(
        willard, k, 3000, /*seed=*/29, {.max_rounds = 1 << 14});
    EXPECT_DOUBLE_EQ(m.success_rate, 1.0) << "k=" << k;
    // log log n = 4; expect a small multiple.
    EXPECT_LT(m.rounds.mean, 40.0) << "k=" << k;
  }
}

TEST(Willard, BeatsDecayForLargeNetworks) {
  constexpr std::size_t n = 1 << 16;
  constexpr std::size_t k = 40000;
  const WillardPolicy willard(n);
  const DecaySchedule decay(n);
  const auto m_willard =
      harness::measure_uniform_cd_fixed_k(willard, k, 4000, 31,
                                          {.max_rounds = 1 << 14});
  const auto m_decay = harness::measure_uniform_no_cd_fixed_k(
      decay, k, 4000, 31,
      {.max_rounds = 1 << 14, .engine = harness::NoCdEngine::kBinomial});
  EXPECT_LT(m_willard.rounds.mean, m_decay.rounds.mean);
}

TEST(Willard, RepeatsReduceMisdirection) {
  const WillardPolicy base(1 << 16, 1);
  const WillardPolicy repeated(1 << 16, 3);
  // With repeats, the first probe persists for 3 rounds.
  EXPECT_DOUBLE_EQ(repeated.probability({}), base.probability({}));
  EXPECT_DOUBLE_EQ(repeated.probability({false}), base.probability({}));
  EXPECT_DOUBLE_EQ(repeated.probability({false, false}),
                   base.probability({}));
  EXPECT_DOUBLE_EQ(repeated.probability({false, false, false}),
                   base.probability({false}));
  // A collision anywhere in the group moves right.
  EXPECT_DOUBLE_EQ(repeated.probability({true, false, false}),
                   base.probability({true}));
}

TEST(FixedProbability, SucceedsInConstantRoundsGivenGoodEstimate) {
  for (std::size_t k : {4ul, 64ul, 1000ul}) {
    const auto schedule = FixedProbabilitySchedule::for_size_estimate(k);
    const auto m = harness::measure_uniform_no_cd_fixed_k(
        schedule, k, 5000, /*seed=*/41,
        {.max_rounds = 1 << 12, .engine = harness::NoCdEngine::kBinomial});
    EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
    EXPECT_LT(m.rounds.mean, 4.0) << "k=" << k;  // ~e rounds
  }
}

TEST(FixedProbability, DegradesWithBadEstimate) {
  // An 8x size underestimate: per-round success probability drops from
  // ~1/e to ~8 e^{-8}, so the mean grows by a factor of ~100.
  constexpr std::size_t k = 1024;
  const auto good = FixedProbabilitySchedule::for_size_estimate(k);
  const auto bad = FixedProbabilitySchedule::for_size_estimate(k / 8);
  const auto m_good =
      harness::measure_uniform_no_cd_fixed_k(
          good, k, 2000, 43,
          {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
  const auto m_bad =
      harness::measure_uniform_no_cd_fixed_k(
          bad, k, 500, 43,
          {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
  ASSERT_DOUBLE_EQ(m_bad.success_rate, 1.0);
  EXPECT_LT(m_good.rounds.mean * 20.0, m_bad.rounds.mean);
}

TEST(FixedProbability, ValidatesInput) {
  EXPECT_THROW(FixedProbabilitySchedule(-0.5), std::invalid_argument);
  EXPECT_THROW(FixedProbabilitySchedule(1.5), std::invalid_argument);
  EXPECT_THROW(FixedProbabilitySchedule::for_size_estimate(0),
               std::invalid_argument);
}

TEST(RoundRobin, WorstCaseIsLinear) {
  constexpr std::size_t n = 128;
  const RoundRobinProtocol protocol(n);
  const std::vector<std::size_t> participants{n - 1};
  const auto result =
      channel::run_deterministic(protocol, {}, participants, false);
  ASSERT_TRUE(result.solved);
  EXPECT_EQ(result.rounds, n);
}

TEST(TreeDescent, ExhaustiveTriplesResolveWithinLogPlusOne) {
  constexpr std::size_t n = 16;
  const TreeDescentProtocol protocol(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      for (std::size_t c = b + 1; c < n; ++c) {
        const std::vector<std::size_t> participants{a, b, c};
        const auto result = channel::run_deterministic(
            protocol, {}, participants, true, {.max_rounds = 32});
        ASSERT_TRUE(result.solved)
            << "{" << a << "," << b << "," << c << "}";
        EXPECT_LE(result.rounds, 5u);
      }
    }
  }
}

}  // namespace
}  // namespace crp::baselines
