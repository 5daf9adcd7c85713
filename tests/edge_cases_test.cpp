// Edge cases the happy-path tests don't reach: non-power-of-two
// network sizes (ragged id trees and range partitions), predictions
// with infinite divergence (zero mass on the true range), minimum-size
// networks, and extreme parameter corners.
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "baselines/willard.h"
#include "channel/rng.h"
#include "channel/simulator.h"
#include "core/advice.h"
#include "core/advice_deterministic.h"
#include "core/coded_search.h"
#include "core/likelihood_schedule.h"
#include "harness/measure.h"
#include "info/distribution.h"
#include "predict/families.h"

namespace crp {
namespace {

// ---- non-power-of-two network sizes ----

class RaggedNetwork : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RaggedNetwork, DecayAndWillardSolveEveryFeasibleSize) {
  const std::size_t n = GetParam();
  const baselines::DecaySchedule decay(n);
  const baselines::WillardPolicy willard(n);
  for (std::size_t k : {std::size_t{2}, (n + 2) / 2, n}) {
    const auto m_decay = harness::measure_uniform_no_cd_fixed_k(
        decay, k, 500, /*seed=*/1,
        {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
    EXPECT_DOUBLE_EQ(m_decay.success_rate, 1.0) << "n=" << n << " k=" << k;
    const auto m_willard = harness::measure_uniform_cd_fixed_k(
        willard, k, 500, /*seed=*/2, {.max_rounds = 1 << 14});
    EXPECT_DOUBLE_EQ(m_willard.success_rate, 1.0)
        << "n=" << n << " k=" << k;
  }
}

TEST_P(RaggedNetwork, PredictionAlgorithmsSolveUniformActuals) {
  const std::size_t n = GetParam();
  const auto actual = info::SizeDistribution::uniform(n);
  const auto condensed = actual.condense();
  const core::LikelihoodOrderedSchedule schedule(condensed);
  const core::CodedSearchPolicy policy(condensed);
  const auto m_no_cd = harness::measure_uniform_no_cd(
      schedule, actual, 500, /*seed=*/3,
      {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
  EXPECT_DOUBLE_EQ(m_no_cd.success_rate, 1.0) << "n=" << n;
  const auto m_cd = harness::measure_uniform_cd(policy, actual, 500, /*seed=*/4,
                                                {.max_rounds = 1 << 14});
  EXPECT_DOUBLE_EQ(m_cd.success_rate, 1.0) << "n=" << n;
}

TEST_P(RaggedNetwork, DeterministicAdviceProtocolsHandleRaggedIdTrees) {
  const std::size_t n = GetParam();
  const std::size_t height = core::id_tree_height(n);
  for (std::size_t b : {std::size_t{0}, std::size_t{1}, height / 2}) {
    const core::SubtreeScanProtocol scan(n, b);
    const core::TreeDescentCdProtocol descent(n, b);
    const core::MinIdPrefixAdvice advice(n, b);
    auto rng = channel::make_rng(5 + n + b);
    for (int trial = 0; trial < 30; ++trial) {
      const std::size_t k =
          std::min<std::size_t>(n, 2 + static_cast<std::size_t>(rng() % 7));
      const auto participants = harness::random_participant_set(n, k, rng);
      const auto bits = advice.advise(participants);
      const auto scan_result = channel::run_deterministic(
          scan, bits, participants, false, {.max_rounds = 4 * n});
      ASSERT_TRUE(scan_result.solved) << "n=" << n << " b=" << b;
      const auto descent_result = channel::run_deterministic(
          descent, bits, participants, true, {.max_rounds = 4 * n});
      ASSERT_TRUE(descent_result.solved) << "n=" << n << " b=" << b;
      EXPECT_LE(descent_result.rounds, height - b + 1)
          << "n=" << n << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RaggedNetwork,
                         ::testing::Values(3, 5, 6, 7, 100, 1000, 12345));

// ---- infinite divergence: prediction gives zero mass to the truth ----

TEST(InfiniteDivergence, LikelihoodScheduleStillSolvesEventually) {
  // The prediction puts zero mass on the true range; the likelihood
  // ordering still enumerates every range per pass, so the algorithm
  // stays correct — only slower (the true range sorts last).
  constexpr std::size_t n = 1 << 12;
  const std::size_t ranges = info::num_ranges(n);
  const auto prediction = info::CondensedDistribution::point_mass(ranges, 2);
  const auto truth = info::SizeDistribution::point_mass(n, 3000);  // rng 12
  ASSERT_TRUE(std::isinf(truth.condense().kl_divergence(prediction)));
  const core::LikelihoodOrderedSchedule schedule(prediction);
  const auto m = harness::measure_uniform_no_cd(
      schedule, truth, 1000, /*seed=*/7,
      {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
  EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
  // The true range is probed late in each pass but still every pass.
  EXPECT_GT(m.rounds.mean, 5.0);
}

TEST(InfiniteDivergence, CodedSearchFirstPassCoversZeroMassClasses) {
  constexpr std::size_t n = 1 << 12;
  const std::size_t ranges = info::num_ranges(n);
  const auto prediction = info::CondensedDistribution::point_mass(ranges, 2);
  const auto truth = info::SizeDistribution::point_mass(n, 3000);
  const core::CodedSearchPolicy policy(prediction);
  const auto m = harness::measure_uniform_cd(policy, truth, 1000, /*seed=*/8,
                                             {.max_rounds = 1 << 14});
  EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
}

TEST(InfiniteDivergence, ProportionalCyclingAlsoRetainsCoverage) {
  constexpr std::size_t n = 1 << 12;
  const std::size_t ranges = info::num_ranges(n);
  const auto prediction = info::CondensedDistribution::point_mass(ranges, 2);
  const auto truth = info::SizeDistribution::point_mass(n, 3000);
  const core::LikelihoodOrderedSchedule schedule(
      prediction, core::CycleMode::kProportional);
  const auto m = harness::measure_uniform_no_cd(
      schedule, truth, 1000, /*seed=*/9,
      {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
  EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
}

// ---- minimum-size corners ----

TEST(MinimumNetwork, NEquals2EverythingDegeneratesGracefully) {
  constexpr std::size_t n = 2;  // single range, k = 2 forced
  EXPECT_EQ(info::num_ranges(n), 1u);
  const auto actual = info::SizeDistribution::point_mass(n, 2);
  const core::LikelihoodOrderedSchedule schedule(actual.condense());
  EXPECT_DOUBLE_EQ(schedule.probability(0), 0.5);
  const auto m = harness::measure_uniform_no_cd(
      schedule, actual, 2000, /*seed=*/10,
      {.max_rounds = 1 << 10, .engine = harness::NoCdEngine::kBinomial});
  EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
  // k = 2, p = 1/2: success probability 1/2 per round, mean 2.
  EXPECT_NEAR(m.rounds.mean, 2.0, 0.1);

  const core::CodedSearchPolicy policy(actual.condense());
  const auto m_cd = harness::measure_uniform_cd(
      policy, actual, 2000, /*seed=*/11, {.max_rounds = 1 << 10});
  EXPECT_DOUBLE_EQ(m_cd.success_rate, 1.0);
}

TEST(MinimumNetwork, AdviceProtocolsAtNEquals2) {
  const core::SubtreeScanProtocol scan(2, 0);
  const core::TreeDescentCdProtocol descent(2, 1);
  const core::MinIdPrefixAdvice advice0(2, 0);
  const core::MinIdPrefixAdvice advice1(2, 1);
  const std::vector<std::size_t> both{0, 1};
  const auto scan_result = channel::run_deterministic(
      scan, advice0.advise(both), both, false, {.max_rounds = 8});
  ASSERT_TRUE(scan_result.solved);
  EXPECT_EQ(scan_result.rounds, 1u);  // min id 0 owns slot 0
  const auto descent_result = channel::run_deterministic(
      descent, advice1.advise(both), both, true, {.max_rounds = 8});
  ASSERT_TRUE(descent_result.solved);
  EXPECT_EQ(descent_result.rounds, 1u);  // full advice names id 0
}

TEST(ExtremeSkew, NearOnePointMassPredictionsAreFinite) {
  // A prediction with 1 - 1e-12 mass on one range: entropy ~ 0, Huffman
  // still yields a valid code, and the schedule is well-formed.
  const std::size_t ranges = 16;
  const auto prediction =
      predict::bimodal_ranges(ranges, 5, 11, 1e-12);
  EXPECT_LT(prediction.entropy(), 1e-9);
  const core::LikelihoodOrderedSchedule schedule(prediction);
  EXPECT_DOUBLE_EQ(schedule.probability(0), std::exp2(-5.0));
  const core::CodedSearchPolicy policy(prediction);
  EXPECT_DOUBLE_EQ(policy.probability({}), std::exp2(-5.0));
}

TEST(LargeNetwork, MillionNodeNetworkStaysTractable) {
  constexpr std::size_t n = 1 << 20;
  EXPECT_EQ(info::num_ranges(n), 20u);
  const auto actual = predict::log_normal_sizes(n, 10.0, 1.0);
  const core::LikelihoodOrderedSchedule schedule(actual.condense());
  const auto m = harness::measure_uniform_no_cd(
      schedule, actual, 300, /*seed=*/13,
      {.max_rounds = 1 << 18, .engine = harness::NoCdEngine::kBinomial});
  EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
}

}  // namespace
}  // namespace crp
