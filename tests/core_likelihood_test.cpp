#include "core/likelihood_schedule.h"

#include <cmath>

#include <gtest/gtest.h>

#include "harness/measure.h"
#include "info/distribution.h"
#include "predict/families.h"
#include "predict/noise.h"

namespace crp::core {
namespace {

TEST(LikelihoodSchedule, VisitsRangesInLikelihoodOrder) {
  const info::CondensedDistribution prediction{{0.1, 0.6, 0.3}};
  const LikelihoodOrderedSchedule schedule(prediction);
  EXPECT_EQ(schedule.ordering(), (std::vector<std::size_t>{2, 3, 1}));
  EXPECT_DOUBLE_EQ(schedule.probability(0), 0.25);    // range 2
  EXPECT_DOUBLE_EQ(schedule.probability(1), 0.125);   // range 3
  EXPECT_DOUBLE_EQ(schedule.probability(2), 0.5);     // range 1
  // Repeats the pass.
  EXPECT_DOUBLE_EQ(schedule.probability(3), schedule.probability(0));
}

TEST(LikelihoodSchedule, PointMassPredictionProbesItFirst) {
  const auto prediction = info::CondensedDistribution::point_mass(10, 6);
  const LikelihoodOrderedSchedule schedule(prediction);
  EXPECT_EQ(schedule.ordering().front(), 6u);
  EXPECT_DOUBLE_EQ(schedule.probability(0), std::exp2(-6.0));
}

TEST(LikelihoodSchedule, PerfectPredictionSolvesInConstantRounds) {
  // X = point mass on size 700 (range 10 of n=1024); prediction = X.
  constexpr std::size_t n = 1024;
  const auto actual = info::SizeDistribution::point_mass(n, 700);
  const LikelihoodOrderedSchedule schedule(actual.condense());
  const auto m = harness::measure_uniform_no_cd(
      schedule, actual, 4000, /*seed=*/11,
      {.max_rounds = 1 << 14, .engine = harness::NoCdEngine::kBinomial});
  EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
  // Round 1 probes p = 2^-10 with k = 700: success prob ~ k p e^{-kp}
  // ~ 0.34, repeated each pass of 10 rounds; mean is small.
  EXPECT_LT(m.rounds.mean, 30.0);
}

TEST(LikelihoodSchedule, UniformPredictionDegradesToDecayLikeBehaviour) {
  constexpr std::size_t n = 1 << 12;
  const auto actual = info::SizeDistribution::uniform(n);
  const LikelihoodOrderedSchedule schedule(actual.condense());
  const auto m = harness::measure_uniform_no_cd(
      schedule, actual, 3000, /*seed=*/13,
      {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
  EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
  // All 12 ranges are swept per pass; expect a few passes.
  EXPECT_GT(m.rounds.mean, 3.0);
  EXPECT_LT(m.rounds.mean, 20.0 * 12.0);
}

TEST(LikelihoodSchedule, BadPredictionIsSlowerThanGoodPrediction) {
  // Theorem 2.12's divergence cost, qualitatively: a prediction whose
  // likelihood order is reversed must cost more rounds.
  constexpr std::size_t n = 1 << 10;
  const auto condensed_truth =
      crp::predict::geometric_ranges(info::num_ranges(n), 0.5);
  const auto actual =
      crp::predict::lift(condensed_truth, n,
                         crp::predict::RangePlacement::kHighEndpoint);
  const LikelihoodOrderedSchedule good(condensed_truth);
  const auto reversed = crp::predict::reverse_ranges(condensed_truth);
  const LikelihoodOrderedSchedule bad(reversed);
  const auto m_good = harness::measure_uniform_no_cd(
      good, actual, 3000, /*seed=*/17,
      {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
  const auto m_bad = harness::measure_uniform_no_cd(
      bad, actual, 3000, /*seed=*/17,
      {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
  EXPECT_LT(m_good.rounds.mean, m_bad.rounds.mean);
}

TEST(LikelihoodSchedule, ProportionalModeSchedulesLikelyRangesMoreOften) {
  const info::CondensedDistribution prediction{{0.7, 0.2, 0.1}};
  const LikelihoodOrderedSchedule schedule(prediction,
                                           CycleMode::kProportional);
  std::size_t hits_range1 = 0;
  const std::size_t pass = schedule.pass_length();
  for (std::size_t r = 0; r < pass; ++r) {
    if (schedule.range_for_round(r) == 1) ++hits_range1;
  }
  EXPECT_GT(static_cast<double>(hits_range1) / static_cast<double>(pass),
            0.4);
}

TEST(LikelihoodSchedule, ProportionalModeStillCoversEveryRange) {
  const info::CondensedDistribution prediction{{0.98, 0.01, 0.01}};
  const LikelihoodOrderedSchedule schedule(prediction,
                                           CycleMode::kProportional);
  std::vector<bool> seen(4, false);
  for (std::size_t r = 0; r < schedule.pass_length(); ++r) {
    seen[schedule.range_for_round(r)] = true;
  }
  EXPECT_TRUE(seen[1]);
  EXPECT_TRUE(seen[2]);
  EXPECT_TRUE(seen[3]);
}

TEST(LikelihoodSchedule, ProportionalBeatsRepeatOnSkewedTruth) {
  // When the truth is heavily skewed toward one range, revisiting that
  // range more often (footnote 6's "clever cycling") lowers expected
  // rounds relative to sweeping all ranges each pass.
  constexpr std::size_t n = 1 << 14;
  const auto condensed =
      crp::predict::bimodal_ranges(info::num_ranges(n), 14, 2, 0.05);
  const auto actual = crp::predict::lift(
      condensed, n, crp::predict::RangePlacement::kHighEndpoint);
  const LikelihoodOrderedSchedule repeat(condensed, CycleMode::kRepeatPass);
  const LikelihoodOrderedSchedule proportional(condensed,
                                               CycleMode::kProportional);
  const auto m_repeat = harness::measure_uniform_no_cd(
      repeat, actual, 4000, /*seed=*/19,
      {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
  const auto m_prop = harness::measure_uniform_no_cd(
      proportional, actual, 4000, /*seed=*/19,
      {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
  EXPECT_LT(m_prop.rounds.mean, m_repeat.rounds.mean);
}

// Theorem 2.12 / Corollary 2.15 success-probability form: with Y = X,
// the one-shot pass succeeds within O(2^{2H}) rounds with probability
// at least 1/16. Swept over a family of entropies.
class OneShotBound : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OneShotBound, SucceedsWithinTheoremBudgetWithConstantProbability) {
  constexpr std::size_t n = 1 << 16;
  const std::size_t m = GetParam();  // uniform over first m ranges
  const auto condensed =
      crp::predict::uniform_over_ranges(info::num_ranges(n), m);
  const auto actual = crp::predict::lift(
      condensed, n, crp::predict::RangePlacement::kHighEndpoint);
  const LikelihoodOrderedSchedule schedule(condensed);
  const double h = condensed.entropy();  // = log2 m
  const double budget = std::exp2(2.0 * h) + 1.0;  // O(2^{2H}), constant 1
  const auto measurement = harness::measure_uniform_no_cd(
      schedule, actual, 4000, /*seed=*/23,
      {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
  EXPECT_GE(measurement.solved_within(budget), 1.0 / 16.0)
      << "H=" << h << " budget=" << budget;
}

INSTANTIATE_TEST_SUITE_P(EntropySweep, OneShotBound,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace crp::core
