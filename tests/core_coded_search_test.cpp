#include "core/coded_search.h"

#include <cmath>

#include <gtest/gtest.h>

#include "harness/measure.h"
#include "info/distribution.h"
#include "predict/families.h"
#include "predict/noise.h"

namespace crp::core {
namespace {

TEST(CodedSearch, ClassesArePartitionOfRangesSortedByCodeLength) {
  const auto prediction = crp::predict::geometric_ranges(12, 0.5);
  const CodedSearchPolicy policy(prediction);
  const auto& classes = policy.classes();
  const auto& lengths = policy.class_lengths();
  ASSERT_EQ(classes.size(), lengths.size());
  // Lengths strictly increase across classes.
  for (std::size_t c = 1; c < lengths.size(); ++c) {
    EXPECT_LT(lengths[c - 1], lengths[c]);
  }
  // Every range appears exactly once.
  std::vector<int> seen(13, 0);
  for (const auto& cls : classes) {
    for (std::size_t i = 1; i < cls.size(); ++i) {
      EXPECT_LT(cls[i - 1], cls[i]);  // ascending within class
    }
    for (std::size_t r : cls) {
      ASSERT_GE(r, 1u);
      ASSERT_LE(r, 12u);
      ++seen[r];
    }
  }
  for (std::size_t r = 1; r <= 12; ++r) {
    EXPECT_EQ(seen[r], 1) << "range " << r;
  }
}

TEST(CodedSearch, PointMassPredictionProbesItsRangeFirst) {
  const auto prediction = info::CondensedDistribution::point_mass(10, 7);
  const CodedSearchPolicy policy(prediction);
  EXPECT_DOUBLE_EQ(policy.probability({}), std::exp2(-7.0));
}

TEST(CodedSearch, FirstProbeIsTheMostLikelyClassMedian) {
  // Uniform over 2 of 8 ranges: both get 1-bit codes, the remaining six
  // get longer ones; the first probe must come from the short class.
  const auto prediction = crp::predict::uniform_over_ranges(8, 2);
  const CodedSearchPolicy policy(prediction);
  const double p0 = policy.probability({});
  EXPECT_TRUE(p0 == std::exp2(-1.0) || p0 == std::exp2(-2.0));
}

TEST(CodedSearch, SolvesAllSizesWithCollisionDetection) {
  constexpr std::size_t n = 1 << 14;
  const auto actual = info::SizeDistribution::uniform(n);
  const CodedSearchPolicy policy(actual.condense());
  for (std::size_t k : {2ul, 33ul, 1000ul, 16000ul}) {
    const auto m = harness::measure_uniform_cd_fixed_k(
        policy, k, 2000, /*seed=*/51, {.max_rounds = 1 << 14});
    EXPECT_DOUBLE_EQ(m.success_rate, 1.0) << "k=" << k;
  }
}

TEST(CodedSearch, PerfectPredictionIsNearConstantTime) {
  constexpr std::size_t n = 1 << 14;
  const auto actual = info::SizeDistribution::point_mass(n, 9000);
  const CodedSearchPolicy policy(actual.condense());
  const auto m = harness::measure_uniform_cd(policy, actual, 4000, /*seed=*/53,
                                             {.max_rounds = 1 << 12});
  EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
  EXPECT_LT(m.rounds.mean, 10.0);
}

TEST(CodedSearch, HuffmanAndShannonFanoBackendsBothSolve) {
  constexpr std::size_t n = 1 << 12;
  const auto condensed =
      crp::predict::zipf_ranges(info::num_ranges(n), 1.2);
  const auto actual = crp::predict::lift(
      condensed, n, crp::predict::RangePlacement::kHighEndpoint);
  const CodedSearchPolicy huffman(condensed, CodeBackend::kHuffman);
  const CodedSearchPolicy fano(condensed, CodeBackend::kShannonFano);
  const auto m_huffman = harness::measure_uniform_cd(
      huffman, actual, 3000, /*seed=*/57, {.max_rounds = 1 << 14});
  const auto m_fano = harness::measure_uniform_cd(
      fano, actual, 3000, /*seed=*/57, {.max_rounds = 1 << 14});
  EXPECT_DOUBLE_EQ(m_huffman.success_rate, 1.0);
  EXPECT_DOUBLE_EQ(m_fano.success_rate, 1.0);
  // The optimal code should not be materially worse.
  EXPECT_LT(m_huffman.rounds.mean, m_fano.rounds.mean * 1.5);
}

TEST(CodedSearch, MisleadingPredictionCostsRounds) {
  constexpr std::size_t n = 1 << 14;
  const auto condensed =
      crp::predict::geometric_ranges(info::num_ranges(n), 0.45);
  const auto actual = crp::predict::lift(
      condensed, n, crp::predict::RangePlacement::kHighEndpoint);
  const CodedSearchPolicy good(condensed);
  const CodedSearchPolicy bad(crp::predict::reverse_ranges(condensed));
  const auto m_good = harness::measure_uniform_cd(
      good, actual, 3000, /*seed=*/59, {.max_rounds = 1 << 14});
  const auto m_bad = harness::measure_uniform_cd(
      bad, actual, 3000, /*seed=*/59, {.max_rounds = 1 << 14});
  EXPECT_LT(m_good.rounds.mean, m_bad.rounds.mean);
}

TEST(CodedSearch, PassLengthIsSumOfPerClassSearchCosts) {
  const auto prediction = crp::predict::uniform_over_ranges(8, 8);
  const CodedSearchPolicy policy(prediction);
  // Uniform over 8 ranges: all codes 3 bits, single class of size 8,
  // binary search needs ceil(log2 8) + 1 = 4 probes.
  ASSERT_EQ(policy.classes().size(), 1u);
  EXPECT_EQ(policy.pass_length(), 4u);
}

// Theorem 2.16 / Corollary 2.18 form: with Y = X, the one-shot attempt
// succeeds within O((H + 1)^2) rounds with constant probability.
class CdOneShotBound : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CdOneShotBound, SucceedsWithinQuadraticEntropyBudget) {
  constexpr std::size_t n = 1 << 16;
  const std::size_t m = GetParam();
  const auto condensed =
      crp::predict::uniform_over_ranges(info::num_ranges(n), m);
  const auto actual = crp::predict::lift(
      condensed, n, crp::predict::RangePlacement::kHighEndpoint);
  const CodedSearchPolicy policy(condensed);
  const double h = condensed.entropy();
  // O((H + D + 1)^2) with D = 0; constant 4 absorbs the per-class
  // search overhead.
  const double budget = 4.0 * (h + 1.0) * (h + 1.0) + 4.0;
  const auto measurement = harness::measure_uniform_cd(
      policy, actual, 4000, /*seed=*/61, {.max_rounds = 1 << 14});
  EXPECT_GE(measurement.solved_within(budget), 0.25)
      << "H=" << h << " budget=" << budget;
}

INSTANTIATE_TEST_SUITE_P(EntropySweep, CdOneShotBound,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace crp::core
