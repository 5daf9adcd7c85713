#include "info/distribution.h"

#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "channel/rng.h"

namespace crp::info {
namespace {

TEST(RangeGeometry, NumRangesMatchesCeilLog2) {
  EXPECT_EQ(num_ranges(2), 1u);
  EXPECT_EQ(num_ranges(3), 2u);
  EXPECT_EQ(num_ranges(4), 2u);
  EXPECT_EQ(num_ranges(5), 3u);
  EXPECT_EQ(num_ranges(8), 3u);
  EXPECT_EQ(num_ranges(9), 4u);
  EXPECT_EQ(num_ranges(1024), 10u);
  EXPECT_EQ(num_ranges(1025), 11u);
}

TEST(RangeGeometry, RejectsDegenerateNetworks) {
  EXPECT_THROW(num_ranges(0), std::invalid_argument);
  EXPECT_THROW(num_ranges(1), std::invalid_argument);
}

TEST(RangeGeometry, RangeOfSizeMatchesPaperExamples) {
  // Section 2.2: i = 1 is associated with just the value 2, i = 2 with
  // 3..4, i = 3 with 5..8, and so on.
  EXPECT_EQ(range_of_size(2), 1u);
  EXPECT_EQ(range_of_size(3), 2u);
  EXPECT_EQ(range_of_size(4), 2u);
  EXPECT_EQ(range_of_size(5), 3u);
  EXPECT_EQ(range_of_size(8), 3u);
  EXPECT_EQ(range_of_size(9), 4u);
  EXPECT_EQ(range_of_size(16), 4u);
  EXPECT_EQ(range_of_size(17), 5u);
}

TEST(RangeGeometry, EndpointsBracketEveryRange) {
  for (std::size_t i = 1; i <= 20; ++i) {
    EXPECT_EQ(range_of_size(range_min_size(i)), i);
    EXPECT_EQ(range_of_size(range_max_size(i)), i);
    if (i > 1) {
      EXPECT_EQ(range_min_size(i), range_max_size(i - 1) + 1);
    }
  }
}

TEST(RangeGeometry, EveryRepresentableSizeBelongsToExactlyOneRange) {
  for (std::size_t k = 2; k <= 4096; ++k) {
    const std::size_t i = range_of_size(k);
    EXPECT_GE(k, range_min_size(i)) << "k=" << k;
    EXPECT_LE(k, range_max_size(i)) << "k=" << k;
  }
}

TEST(SizeDistribution, RejectsMalformedInput) {
  EXPECT_THROW(SizeDistribution({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(SizeDistribution({0.5, 0.0, 0.5}), std::invalid_argument);
  EXPECT_THROW(SizeDistribution({0.0, 0.0, 0.5}), std::invalid_argument);
  EXPECT_THROW(SizeDistribution({0.0, 0.0, -0.1, 1.1}),
               std::invalid_argument);
}

TEST(SizeDistribution, PointMassHasZeroEntropy) {
  const auto dist = SizeDistribution::point_mass(1024, 100);
  EXPECT_DOUBLE_EQ(dist.entropy(), 0.0);
  EXPECT_DOUBLE_EQ(dist.prob(100), 1.0);
  EXPECT_DOUBLE_EQ(dist.prob(99), 0.0);
  EXPECT_EQ(dist.support_size(), 1u);
  EXPECT_DOUBLE_EQ(dist.condense().entropy(), 0.0);
}

TEST(SizeDistribution, UniformEntropyIsLogSupport) {
  const auto dist = SizeDistribution::uniform(1025);  // sizes 2..1025
  EXPECT_NEAR(dist.entropy(), std::log2(1024.0), 1e-9);
}

TEST(SizeDistribution, CondenseAggregatesGeometricRanges) {
  // Mass 0.5 on size 2 (range 1), 0.25 on 3 and 4 combined (range 2),
  // 0.25 on 7 (range 3).
  std::vector<double> probs(9, 0.0);
  probs[2] = 0.5;
  probs[3] = 0.125;
  probs[4] = 0.125;
  probs[7] = 0.25;
  const SizeDistribution dist{std::move(probs)};
  const auto condensed = dist.condense();
  ASSERT_EQ(condensed.size(), 3u);
  EXPECT_NEAR(condensed.prob(1), 0.5, 1e-12);
  EXPECT_NEAR(condensed.prob(2), 0.25, 1e-12);
  EXPECT_NEAR(condensed.prob(3), 0.25, 1e-12);
}

TEST(SizeDistribution, CondensedEntropyNeverExceedsRawEntropy) {
  // Condensing is a deterministic function of X, so H(c(X)) <= H(X).
  const auto uniform = SizeDistribution::uniform(4096);
  EXPECT_LE(uniform.condense().entropy(), uniform.entropy() + 1e-12);
}

TEST(SizeDistribution, SamplingMatchesProbabilities) {
  std::vector<double> probs(65, 0.0);
  probs[4] = 0.5;
  probs[17] = 0.3;
  probs[63] = 0.2;
  const SizeDistribution dist(std::move(probs));
  auto rng = channel::make_rng(7);
  constexpr std::size_t kTrials = 200000;
  std::size_t count4 = 0;
  std::size_t count17 = 0;
  std::size_t count63 = 0;
  for (std::size_t t = 0; t < kTrials; ++t) {
    switch (dist.sample(rng)) {
      case 4: ++count4; break;
      case 17: ++count17; break;
      case 63: ++count63; break;
      default: FAIL() << "sampled a zero-probability size";
    }
  }
  EXPECT_NEAR(static_cast<double>(count4) / kTrials, 0.5, 0.01);
  EXPECT_NEAR(static_cast<double>(count17) / kTrials, 0.3, 0.01);
  EXPECT_NEAR(static_cast<double>(count63) / kTrials, 0.2, 0.01);
}

TEST(SizeDistribution, MeanMatchesHandComputation) {
  std::vector<double> probs(17, 0.0);
  probs[2] = 0.5;
  probs[10] = 0.5;
  const SizeDistribution dist(std::move(probs));
  EXPECT_NEAR(dist.mean(), 6.0, 1e-12);
}

TEST(CondensedDistribution, UniformHasMaximumEntropy) {
  const auto condensed = CondensedDistribution::uniform(16);
  EXPECT_NEAR(condensed.entropy(), 4.0, 1e-12);
}

TEST(CondensedDistribution, KlDivergenceSelfIsZero) {
  const auto condensed = CondensedDistribution::uniform(8);
  EXPECT_DOUBLE_EQ(condensed.kl_divergence(condensed), 0.0);
}

TEST(CondensedDistribution, KlDivergenceInfiniteOnMissingSupport) {
  const auto p = CondensedDistribution::uniform(4);
  const auto q = CondensedDistribution::point_mass(4, 2);
  EXPECT_TRUE(std::isinf(p.kl_divergence(q)));
  // The other direction is finite: point mass vs uniform.
  EXPECT_NEAR(q.kl_divergence(p), 2.0, 1e-12);
}

TEST(CondensedDistribution, KlDivergenceRejectsAlphabetMismatch) {
  const auto p = CondensedDistribution::uniform(4);
  const auto q = CondensedDistribution::uniform(5);
  EXPECT_THROW((void)p.kl_divergence(q), std::invalid_argument);
}

TEST(CondensedDistribution, LikelihoodOrderSortsByProbability) {
  const CondensedDistribution condensed{{0.1, 0.4, 0.2, 0.3}};
  const auto order = condensed.ranges_by_likelihood();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 4u);
  EXPECT_EQ(order[2], 3u);
  EXPECT_EQ(order[3], 1u);
}

TEST(CondensedDistribution, LikelihoodOrderBreaksTiesTowardSmallRanges) {
  const CondensedDistribution condensed{{0.25, 0.25, 0.25, 0.25}};
  const auto order = condensed.ranges_by_likelihood();
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 3, 4}));
}

TEST(CondensedDistribution, SampleStaysInAlphabet) {
  const auto condensed = CondensedDistribution::uniform(5);
  auto rng = channel::make_rng(3);
  for (int t = 0; t < 1000; ++t) {
    const std::size_t i = condensed.sample(rng);
    EXPECT_GE(i, 1u);
    EXPECT_LE(i, 5u);
  }
}

// Property sweep: lifting any of a family of distributions and
// re-condensing is the identity, and entropies are finite and bounded.
class CondensedRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CondensedRoundTrip, EntropyBoundedByLogAlphabet) {
  const std::size_t n = GetParam();
  const auto uniform = SizeDistribution::uniform(n);
  const auto condensed = uniform.condense();
  EXPECT_LE(condensed.entropy(),
            std::log2(static_cast<double>(condensed.size())) + 1e-9);
  double total = 0.0;
  for (std::size_t i = 1; i <= condensed.size(); ++i) {
    total += condensed.prob(i);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CondensedRoundTrip,
                         ::testing::Values(2, 3, 4, 7, 8, 9, 64, 100, 1024,
                                           4096, 100000));

}  // namespace
}  // namespace crp::info
