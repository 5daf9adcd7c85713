#include <cmath>

#include <gtest/gtest.h>

#include "channel/rng.h"
#include "predict/families.h"
#include "predict/noise.h"

namespace crp::predict {
namespace {

TEST(Families, UniformOverRangesHasLogEntropy) {
  for (std::size_t m : {1ul, 2ul, 4ul, 8ul}) {
    const auto condensed = uniform_over_ranges(16, m);
    EXPECT_NEAR(condensed.entropy(), std::log2(static_cast<double>(m)),
                1e-12);
  }
}

TEST(Families, GeometricEntropySweepsSmoothly) {
  const auto nearly_point = geometric_ranges(16, 0.05);
  const auto halfway = geometric_ranges(16, 0.5);
  const auto uniformish = geometric_ranges(16, 1.0);
  EXPECT_LT(nearly_point.entropy(), halfway.entropy());
  EXPECT_LT(halfway.entropy(), uniformish.entropy());
  EXPECT_NEAR(uniformish.entropy(), 4.0, 1e-9);
}

TEST(Families, ZipfExponentSharpens) {
  EXPECT_GT(zipf_ranges(16, 0.5).entropy(), zipf_ranges(16, 2.0).entropy());
}

TEST(Families, BimodalEntropyIsBinaryEntropy) {
  const auto condensed = bimodal_ranges(16, 3, 11, 0.25);
  const double expected =
      -(0.75 * std::log2(0.75) + 0.25 * std::log2(0.25));
  EXPECT_NEAR(condensed.entropy(), expected, 1e-12);
}

TEST(Families, MixInterpolates) {
  const auto a = uniform_over_ranges(8, 1);
  const auto b = uniform_over_ranges(8, 8);
  const auto mixed = mix(a, b, 0.5);
  EXPECT_NEAR(mixed.prob(1), 0.5 + 0.5 / 8.0, 1e-12);
  EXPECT_NEAR(mixed.prob(5), 0.5 / 8.0, 1e-12);
}

TEST(Families, LiftThenCondenseIsIdentity) {
  constexpr std::size_t n = 1 << 10;
  const auto condensed = zipf_ranges(info::num_ranges(n), 1.1);
  for (auto placement : {RangePlacement::kLowEndpoint,
                         RangePlacement::kHighEndpoint,
                         RangePlacement::kUniform}) {
    const auto lifted = lift(condensed, n, placement);
    const auto back = lifted.condense();
    ASSERT_EQ(back.size(), condensed.size());
    for (std::size_t i = 1; i <= condensed.size(); ++i) {
      EXPECT_NEAR(back.prob(i), condensed.prob(i), 1e-9)
          << "placement=" << static_cast<int>(placement) << " i=" << i;
    }
  }
}

TEST(Families, LiftRejectsAlphabetMismatch) {
  const auto condensed = uniform_over_ranges(4, 4);
  EXPECT_THROW(lift(condensed, 1 << 10, RangePlacement::kUniform),
               std::invalid_argument);
}

TEST(Families, ZipfSizesAndLogNormalAreValidDistributions) {
  const auto zipf = zipf_sizes(1 << 12, 1.0);
  EXPECT_GT(zipf.entropy(), 0.0);
  const auto lognormal = log_normal_sizes(1 << 12, 5.0, 1.0);
  EXPECT_GT(lognormal.entropy(), 0.0);
  // Log-normal concentrates near e^5 ~ 148: range 8 should dominate.
  const auto condensed = lognormal.condense();
  std::size_t argmax = 1;
  for (std::size_t i = 2; i <= condensed.size(); ++i) {
    if (condensed.prob(i) > condensed.prob(argmax)) argmax = i;
  }
  EXPECT_EQ(argmax, 8u);
}

TEST(Noise, MultiplicativeJitterHasBoundedDivergence) {
  // The paper's robustness remark: probabilities off by a bounded
  // constant factor keep D_KL = O(1). With factor c, D <= log2 c^2.
  auto rng = channel::make_rng(5);
  const auto truth = zipf_ranges(16, 1.0);
  for (double factor : {1.5, 2.0, 4.0}) {
    for (int trial = 0; trial < 20; ++trial) {
      const auto noisy = multiplicative_jitter(truth, factor, rng);
      const double d = truth.kl_divergence(noisy);
      EXPECT_GE(d, 0.0);
      EXPECT_LE(d, 2.0 * std::log2(factor) + 1e-9) << "factor=" << factor;
    }
  }
}

TEST(Noise, SmoothingDivergenceShrinksWithEps) {
  const auto truth = geometric_ranges(16, 0.4);
  const double d_large = truth.kl_divergence(smooth_with_uniform(truth, 0.9));
  const double d_small = truth.kl_divergence(smooth_with_uniform(truth, 0.1));
  const double d_zero = truth.kl_divergence(smooth_with_uniform(truth, 0.0));
  EXPECT_LT(d_small, d_large);
  EXPECT_NEAR(d_zero, 0.0, 1e-12);
}

TEST(Noise, ReverseKeepsEntropySwapsOrder) {
  const auto truth = geometric_ranges(8, 0.5);
  const auto reversed = reverse_ranges(truth);
  EXPECT_NEAR(truth.entropy(), reversed.entropy(), 1e-12);
  EXPECT_GT(truth.kl_divergence(reversed), 0.5);
}

TEST(Noise, EmpiricalPredictorConvergesWithSamples) {
  constexpr std::size_t n = 1 << 12;
  const auto truth = log_normal_sizes(n, 5.0, 0.8);
  const auto condensed_truth = truth.condense();
  auto rng = channel::make_rng(17);
  const auto few = empirical_predictor(truth, 10, 0.5, rng);
  const auto many = empirical_predictor(truth, 20000, 0.5, rng);
  const double d_few = condensed_truth.kl_divergence(few);
  const double d_many = condensed_truth.kl_divergence(many);
  EXPECT_LT(d_many, d_few);
  EXPECT_LT(d_many, 0.05);
}

TEST(Noise, ParameterValidation) {
  auto rng = channel::make_rng(1);
  const auto truth = uniform_over_ranges(8, 8);
  EXPECT_THROW(multiplicative_jitter(truth, 0.5, rng),
               std::invalid_argument);
  EXPECT_THROW(smooth_with_uniform(truth, -0.1), std::invalid_argument);
  const auto sizes = info::SizeDistribution::uniform(64);
  EXPECT_THROW(empirical_predictor(sizes, 10, 0.0, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace crp::predict
