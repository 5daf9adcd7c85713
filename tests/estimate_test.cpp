#include "estimate/estimator.h"

#include <gtest/gtest.h>

#include "channel/engine.h"
#include "channel/rng.h"
#include "harness/measure.h"
#include "info/distribution.h"

namespace crp::estimate {
namespace {

TEST(EstimateWithin, ComparesGeometricRanges) {
  EXPECT_TRUE(estimate_within(64, 64, 0));
  EXPECT_TRUE(estimate_within(64, 100, 1));   // ranges 6 vs 7
  EXPECT_FALSE(estimate_within(64, 100, 0));
  EXPECT_TRUE(estimate_within(8, 1000, 7));   // ranges 3 vs 10
  EXPECT_FALSE(estimate_within(8, 1000, 6));
  EXPECT_FALSE(estimate_within(1, 64, 10));   // degenerate inputs
}

TEST(EstimateNoCd, ValidatesArguments) {
  auto rng = channel::make_rng(1);
  EXPECT_THROW(estimate_size_no_cd(0, 64, rng), std::invalid_argument);
  EXPECT_THROW(estimate_size_no_cd(4, 64, rng, 0), std::invalid_argument);
  EXPECT_THROW(estimate_size_cd(0, 64, rng), std::invalid_argument);
  EXPECT_THROW(estimate_size_cd(4, 64, rng, 0), std::invalid_argument);
}

TEST(EstimateNoCd, ProducesConstantFactorEstimates) {
  constexpr std::size_t n = 1 << 14;
  for (std::size_t k : {2ul, 40ul, 1000ul, 16000ul}) {
    std::size_t good = 0;
    constexpr std::size_t kTrials = 2000;
    for (std::size_t t = 0; t < kTrials; ++t) {
      auto rng = channel::derive_rng(11, t);
      const auto result =
          estimate_size_no_cd(k, n, rng, 1, {.max_rounds = 1 << 14});
      ASSERT_TRUE(result.estimate.has_value()) << "k=" << k;
      if (estimate_within(*result.estimate, k, 2)) ++good;
    }
    // A lone transmission at probe 2^-i is overwhelmingly likely only
    // when 2^i = Theta(k); allow a modest failure rate from lucky
    // lone transmissions at distant probes.
    EXPECT_GT(static_cast<double>(good) / kTrials, 0.85) << "k=" << k;
  }
}

TEST(EstimateNoCd, RoundsScaleWithLogN) {
  constexpr std::size_t k = 100;
  double mean_small = 0.0;
  double mean_large = 0.0;
  constexpr std::size_t kTrials = 3000;
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto rng_a = channel::derive_rng(13, t);
    auto rng_b = channel::derive_rng(17, t);
    mean_small += static_cast<double>(
        estimate_size_no_cd(k, 1 << 8, rng_a, 1, {1 << 14}).rounds);
    mean_large += static_cast<double>(
        estimate_size_no_cd(k, 1 << 16, rng_b, 1, {1 << 14}).rounds);
  }
  mean_small /= kTrials;
  mean_large /= kTrials;
  EXPECT_GT(mean_large, mean_small);
  EXPECT_LT(mean_large, 8.0 * mean_small);  // log, not polynomial, growth
}

TEST(EstimateCd, FasterThanNoCdEstimation) {
  constexpr std::size_t n = 1 << 16;
  constexpr std::size_t k = 3000;
  double mean_no_cd = 0.0;
  double mean_cd = 0.0;
  constexpr std::size_t kTrials = 3000;
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto rng_a = channel::derive_rng(19, t);
    auto rng_b = channel::derive_rng(23, t);
    mean_no_cd += static_cast<double>(
        estimate_size_no_cd(k, n, rng_a, 1, {1 << 14}).rounds);
    mean_cd += static_cast<double>(
        estimate_size_cd(k, n, rng_b, 1, {1 << 14}).rounds);
  }
  EXPECT_LT(mean_cd, mean_no_cd);
}

TEST(EstimateCd, ProducesUsableEstimates) {
  constexpr std::size_t n = 1 << 16;
  for (std::size_t k : {4ul, 500ul, 50000ul}) {
    std::size_t good = 0;
    constexpr std::size_t kTrials = 2000;
    for (std::size_t t = 0; t < kTrials; ++t) {
      auto rng = channel::derive_rng(29, t);
      const auto result =
          estimate_size_cd(k, n, rng, 3, {.max_rounds = 1 << 14});
      ASSERT_TRUE(result.estimate.has_value());
      if (estimate_within(*result.estimate, k, 3)) ++good;
    }
    EXPECT_GT(static_cast<double>(good) / kTrials, 0.8) << "k=" << k;
  }
}

TEST(EstimateCd, RepeatsImproveAccuracy) {
  constexpr std::size_t n = 1 << 16;
  constexpr std::size_t k = 3000;
  const auto accuracy = [&](std::size_t repeats) {
    std::size_t good = 0;
    constexpr std::size_t kTrials = 3000;
    for (std::size_t t = 0; t < kTrials; ++t) {
      auto rng = channel::derive_rng(31 + repeats, t);
      const auto result =
          estimate_size_cd(k, n, rng, repeats, {.max_rounds = 1 << 14});
      if (result.estimate && estimate_within(*result.estimate, k, 2)) {
        ++good;
      }
    }
    return static_cast<double>(good) / kTrials;
  };
  EXPECT_GT(accuracy(5), accuracy(1) - 0.02);  // never materially worse
}

TEST(EstimatePipeline, EstimateThenTransmitSolvesFast) {
  // The classical pipeline the paper alludes to: estimate k, then run
  // the fixed 1/k-hat transmitter. End-to-end rounds should be
  // O(log log n) + O(1) with collision detection.
  constexpr std::size_t n = 1 << 16;
  constexpr std::size_t k = 5000;
  const channel::AdapterEngine pipeline(
      [&](std::size_t, channel::Rng& rng, const channel::SimOptions&) {
        auto est = estimate_size_cd(k, n, rng, 3, {1 << 12});
        if (!est.estimate) {
          return channel::RunResult{false, est.rounds, std::nullopt, 0};
        }
        // Note: the estimation itself may have already resolved
        // contention (a lone transmission); that counts as success.
        const double p = 1.0 / static_cast<double>(*est.estimate);
        std::size_t rounds = est.rounds;
        for (int extra = 0; extra < 4096; ++extra) {
          ++rounds;
          if (channel::sample_transmitters(k, p, rng) == 1) {
            return channel::RunResult{true, rounds, std::nullopt, 0};
          }
        }
        return channel::RunResult{false, rounds, std::nullopt, 0};
      });
  const auto m =
      harness::measure_blocks(pipeline, {nullptr, k}, 4000, /*seed=*/37, {});
  EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
  EXPECT_LT(m.rounds.mean, 40.0);
}

}  // namespace
}  // namespace crp::estimate
