// End-to-end checks of the paper's headline claims, wiring every module
// together: entropy scaling (Table 1), divergence cost (Theorems 2.12 /
// 2.16), the lower-bound reduction chain (Lemmas 2.5 / 2.7), and the
// perfect-advice scaling (Table 2).
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "baselines/willard.h"
#include "channel/rng.h"
#include "core/advice.h"
#include "core/advice_deterministic.h"
#include "core/advice_randomized.h"
#include "core/coded_search.h"
#include "core/likelihood_schedule.h"
#include "harness/fit.h"
#include "harness/measure.h"
#include "info/distribution.h"
#include "predict/families.h"
#include "predict/noise.h"
#include "rangefind/coding.h"
#include "rangefind/sequence.h"

namespace crp {
namespace {

constexpr std::size_t kNetwork = 1 << 16;  // n = 65536, 16 ranges

TEST(Table1Integration, NoCdRoundsGrowMonotonicallyWithEntropy) {
  const std::size_t ranges = info::num_ranges(kNetwork);
  std::vector<double> entropy;
  std::vector<double> rounds;
  for (std::size_t m : {1ul, 2ul, 4ul, 8ul, 16ul}) {
    const auto condensed = predict::uniform_over_ranges(ranges, m);
    const auto actual = predict::lift(
        condensed, kNetwork, predict::RangePlacement::kHighEndpoint);
    const core::LikelihoodOrderedSchedule schedule(condensed);
    const auto measurement = harness::measure_uniform_no_cd(
        schedule, actual, 3000, /*seed=*/101,
        {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
    ASSERT_DOUBLE_EQ(measurement.success_rate, 1.0);
    entropy.push_back(condensed.entropy());
    rounds.push_back(measurement.rounds.mean);
  }
  // Strictly increasing in entropy, and superlinear (the bound is
  // exponential in H).
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    EXPECT_GT(rounds[i], rounds[i - 1]) << "H=" << entropy[i];
  }
  EXPECT_GT(harness::spearman(entropy, rounds), 0.99);
  // Exponential-shape check: rounds at H=4 dwarf a linear
  // extrapolation from H=0 -> H=1.
  EXPECT_GT(rounds.back(), 4.0 * (rounds[1] - rounds[0]) +
                               rounds[0] + 1.0);
}

TEST(Table1Integration, CdRoundsStayWithinQuadraticEntropyEnvelope) {
  // The CD mean is NOT monotone in H at these scales (neighbouring
  // ranges also succeed with decent probability, so the binary search
  // saturates around a handful of rounds); the paper's claim is the
  // O((H+1)^2) envelope and the giant win over the no-CD exponential,
  // which is what we assert.
  const std::size_t ranges = info::num_ranges(kNetwork);
  std::vector<double> entropy;
  std::vector<double> rounds;
  for (std::size_t m : {1ul, 2ul, 4ul, 8ul, 16ul}) {
    const auto condensed = predict::uniform_over_ranges(ranges, m);
    const auto actual = predict::lift(
        condensed, kNetwork, predict::RangePlacement::kHighEndpoint);
    const core::CodedSearchPolicy policy(condensed);
    const auto measurement = harness::measure_uniform_cd(
        policy, actual, 3000, /*seed=*/103, {.max_rounds = 1 << 14});
    ASSERT_DOUBLE_EQ(measurement.success_rate, 1.0);
    entropy.push_back(condensed.entropy());
    rounds.push_back(measurement.rounds.mean);
    EXPECT_LE(measurement.rounds.mean,
              4.0 * (condensed.entropy() + 1.0) *
                      (condensed.entropy() + 1.0) +
                  4.0)
        << "H=" << condensed.entropy();
  }
  // The largest-entropy point is far below the no-CD exponential
  // 2^{2H} = 256 and above the perfect-prediction floor.
  EXPECT_LT(rounds.back(), 64.0);
  EXPECT_GT(rounds.back(), rounds.front());
}

TEST(Table1Integration, CollisionDetectionBeatsNoCdAtHighEntropy) {
  const std::size_t ranges = info::num_ranges(kNetwork);
  const auto condensed = predict::uniform_over_ranges(ranges, ranges);
  const auto actual = predict::lift(
      condensed, kNetwork, predict::RangePlacement::kHighEndpoint);
  const core::LikelihoodOrderedSchedule no_cd(condensed);
  const core::CodedSearchPolicy cd(condensed);
  const auto m_no_cd = harness::measure_uniform_no_cd(
      no_cd, actual, 3000, /*seed=*/105,
      {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
  const auto m_cd = harness::measure_uniform_cd(cd, actual, 3000, /*seed=*/105,
                                                {.max_rounds = 1 << 14});
  EXPECT_LT(m_cd.rounds.mean, m_no_cd.rounds.mean);
}

TEST(DivergenceIntegration, NoCdCostIncreasesWithKl) {
  // Theorem 2.12: rounds grow with D_KL(c(X) || c(Y)). Walk the
  // prediction along the segment from the truth to its (smoothed)
  // reversal: D_KL(p || lambda p + (1-lambda) o) is convex in lambda
  // with minimum 0 at lambda = 1, hence monotone along the sweep.
  const std::size_t ranges = info::num_ranges(kNetwork);
  const auto truth = predict::geometric_ranges(ranges, 0.35);
  const auto actual = predict::lift(truth, kNetwork,
                                    predict::RangePlacement::kHighEndpoint);
  const auto adversary =
      predict::smooth_with_uniform(predict::reverse_ranges(truth), 0.05);
  std::vector<double> divergence;
  std::vector<double> rounds;
  for (double lambda : {1.0, 0.6, 0.3, 0.0}) {
    const auto prediction = predict::mix(truth, adversary, lambda);
    const core::LikelihoodOrderedSchedule schedule(prediction);
    const auto measurement = harness::measure_uniform_no_cd(
        schedule, actual, 3000, /*seed=*/107,
        {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
    ASSERT_DOUBLE_EQ(measurement.success_rate, 1.0);
    divergence.push_back(truth.kl_divergence(prediction));
    rounds.push_back(measurement.rounds.mean);
  }
  for (std::size_t i = 1; i < divergence.size(); ++i) {
    EXPECT_GT(divergence[i], divergence[i - 1]);
  }
  EXPECT_GT(harness::spearman(divergence, rounds), 0.9);
}

TEST(DivergenceIntegration, BoundedFactorErrorIsNearlyFree) {
  // The robustness remark after Theorem 2.12: predictions within a
  // constant factor of the truth cost only O(1).
  const std::size_t ranges = info::num_ranges(kNetwork);
  const auto truth = predict::geometric_ranges(ranges, 0.35);
  const auto actual = predict::lift(truth, kNetwork,
                                    predict::RangePlacement::kHighEndpoint);
  auto rng = channel::make_rng(109);
  const auto jittered = predict::multiplicative_jitter(truth, 1.3, rng);
  const core::LikelihoodOrderedSchedule exact(truth);
  const core::LikelihoodOrderedSchedule noisy(jittered);
  const auto m_exact = harness::measure_uniform_no_cd(
      exact, actual, 4000, /*seed=*/111,
      {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
  const auto m_noisy = harness::measure_uniform_no_cd(
      noisy, actual, 4000, /*seed=*/111,
      {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
  EXPECT_LT(m_noisy.rounds.mean, m_exact.rounds.mean * 2.5 + 4.0);
}

TEST(LowerBoundIntegration, DecayRespectsEntropyLowerBoundChain) {
  // Theorem 2.4 applied to the decay baseline: its measured expected
  // rounds must exceed c * 2^H / log log n for every target
  // distribution (we use the proof's own reduction constants loosely:
  // any violation by a large margin would falsify the chain).
  constexpr std::size_t n = 1 << 12;
  const std::size_t ranges = info::num_ranges(n);
  const baselines::DecaySchedule decay(n);
  const double loglog = std::log2(std::log2(static_cast<double>(n)));
  for (std::size_t m : {2ul, 4ul, 8ul, 12ul}) {
    const auto condensed = predict::uniform_over_ranges(ranges, m);
    const auto actual = predict::lift(
        condensed, n, predict::RangePlacement::kHighEndpoint);
    const auto measurement = harness::measure_uniform_no_cd(
        decay, actual, 3000, /*seed=*/113,
        {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
    const double h = condensed.entropy();
    const double bound = std::exp2(h) / (16.0 * loglog);
    EXPECT_GE(measurement.rounds.mean, bound) << "H=" << h;
  }
}

TEST(LowerBoundIntegration, RfChainBoundsContentionResolutionFromBelow) {
  // The full Lemma 2.5 + 2.7 pipeline: build the RF sequence from the
  // likelihood-ordered algorithm itself, derive the target-distance
  // code, and verify E[code length] >= H — hence the algorithm cannot
  // beat the entropy bound.
  constexpr std::size_t n = 1 << 12;
  const std::size_t ranges = info::num_ranges(n);
  const double radius = std::log2(std::log2(static_cast<double>(n)));
  for (double decay_rate : {0.4, 0.8, 1.0}) {
    const auto condensed = predict::geometric_ranges(ranges, decay_rate);
    const core::LikelihoodOrderedSchedule schedule(condensed);
    const auto sequence = rangefind::rf_construction(schedule, 400, n);
    const rangefind::SequenceTargetDistanceCode code(sequence, radius);
    const auto [bits, mass] = code.expected_length(condensed);
    ASSERT_NEAR(mass, 1.0, 1e-9);
    EXPECT_GE(bits + 1e-9, condensed.entropy())
        << "decay_rate=" << decay_rate;
  }
}

TEST(Table2Integration, RandomizedNoCdFollowsLogOver2bShape) {
  // Theorem 3.6: t(n) = Theta(log n / 2^b).
  constexpr std::size_t k = 2500;
  std::vector<double> predicted;
  std::vector<double> measured;
  const double logn = std::log2(static_cast<double>(kNetwork));
  for (std::size_t b : {0ul, 1ul, 2ul, 3ul, 4ul}) {
    const core::RangeGroupAdvice advice(kNetwork, b);
    std::vector<std::size_t> participants(k);
    for (std::size_t i = 0; i < k; ++i) participants[i] = i;
    const std::size_t group =
        core::bits_to_index(advice.advise(participants));
    const core::TruncatedDecaySchedule schedule(
        advice.ranges_in_group(group));
    const auto m = harness::measure_uniform_no_cd_fixed_k(
        schedule, k, 4000, /*seed=*/117,
        {.max_rounds = 1 << 14, .engine = harness::NoCdEngine::kBinomial});
    ASSERT_DOUBLE_EQ(m.success_rate, 1.0);
    predicted.push_back(logn / std::exp2(static_cast<double>(b)));
    measured.push_back(m.rounds.mean);
  }
  const auto fit = harness::fit_through_origin(predicted, measured);
  EXPECT_GT(fit.r_squared, 0.85);
  // The two largest-b points both sit near the O(1) floor, so demand a
  // high-but-not-perfect rank correlation plus the headline ratio.
  EXPECT_GT(harness::spearman(predicted, measured), 0.85);
  EXPECT_GT(measured.front(), 2.5 * measured.back());
}

TEST(Table2Integration, DeterministicShapesMatchTheorems34And35) {
  constexpr std::size_t n = 1 << 10;
  // No CD (Theorem 3.4): worst case ~ n / 2^b.
  std::vector<double> no_cd_worst;
  for (std::size_t b : {0ul, 2ul, 4ul}) {
    const core::SubtreeScanProtocol protocol(n, b);
    const core::MinIdPrefixAdvice advice(n, b);
    no_cd_worst.push_back(harness::worst_case_deterministic_rounds(
        protocol, advice, n, /*k=*/3, false, 150, /*seed=*/119));
  }
  EXPECT_NEAR(no_cd_worst[0] / no_cd_worst[1], 4.0, 1.2);
  EXPECT_NEAR(no_cd_worst[1] / no_cd_worst[2], 4.0, 1.2);

  // CD (Theorem 3.5): worst case ~ log n - b (additive).
  std::vector<double> cd_worst;
  for (std::size_t b : {0ul, 3ul, 6ul, 9ul}) {
    const core::TreeDescentCdProtocol protocol(n, b);
    const core::MinIdPrefixAdvice advice(n, b);
    cd_worst.push_back(harness::worst_case_deterministic_rounds(
        protocol, advice, n, /*k=*/3, true, 150, /*seed=*/121));
  }
  for (std::size_t i = 1; i < cd_worst.size(); ++i) {
    EXPECT_NEAR(cd_worst[i - 1] - cd_worst[i], 3.0, 1.5)
        << "step " << i;
  }
}

TEST(Table2Integration, RandomizedCdIsAdditiveInAdvice) {
  // Theorem 3.7: t(n) = Theta(log log n - b).
  constexpr std::size_t k = 2500;
  std::vector<double> measured;
  for (std::size_t b : {0ul, 2ul, 4ul}) {
    const core::RangeGroupAdvice advice(kNetwork, b);
    std::vector<std::size_t> participants(k);
    for (std::size_t i = 0; i < k; ++i) participants[i] = i;
    const std::size_t group =
        core::bits_to_index(advice.advise(participants));
    const core::TruncatedWillardPolicy policy(
        advice.ranges_in_group(group));
    const auto m = harness::measure_uniform_cd_fixed_k(
        policy, k, 4000, /*seed=*/123, {.max_rounds = 1 << 12});
    ASSERT_DOUBLE_EQ(m.success_rate, 1.0);
    measured.push_back(m.rounds.mean);
  }
  // Strictly improving, and the full-advice end approaches O(1).
  EXPECT_GT(measured[0], measured[1]);
  EXPECT_GT(measured[1], measured[2]);
  EXPECT_LT(measured[2], measured[0]);
}

TEST(BaselineIntegration, PredictionsInterpolateBetweenBestAndWorstCase) {
  // The introduction's framing: perfect prediction ~ O(1) (fixed 1/k),
  // no prediction ~ decay's O(log n); the likelihood schedule moves
  // between them as entropy moves 0 -> max.
  constexpr std::size_t n = 1 << 12;
  constexpr std::size_t k = 1500;
  const auto point = info::SizeDistribution::point_mass(n, k);
  // Proportional cycling revisits the predicted range nearly every
  // round, realising the O(1) expected time a point prediction allows.
  const core::LikelihoodOrderedSchedule perfect(
      point.condense(), core::CycleMode::kProportional);
  const baselines::DecaySchedule decay(n);
  const auto m_perfect = harness::measure_uniform_no_cd_fixed_k(
      perfect, k, 4000, /*seed=*/127,
      {.max_rounds = 1 << 14, .engine = harness::NoCdEngine::kBinomial});
  const auto m_decay = harness::measure_uniform_no_cd_fixed_k(
      decay, k, 4000, /*seed=*/127,
      {.max_rounds = 1 << 14, .engine = harness::NoCdEngine::kBinomial});
  EXPECT_LT(m_perfect.rounds.mean, m_decay.rounds.mean);
  EXPECT_LT(m_perfect.rounds.mean, 8.0);
}

}  // namespace
}  // namespace crp
