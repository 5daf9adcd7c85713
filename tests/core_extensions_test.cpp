// Tests for the extension features: faulty advice (Section 1.3's
// robustness theme), fallback sweeps in the truncated protocols,
// energy accounting, and the Pliam-style guesswork construction
// backing the Section 2.5 conjecture.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "baselines/simple.h"
#include "channel/rng.h"
#include "channel/simulator.h"
#include "core/advice.h"
#include "core/advice_deterministic.h"
#include "core/advice_randomized.h"
#include "core/faulty_advice.h"
#include "core/likelihood_schedule.h"
#include "harness/measure.h"
#include "info/distribution.h"
#include "predict/families.h"

namespace crp::core {
namespace {

// ---- faulty advice ----

TEST(FaultyAdviceTest, ZeroFlipProbabilityIsIdentity) {
  constexpr std::size_t n = 256;
  const auto inner = std::make_shared<MinIdPrefixAdvice>(n, 4);
  const FaultyAdvice faulty(inner, 0.0, /*seed=*/7);
  auto rng = channel::make_rng(5);
  for (int t = 0; t < 50; ++t) {
    const auto set = harness::random_participant_set(n, 6, rng);
    EXPECT_EQ(faulty.advise(set), inner->advise(set));
  }
  EXPECT_EQ(faulty.bits(), 4u);
  EXPECT_EQ(faulty.name(), "min-id-prefix+faulty");
}

TEST(FaultyAdviceTest, CorruptionIsDeterministicPerParticipantSet) {
  constexpr std::size_t n = 256;
  const auto inner = std::make_shared<MinIdPrefixAdvice>(n, 8);
  const FaultyAdvice faulty(inner, 0.5, /*seed=*/7);
  const std::vector<std::size_t> set{10, 20, 30};
  EXPECT_EQ(faulty.advise(set), faulty.advise(set));
  // A different seed gives (almost surely) different corruption on at
  // least one of several sets.
  const FaultyAdvice other(inner, 0.5, /*seed=*/8);
  bool differs = false;
  auto rng = channel::make_rng(9);
  for (int t = 0; t < 20 && !differs; ++t) {
    const auto probe = harness::random_participant_set(n, 5, rng);
    differs = faulty.advise(probe) != other.advise(probe);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultyAdviceTest, SubtreeScanStaysCorrectViaFallbackSweep) {
  // Wrong advice sends the scan to the wrong subtree; the fallback
  // full sweep still resolves, just slower.
  constexpr std::size_t n = 256;
  constexpr std::size_t b = 4;
  const SubtreeScanProtocol protocol(n, b);
  const auto inner = std::make_shared<MinIdPrefixAdvice>(n, b);
  const FaultyAdvice faulty(inner, 1.0, /*seed=*/11);  // always wrong
  auto rng = channel::make_rng(13);
  for (int t = 0; t < 50; ++t) {
    const auto set = harness::random_participant_set(n, 5, rng);
    const auto result = channel::run_deterministic(
        protocol, faulty.advise(set), set, false, {.max_rounds = 4 * n});
    ASSERT_TRUE(result.solved);
  }
}

TEST(FaultyAdviceTest, TreeDescentEscalatesOutOfWrongSubtree) {
  constexpr std::size_t n = 256;
  constexpr std::size_t b = 4;
  const TreeDescentCdProtocol protocol(n, b);
  const auto inner = std::make_shared<MinIdPrefixAdvice>(n, b);
  const FaultyAdvice faulty(inner, 1.0, /*seed=*/17);
  auto rng = channel::make_rng(19);
  for (int t = 0; t < 50; ++t) {
    const auto set = harness::random_participant_set(n, 5, rng);
    const auto result = channel::run_deterministic(
        protocol, faulty.advise(set), set, true, {.max_rounds = 8 * n});
    ASSERT_TRUE(result.solved);
    // Wrong subtree costs at most its depth before escalation to the
    // full-tree descent.
    EXPECT_LE(result.rounds, 2 * id_tree_height(n) + 2);
  }
}

TEST(FaultyAdviceTest, GracefulDegradationWithFlipRate) {
  // Expected rounds of the advised scan grow smoothly with the flip
  // rate instead of jumping to failure.
  constexpr std::size_t n = 1 << 10;
  constexpr std::size_t b = 5;
  const SubtreeScanProtocol protocol(n, b);
  const auto inner = std::make_shared<MinIdPrefixAdvice>(n, b);
  const auto actual = info::SizeDistribution::uniform(64);
  std::vector<double> means;
  for (double flip : {0.0, 0.2, 1.0}) {
    const FaultyAdvice faulty(inner, flip, /*seed=*/23);
    const auto m = harness::measure_deterministic_advice(
        protocol, faulty, actual, n, false, 600, /*seed=*/29,
        {.max_rounds = 8 * n});
    ASSERT_DOUBLE_EQ(m.success_rate, 1.0) << "flip=" << flip;
    means.push_back(m.rounds.mean);
  }
  EXPECT_LT(means[0], means[1]);
  EXPECT_LT(means[1], means[2]);
}

TEST(FaultyAdviceTest, ValidatesInput) {
  const auto inner = std::make_shared<MinIdPrefixAdvice>(64, 2);
  EXPECT_THROW(FaultyAdvice(nullptr, 0.1, 1), std::invalid_argument);
  EXPECT_THROW(FaultyAdvice(inner, -0.1, 1), std::invalid_argument);
  EXPECT_THROW(FaultyAdvice(inner, 1.1, 1), std::invalid_argument);
}

// ---- fallback sweeps in truncated protocols ----

TEST(TruncatedFallback, DecayInterleavesFallbackEveryFourthSweep) {
  const TruncatedDecaySchedule schedule({5, 6}, {1, 2, 3, 4, 5, 6, 7, 8});
  // Period: 3 group sweeps (6 rounds) + fallback (8 rounds) = 14.
  for (std::size_t r = 0; r < 6; ++r) {
    EXPECT_EQ(schedule.range_for_round(r), 5 + (r % 2));
  }
  for (std::size_t r = 6; r < 14; ++r) {
    EXPECT_EQ(schedule.range_for_round(r), r - 5);
  }
  EXPECT_EQ(schedule.range_for_round(14), 5u);  // next period
}

TEST(TruncatedFallback, WrongGroupAdviceStillSolvesWithFallback) {
  constexpr std::size_t n = 1 << 16;
  constexpr std::size_t k = 700;  // true range 10
  std::vector<std::size_t> all_ranges(info::num_ranges(n));
  for (std::size_t i = 0; i < all_ranges.size(); ++i) {
    all_ranges[i] = i + 1;
  }
  // Advised group {1, 2}: never contains range 10.
  const TruncatedDecaySchedule with_fallback({1, 2}, all_ranges);
  const auto m = harness::measure_uniform_no_cd_fixed_k(
      with_fallback, k, 2000, /*seed=*/31,
      {.max_rounds = 1 << 14, .engine = harness::NoCdEngine::kBinomial});
  EXPECT_DOUBLE_EQ(m.success_rate, 1.0);

  const TruncatedDecaySchedule without({1, 2});
  const auto m_without = harness::measure_uniform_no_cd_fixed_k(
      without, k, 200, /*seed=*/31,
      {.max_rounds = 1 << 10, .engine = harness::NoCdEngine::kBinomial});
  EXPECT_LT(m_without.success_rate, 0.05);
}

TEST(TruncatedFallback, WillardFallbackRecoversFromWrongGroup) {
  constexpr std::size_t n = 1 << 16;
  constexpr std::size_t k = 700;
  std::vector<std::size_t> all_ranges(info::num_ranges(n));
  for (std::size_t i = 0; i < all_ranges.size(); ++i) {
    all_ranges[i] = i + 1;
  }
  const TruncatedWillardPolicy with_fallback({1, 2}, all_ranges);
  const auto m = harness::measure_uniform_cd_fixed_k(
      with_fallback, k, 2000, /*seed=*/37, {.max_rounds = 1 << 12});
  EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
}

TEST(TruncatedFallback, CorrectAdviceCostsOnlyConstantFactor) {
  constexpr std::size_t n = 1 << 16;
  constexpr std::size_t k = 700;
  const RangeGroupAdvice advice(n, 3);
  std::vector<std::size_t> participants(k);
  for (std::size_t i = 0; i < k; ++i) participants[i] = i;
  const std::size_t group = bits_to_index(advice.advise(participants));
  std::vector<std::size_t> all_ranges(info::num_ranges(n));
  for (std::size_t i = 0; i < all_ranges.size(); ++i) {
    all_ranges[i] = i + 1;
  }
  const TruncatedDecaySchedule plain(advice.ranges_in_group(group));
  const TruncatedDecaySchedule guarded(advice.ranges_in_group(group),
                                       all_ranges);
  const auto m_plain = harness::measure_uniform_no_cd_fixed_k(
      plain, k, 3000, /*seed=*/41,
      {.max_rounds = 1 << 12, .engine = harness::NoCdEngine::kBinomial});
  const auto m_guarded = harness::measure_uniform_no_cd_fixed_k(
      guarded, k, 3000, /*seed=*/41,
      {.max_rounds = 1 << 12, .engine = harness::NoCdEngine::kBinomial});
  EXPECT_LT(m_guarded.rounds.mean, 3.0 * m_plain.rounds.mean + 3.0);
}

// ---- energy accounting ----

TEST(Energy, CountsTransmissionsAcrossRounds) {
  // k = 2 with p = 1 collides forever: after R rounds, 2R transmissions.
  class AllTransmit final : public channel::ProbabilitySchedule {
   public:
    double probability(std::size_t) const override { return 1.0; }
    std::string name() const override { return "all"; }
  };
  const AllTransmit schedule;
  auto rng = channel::make_rng(43);
  const auto result =
      channel::run_uniform_no_cd(schedule, 2, rng, {.max_rounds = 10});
  EXPECT_FALSE(result.solved);
  EXPECT_EQ(result.transmissions, 20u);
}

TEST(Energy, SuccessfulRunsIncludeTheWinningTransmission) {
  const auto schedule =
      baselines::FixedProbabilitySchedule::for_size_estimate(1);
  auto rng = channel::make_rng(47);
  const auto result = channel::run_uniform_no_cd(schedule, 1, rng);
  ASSERT_TRUE(result.solved);
  EXPECT_EQ(result.transmissions, 1u);
}

TEST(Energy, DeterministicEngineCountsToo) {
  const baselines::RoundRobinProtocol protocol(16);
  const std::vector<std::size_t> participants{3};
  const auto result =
      channel::run_deterministic(protocol, {}, participants, false);
  ASSERT_TRUE(result.solved);
  EXPECT_EQ(result.rounds, 4u);
  EXPECT_EQ(result.transmissions, 1u);  // silent until its slot
}

TEST(Energy, GoodPredictionsSaveEnergyNotJustTime) {
  constexpr std::size_t n = 1 << 12;
  const auto actual = info::SizeDistribution::point_mass(n, 1000);
  const LikelihoodOrderedSchedule predicted(actual.condense());
  const baselines::DecaySchedule decay(n);
  double predicted_energy = 0.0;
  double decay_energy = 0.0;
  constexpr std::size_t kTrials = 1500;
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto rng_a = channel::derive_rng(51, t);
    auto rng_b = channel::derive_rng(53, t);
    predicted_energy += static_cast<double>(
        channel::run_uniform_no_cd(predicted, 1000, rng_a, {1 << 14})
            .transmissions);
    decay_energy += static_cast<double>(
        channel::run_uniform_no_cd(decay, 1000, rng_b, {1 << 14})
            .transmissions);
  }
  EXPECT_LT(predicted_energy, decay_energy);
}

// ---- Pliam construction (Section 2.5 conjecture support) ----

TEST(Guesswork, MatchesHandComputedValue) {
  const info::CondensedDistribution source{{0.5, 0.3, 0.2}};
  // Likelihood order 1, 2, 3: E[G] = .5*1 + .3*2 + .2*3 = 1.7.
  EXPECT_NEAR(crp::predict::expected_guesswork(source), 1.7, 1e-12);
}

TEST(Guesswork, SpikedUniformSeparatesGuessworkFromEntropy) {
  // Pliam's point: E[G] / 2^H is unbounded. With mass 1/2 on a spike
  // and 1/2 spread over m-1 symbols, H ~ 1 + (1/2) log2 m but
  // E[G] ~ m/4.
  double previous_ratio = 0.0;
  for (std::size_t m : {64ul, 256ul, 1024ul, 4096ul}) {
    const auto source = crp::predict::spiked_uniform(m, 0.5);
    const double ratio = crp::predict::expected_guesswork(source) /
                         std::exp2(source.entropy());
    EXPECT_GT(ratio, previous_ratio) << "m=" << m;
    previous_ratio = ratio;
  }
  EXPECT_GT(previous_ratio, 4.0);  // already far beyond any constant
}

TEST(Guesswork, UniformSourceGuessworkIsHalfAlphabet) {
  const auto uniform = info::CondensedDistribution::uniform(100);
  EXPECT_NEAR(crp::predict::expected_guesswork(uniform), 50.5, 1e-9);
}

TEST(Guesswork, ValidatesSpikeParameters) {
  EXPECT_THROW(crp::predict::spiked_uniform(1, 0.5),
               std::invalid_argument);
  EXPECT_THROW(crp::predict::spiked_uniform(8, 0.0),
               std::invalid_argument);
  EXPECT_THROW(crp::predict::spiked_uniform(8, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace crp::core
