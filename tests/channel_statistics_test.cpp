// Statistical validation of the channel engines beyond mean agreement:
// winner uniformity, per-round outcome frequencies against the exact
// closed forms, trace/result consistency, and the geometric repetition
// structure (pass-level memorylessness) of cycling schedules.
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "channel/rng.h"
#include "channel/simulator.h"
#include "core/likelihood_schedule.h"
#include "harness/exact.h"
#include "harness/measure.h"
#include "info/distribution.h"
#include "predict/families.h"

namespace crp::channel {
namespace {

TEST(WinnerDistribution, PerPlayerEngineIsSymmetricAcrossIds) {
  // Every participant must be equally likely to win under a uniform
  // algorithm — identity cannot matter (Section 2.2's observation).
  constexpr std::size_t k = 8;
  const baselines::DecaySchedule decay(64);
  std::vector<std::size_t> wins(k, 0);
  constexpr std::size_t kTrials = 40000;
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto rng = derive_rng(77, t);
    const auto result =
        run_uniform_no_cd_per_player(decay, k, rng, {1 << 12});
    ASSERT_TRUE(result.solved);
    ++wins[*result.winner];
  }
  for (std::size_t id = 0; id < k; ++id) {
    EXPECT_NEAR(static_cast<double>(wins[id]) / kTrials, 1.0 / k, 0.01)
        << "id " << id;
  }
}

TEST(OutcomeFrequencies, MatchExactProbabilitiesPerRound) {
  // One fixed probe: empirical silence/success/collision frequencies
  // must match the closed forms in harness/exact.h.
  constexpr std::size_t k = 12;
  constexpr double p = 0.11;
  const auto expected = harness::round_outcome_probabilities(k, p);
  std::size_t silence = 0;
  std::size_t success = 0;
  std::size_t collision = 0;
  constexpr std::size_t kTrials = 200000;
  auto rng = make_rng(83);
  for (std::size_t t = 0; t < kTrials; ++t) {
    switch (feedback_for(sample_transmitters(k, p, rng))) {
      case Feedback::kSilence: ++silence; break;
      case Feedback::kSuccess: ++success; break;
      case Feedback::kCollision: ++collision; break;
    }
  }
  EXPECT_NEAR(static_cast<double>(silence) / kTrials, expected.silence,
              0.005);
  EXPECT_NEAR(static_cast<double>(success) / kTrials, expected.success,
              0.005);
  EXPECT_NEAR(static_cast<double>(collision) / kTrials,
              expected.collision, 0.005);
}

TEST(TraceConsistency, OneRecordPerRoundEndingInTheSuccess) {
  const baselines::DecaySchedule decay(256);
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    ExecutionTrace trace;
    auto rng = derive_rng(89, seed);
    const auto result =
        run_uniform_no_cd(decay, 100, rng, {.max_rounds = 1 << 12,
                                            .trace = &trace});
    ASSERT_TRUE(result.solved);
    EXPECT_EQ(trace.size(), result.rounds);
    // Exactly the final round is a success; no earlier one.
    for (std::size_t r = 0; r + 1 < trace.size(); ++r) {
      EXPECT_NE(trace[r].feedback, Feedback::kSuccess);
    }
    EXPECT_EQ(trace.back().feedback, Feedback::kSuccess);
  }
}

TEST(PassMemorylessness, CyclingScheduleSolvesGeometricallyAcrossPasses) {
  // A repeating pass makes "solved within pass j" i.i.d. across passes:
  // Pr(T > j*L) = (1 - q)^j where q = Pr(solved in one pass). Check
  // the empirical pass-survival curve against the geometric law.
  constexpr std::size_t n = 1 << 10;
  const auto condensed =
      crp::predict::uniform_over_ranges(info::num_ranges(n), 10);
  const crp::core::LikelihoodOrderedSchedule schedule(condensed);
  const std::size_t pass = schedule.pass_length();
  constexpr std::size_t k = 200;
  constexpr std::size_t kTrials = 30000;
  std::vector<double> survived_by_pass(6, 0.0);
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto rng = derive_rng(97, t);
    const auto result = run_uniform_no_cd(schedule, k, rng, {1 << 14});
    ASSERT_TRUE(result.solved);
    for (std::size_t j = 0; j < survived_by_pass.size(); ++j) {
      if (result.rounds > (j + 1) * pass) survived_by_pass[j] += 1.0;
    }
  }
  for (auto& v : survived_by_pass) v /= kTrials;
  const double q = 1.0 - survived_by_pass[0];
  ASSERT_GT(q, 0.05);
  for (std::size_t j = 1; j < survived_by_pass.size(); ++j) {
    const double predicted = std::pow(1.0 - q, double(j + 1));
    EXPECT_NEAR(survived_by_pass[j], predicted, 0.02)
        << "pass " << j + 1;
  }
}

TEST(ExactVsMonteCarlo, FullSolveByCurveAgreesForDecay) {
  // Not just the mean: the whole CDF must match between the exact
  // engine and the simulator.
  constexpr std::size_t n = 1 << 8;
  constexpr std::size_t k = 60;
  const baselines::DecaySchedule decay(n);
  constexpr std::size_t horizon = 40;
  const auto exact = harness::exact_profile_no_cd(decay, k, horizon);
  constexpr std::size_t kTrials = 40000;
  std::vector<double> empirical(horizon + 1, 0.0);
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto rng = derive_rng(101, t);
    const auto result = run_uniform_no_cd(decay, k, rng, {1 << 14});
    for (std::size_t r = result.rounds; r <= horizon; ++r) {
      empirical[r] += 1.0;
    }
  }
  for (auto& v : empirical) v /= kTrials;
  for (std::size_t r = 1; r <= horizon; r += 3) {
    EXPECT_NEAR(empirical[r], exact.solve_by[r], 0.012) << "round " << r;
  }
}

}  // namespace
}  // namespace crp::channel
