// Statistical cross-validation of the analytic batch engine
// (channel/batch.h) against the binomial and per-player simulators and
// the exact closed forms of harness/exact.h: same distribution of solve
// rounds (full CDF, not just the mean), the round budget, and correct
// handling of the degenerate schedules.
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "channel/batch.h"
#include "channel/rng.h"
#include "core/likelihood_schedule.h"
#include "harness/exact.h"
#include "harness/measure.h"
#include "info/distribution.h"
#include "predict/families.h"

namespace crp::channel {
namespace {

class ConstantSchedule final : public ProbabilitySchedule {
 public:
  explicit ConstantSchedule(double p) : p_(p) {}
  double probability(std::size_t) const override { return p_; }
  std::size_t period() const override { return 1; }
  std::string name() const override { return "constant"; }

 private:
  double p_;
};

/// Same decay probabilities but *without* the period() hint, forcing
/// the sampler down the lazily tabulated aperiodic path.
class UnhintedDecay final : public ProbabilitySchedule {
 public:
  explicit UnhintedDecay(std::size_t n) : decay_(n) {}
  double probability(std::size_t round) const override {
    return decay_.probability(round);
  }
  std::string name() const override { return "unhinted-decay"; }

 private:
  baselines::DecaySchedule decay_;
};

TEST(BatchEngine, SolveByCurveMatchesExactProfile) {
  // The whole CDF of the sampled solve round must match the closed
  // form, as it already does for the per-round simulator.
  constexpr std::size_t n = 1 << 8;
  constexpr std::size_t k = 60;
  const baselines::DecaySchedule decay(n);
  constexpr std::size_t horizon = 40;
  const auto exact = harness::exact_profile_no_cd(decay, k, horizon);
  const BatchNoCdSampler sampler(decay);
  constexpr std::size_t kTrials = 40000;
  std::vector<double> empirical(horizon + 1, 0.0);
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto rng = derive_rng(103, t);
    const auto result = sampler.sample(k, rng, 1 << 14);
    ASSERT_TRUE(result.solved);
    for (std::size_t r = result.rounds; r <= horizon; ++r) {
      empirical[r] += 1.0;
    }
  }
  for (auto& v : empirical) v /= kTrials;
  for (std::size_t r = 1; r <= horizon; r += 3) {
    EXPECT_NEAR(empirical[r], exact.solve_by[r], 0.012) << "round " << r;
  }
}

TEST(BatchEngine, AperiodicPathMatchesExactProfile) {
  constexpr std::size_t n = 1 << 8;
  constexpr std::size_t k = 25;
  const UnhintedDecay schedule(n);
  ASSERT_EQ(schedule.period(), 0u);
  constexpr std::size_t horizon = 30;
  const auto exact = harness::exact_profile_no_cd(schedule, k, horizon);
  const BatchNoCdSampler sampler(schedule);
  constexpr std::size_t kTrials = 30000;
  std::vector<double> empirical(horizon + 1, 0.0);
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto rng = derive_rng(107, t);
    const auto result = sampler.sample(k, rng, 1 << 14);
    ASSERT_TRUE(result.solved);
    for (std::size_t r = result.rounds; r <= horizon; ++r) {
      empirical[r] += 1.0;
    }
  }
  for (auto& v : empirical) v /= kTrials;
  for (std::size_t r = 1; r <= horizon; r += 3) {
    EXPECT_NEAR(empirical[r], exact.solve_by[r], 0.012) << "round " << r;
  }
}

TEST(BatchEngine, ThreeEnginesAgreeOnRoundDistribution) {
  // batch vs binomial vs per-player at fixed seeds: equal means (within
  // Monte-Carlo noise) and equal tail quantiles.
  constexpr std::size_t n = 1 << 10;
  constexpr std::size_t k = 100;
  constexpr std::size_t kTrials = 20000;
  const baselines::DecaySchedule decay(n);
  const harness::MeasureOptions base{.max_rounds = 1 << 14, .threads = 1};
  auto batch = base;
  batch.engine = harness::NoCdEngine::kBatch;
  auto binomial = base;
  binomial.engine = harness::NoCdEngine::kBinomial;
  auto per_player = base;
  per_player.engine = harness::NoCdEngine::kPerPlayer;
  const auto m_batch =
      harness::measure_uniform_no_cd_fixed_k(decay, k, kTrials, 11, batch);
  const auto m_binomial =
      harness::measure_uniform_no_cd_fixed_k(decay, k, kTrials, 12, binomial);
  const auto m_players = harness::measure_uniform_no_cd_fixed_k(
      decay, k, kTrials, 13, per_player);
  EXPECT_DOUBLE_EQ(m_batch.success_rate, 1.0);
  EXPECT_NEAR(m_batch.rounds.mean, m_binomial.rounds.mean,
              0.05 * m_binomial.rounds.mean);
  EXPECT_NEAR(m_batch.rounds.mean, m_players.rounds.mean,
              0.05 * m_players.rounds.mean);
  EXPECT_NEAR(m_batch.rounds.p90, m_binomial.rounds.p90,
              0.1 * m_binomial.rounds.p90 + 1.0);
}

TEST(BatchEngine, AgreesUnderDrawnSizesAndLikelihoodSchedule) {
  // The Table 1 configuration in miniature: likelihood-ordered
  // schedule, sizes drawn from the lifted prediction.
  constexpr std::size_t n = 1 << 10;
  const auto condensed =
      predict::uniform_over_ranges(info::num_ranges(n), 6);
  const auto actual =
      predict::lift(condensed, n, predict::RangePlacement::kHighEndpoint);
  const core::LikelihoodOrderedSchedule schedule(condensed);
  constexpr std::size_t kTrials = 20000;
  const harness::MeasureOptions batch{.max_rounds = 1 << 14,
                                      .threads = 1,
                                      .engine = harness::NoCdEngine::kBatch};
  const harness::MeasureOptions binomial{
      .max_rounds = 1 << 14,
      .threads = 1,
      .engine = harness::NoCdEngine::kBinomial};
  const auto m_batch =
      harness::measure_uniform_no_cd(schedule, actual, kTrials, 21, batch);
  const auto m_binomial = harness::measure_uniform_no_cd(schedule, actual,
                                                         kTrials, 22, binomial);
  EXPECT_NEAR(m_batch.rounds.mean, m_binomial.rounds.mean,
              0.06 * m_binomial.rounds.mean);
  for (double budget : {5.0, 20.0, 80.0}) {
    EXPECT_NEAR(m_batch.solved_within(budget),
                m_binomial.solved_within(budget), 0.015)
        << "budget " << budget;
  }
}

TEST(BatchEngine, DegenerateSchedules) {
  auto rng = make_rng(6);
  // Zero probability: never solves, reports the full budget.
  const ConstantSchedule zero(0.0);
  const BatchNoCdSampler silent(zero);
  const auto unsolved = silent.sample(5, rng, 100);
  EXPECT_FALSE(unsolved.solved);
  EXPECT_EQ(unsolved.rounds, 100u);
  // All-transmit with two players: guaranteed collision forever.
  const ConstantSchedule one(1.0);
  const BatchNoCdSampler all_transmit(one);
  const auto collided = all_transmit.sample(2, rng, 50);
  EXPECT_FALSE(collided.solved);
  // All-transmit with a single player: immediate success.
  const auto solo = all_transmit.sample(1, rng, 50);
  EXPECT_TRUE(solo.solved);
  EXPECT_EQ(solo.rounds, 1u);
  // k = 0 is rejected like the simulator rejects it.
  EXPECT_THROW(silent.sample(0, rng), std::invalid_argument);
}

TEST(BatchEngine, GeometricTailSpansManyPeriods) {
  // Tiny constant success probability: the solve round is geometric
  // with mean 1/s, reaching thousands of periods; exercises the
  // analytic whole-period skipping.
  constexpr std::size_t k = 2;
  constexpr double p = 0.005;
  const ConstantSchedule schedule(p);
  const double s = 2.0 * p * (1.0 - p);  // k p (1-p)^{k-1}
  const BatchNoCdSampler sampler(schedule);
  constexpr std::size_t kTrials = 30000;
  double total = 0.0;
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto rng = derive_rng(51, t);
    const auto result = sampler.sample(k, rng, 1 << 20);
    ASSERT_TRUE(result.solved);
    total += static_cast<double>(result.rounds);
  }
  EXPECT_NEAR(total / kTrials, 1.0 / s, 0.03 / s);
}

TEST(BatchEngine, SureSuccessRoundInPeriodMatchesExactProfile) {
  // k = 1 on reverse decay: the last round of every sweep has p = 1,
  // so one period's log-survival is -inf. Regression test: the period
  // arithmetic must special-case this (0 * -inf is NaN, which once
  // collapsed the whole distribution onto round 1).
  const baselines::ReverseDecaySchedule schedule(64);  // period 7
  const BatchNoCdSampler sampler(schedule);
  constexpr std::size_t kPeriod = 7;
  const auto exact = harness::exact_profile_no_cd(schedule, 1, kPeriod);
  constexpr std::size_t kTrials = 30000;
  std::vector<double> empirical(kPeriod + 1, 0.0);
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto rng = derive_rng(71, t);
    const auto result = sampler.sample(1, rng, 1 << 10);
    ASSERT_TRUE(result.solved);
    ASSERT_LE(result.rounds, kPeriod);
    for (std::size_t r = result.rounds; r <= kPeriod; ++r) {
      empirical[r] += 1.0;
    }
  }
  for (auto& v : empirical) v /= kTrials;
  EXPECT_DOUBLE_EQ(exact.solve_by[kPeriod], 1.0);
  for (std::size_t r = 1; r <= kPeriod; ++r) {
    EXPECT_NEAR(empirical[r], exact.solve_by[r], 0.012) << "round " << r;
  }
}

TEST(BatchEngine, RespectsMaxRoundsMidPeriod) {
  // A budget that is not a multiple of the period: solve rounds past
  // the budget must be reported unsolved at exactly the budget.
  const baselines::DecaySchedule decay(1 << 10);  // period 11
  const BatchNoCdSampler sampler(decay);
  constexpr std::size_t kBudget = 7;  // < one period
  std::size_t solved = 0;
  for (std::uint64_t t = 0; t < 2000; ++t) {
    auto rng = derive_rng(61, t);
    const auto result = sampler.sample(50, rng, kBudget);
    if (result.solved) {
      ++solved;
      EXPECT_LE(result.rounds, kBudget);
    } else {
      EXPECT_EQ(result.rounds, kBudget);
    }
  }
  EXPECT_GT(solved, 0u);
  EXPECT_LT(solved, 2000u);
}

}  // namespace
}  // namespace crp::channel
