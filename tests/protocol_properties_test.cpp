// Cross-cutting property tests over the whole protocol zoo:
//  * every schedule emits probabilities in [0, 1] for a long horizon;
//  * every collision policy is a pure function of the history (replay
//    determinism) and respects prefix consistency under simulation;
//  * every uniform protocol solves every feasible size eventually.
#include <cmath>
#include <functional>
#include <memory>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "baselines/simple.h"
#include "baselines/willard.h"
#include "channel/rng.h"
#include "channel/simulator.h"
#include "core/advice_randomized.h"
#include "core/coded_search.h"
#include "core/likelihood_schedule.h"
#include "harness/measure.h"
#include "info/distribution.h"
#include "predict/families.h"

namespace crp {
namespace {

constexpr std::size_t kNetwork = 1 << 12;  // 12 ranges

struct ScheduleCase {
  std::string name;
  std::function<std::shared_ptr<channel::ProbabilitySchedule>()> make;
};

std::vector<ScheduleCase> schedule_zoo() {
  const std::size_t ranges = info::num_ranges(kNetwork);
  return {
      {"decay",
       [] { return std::make_shared<baselines::DecaySchedule>(kNetwork); }},
      {"reverse-decay",
       [] {
         return std::make_shared<baselines::ReverseDecaySchedule>(kNetwork);
       }},
      {"fixed",
       [] {
         return std::make_shared<baselines::FixedProbabilitySchedule>(
             baselines::FixedProbabilitySchedule::for_size_estimate(100));
       }},
      {"likelihood-repeat",
       [ranges] {
         return std::make_shared<core::LikelihoodOrderedSchedule>(
             predict::zipf_ranges(ranges, 1.0));
       }},
      {"likelihood-proportional",
       [ranges] {
         return std::make_shared<core::LikelihoodOrderedSchedule>(
             predict::zipf_ranges(ranges, 1.0),
             core::CycleMode::kProportional);
       }},
      {"truncated-decay",
       [] {
         return std::make_shared<core::TruncatedDecaySchedule>(
             std::vector<std::size_t>{3, 4, 5});
       }},
      {"truncated-decay-fallback",
       [ranges] {
         std::vector<std::size_t> all(ranges);
         for (std::size_t i = 0; i < ranges; ++i) all[i] = i + 1;
         return std::make_shared<core::TruncatedDecaySchedule>(
             std::vector<std::size_t>{3, 4, 5}, all);
       }},
  };
}

struct PolicyCase {
  std::string name;
  std::function<std::shared_ptr<channel::CollisionPolicy>()> make;
};

std::vector<PolicyCase> policy_zoo() {
  const std::size_t ranges = info::num_ranges(kNetwork);
  return {
      {"willard",
       [] { return std::make_shared<baselines::WillardPolicy>(kNetwork); }},
      {"willard-repeats",
       [] {
         return std::make_shared<baselines::WillardPolicy>(kNetwork, 3);
       }},
      {"coded-huffman",
       [ranges] {
         return std::make_shared<core::CodedSearchPolicy>(
             predict::geometric_ranges(ranges, 0.6));
       }},
      {"coded-shannon-fano",
       [ranges] {
         return std::make_shared<core::CodedSearchPolicy>(
             predict::geometric_ranges(ranges, 0.6),
             core::CodeBackend::kShannonFano);
       }},
      {"truncated-willard",
       [] {
         return std::make_shared<core::TruncatedWillardPolicy>(
             std::vector<std::size_t>{5, 6, 7, 8});
       }},
      {"truncated-willard-fallback",
       [ranges] {
         std::vector<std::size_t> all(ranges);
         for (std::size_t i = 0; i < ranges; ++i) all[i] = i + 1;
         return std::make_shared<core::TruncatedWillardPolicy>(
             std::vector<std::size_t>{5, 6}, all);
       }},
  };
}

class ScheduleProperties
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScheduleProperties, ProbabilitiesStayInUnitInterval) {
  const auto schedule = schedule_zoo()[GetParam()].make();
  for (std::size_t round = 0; round < 5000; ++round) {
    const double p = schedule->probability(round);
    EXPECT_GE(p, 0.0) << schedule->name() << " round " << round;
    EXPECT_LE(p, 1.0) << schedule->name() << " round " << round;
  }
}

TEST_P(ScheduleProperties, ScheduleIsDeterministic) {
  const auto a = schedule_zoo()[GetParam()].make();
  const auto b = schedule_zoo()[GetParam()].make();
  for (std::size_t round = 0; round < 500; ++round) {
    EXPECT_DOUBLE_EQ(a->probability(round), b->probability(round));
  }
}

TEST_P(ScheduleProperties, EventuallySolvesAFeasibleSize) {
  const auto cases = schedule_zoo();  // keep the zoo alive past [i]
  const auto& test_case = cases[GetParam()];
  const auto schedule = test_case.make();
  // Pick a size the schedule can plausibly serve: truncated variants
  // without fallback only cover their group, so probe a size in range
  // 4 (their groups include ranges 3..5); the rest get k = 100.
  const bool truncated = test_case.name == "truncated-decay";
  const std::size_t k = truncated ? 12 : 100;
  const auto m = harness::measure_uniform_no_cd_fixed_k(
      *schedule, k, 300, /*seed=*/17,
      {.max_rounds = 1 << 16, .engine = harness::NoCdEngine::kBinomial});
  EXPECT_DOUBLE_EQ(m.success_rate, 1.0) << test_case.name;
}

INSTANTIATE_TEST_SUITE_P(Zoo, ScheduleProperties,
                         ::testing::Range<std::size_t>(0, 7));

class PolicyProperties : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PolicyProperties, ProbabilitiesValidOnRandomHistories) {
  const auto policy = policy_zoo()[GetParam()].make();
  auto rng = channel::make_rng(23);
  std::uniform_int_distribution<int> coin(0, 1);
  for (int trial = 0; trial < 200; ++trial) {
    channel::BitString history;
    for (int len = 0; len < 40; ++len) {
      const double p = policy->probability(history);
      EXPECT_GE(p, 0.0) << policy->name();
      EXPECT_LE(p, 1.0) << policy->name();
      history.push_back(coin(rng) == 1);
    }
  }
}

TEST_P(PolicyProperties, ReplayIsAPureFunctionOfHistory) {
  const auto a = policy_zoo()[GetParam()].make();
  const auto b = policy_zoo()[GetParam()].make();
  auto rng = channel::make_rng(29);
  std::uniform_int_distribution<int> coin(0, 1);
  channel::BitString history;
  for (int len = 0; len < 200; ++len) {
    EXPECT_DOUBLE_EQ(a->probability(history), b->probability(history))
        << a->name() << " at length " << len;
    history.push_back(coin(rng) == 1);
  }
}

TEST_P(PolicyProperties, SolvesAFeasibleSizeUnderSimulation) {
  const auto cases = policy_zoo();  // keep the zoo alive past [i]
  const auto& test_case = cases[GetParam()];
  const auto policy = test_case.make();
  const bool truncated = test_case.name == "truncated-willard";
  // Truncated group covers ranges 5..8 -> pick k in range 6.
  const std::size_t k = truncated ? 50 : 100;
  const auto m = harness::measure_uniform_cd_fixed_k(
      *policy, k, 300, /*seed=*/31, {.max_rounds = 1 << 14});
  EXPECT_DOUBLE_EQ(m.success_rate, 1.0) << test_case.name;
}

INSTANTIATE_TEST_SUITE_P(Zoo, PolicyProperties,
                         ::testing::Range<std::size_t>(0, 6));

}  // namespace
}  // namespace crp
