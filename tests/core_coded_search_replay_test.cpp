// Focused tests for the CodedSearchPolicy replay state machine: the
// class-visiting order across passes, including the subtle rule that
// zero-predicted-mass classes are searched on every fourth pass only
// (pass 0 included) — the property that keeps the algorithm both fast
// under good predictions and correct under infinitely-diverged ones.
#include "core/coded_search.h"

#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "info/distribution.h"
#include "predict/families.h"

namespace crp::core {
namespace {

/// Drives the policy with an all-silence history and records the range
/// probed in each round. Silence always shrinks the search window, so
/// the probe sequence deterministically walks the class schedule.
std::vector<std::size_t> silent_probe_sequence(
    const CodedSearchPolicy& policy, std::size_t rounds) {
  std::vector<std::size_t> probes;
  channel::BitString history;
  for (std::size_t r = 0; r < rounds; ++r) {
    const double p = policy.probability(history);
    probes.push_back(static_cast<std::size_t>(
        std::llround(-std::log2(p))));
    history.push_back(false);  // silence
  }
  return probes;
}

TEST(CodedSearchReplay, SteeringFeedbackReachesEveryTargetInPassZero) {
  // A probe below the target collides (probability too high for k),
  // above it stays silent. Under that ideal steering, every range —
  // zero predicted mass or not — must be probed within the first pass,
  // which is what makes infinitely-diverged predictions survivable.
  const auto prediction = info::CondensedDistribution::point_mass(6, 3);
  const CodedSearchPolicy policy(prediction);
  ASSERT_EQ(policy.classes().front(), (std::vector<std::size_t>{3}));
  for (std::size_t target = 1; target <= 6; ++target) {
    channel::BitString history;
    bool reached = false;
    for (std::size_t round = 0; round < 4 * policy.pass_length();
         ++round) {
      const auto probe = static_cast<std::size_t>(
          std::llround(-std::log2(policy.probability(history))));
      if (probe == target) {
        reached = true;
        break;
      }
      history.push_back(probe < target);  // collision iff probe small
    }
    EXPECT_TRUE(reached) << "target " << target;
  }
}

TEST(CodedSearchReplay, ZeroMassClassesSkippedOnPassesOneToThree) {
  const auto prediction = info::CondensedDistribution::point_mass(6, 3);
  const CodedSearchPolicy policy(prediction);
  const auto probes = silent_probe_sequence(policy, 60);
  // Locate the pass boundaries: a probe of range 3 starts each pass
  // (class 0 = {3} and a singleton class is exhausted after one probe).
  std::vector<std::size_t> pass_starts;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (probes[i] == 3) pass_starts.push_back(i);
  }
  ASSERT_GE(pass_starts.size(), 5u);
  // Pass 0 is long (visits all zero classes); passes 1-3 are exactly
  // one probe long (zero classes skipped); pass 4 is long again.
  const std::size_t pass0_len = pass_starts[1] - pass_starts[0];
  const std::size_t pass1_len = pass_starts[2] - pass_starts[1];
  const std::size_t pass2_len = pass_starts[3] - pass_starts[2];
  EXPECT_GT(pass0_len, 1u);
  EXPECT_EQ(pass1_len, 1u);
  EXPECT_EQ(pass2_len, 1u);
  const std::size_t pass3_start = pass_starts[3];
  const std::size_t pass4_start = pass_starts[4];
  EXPECT_EQ(pass4_start - pass3_start, 1u);  // pass 3 also short
  // Pass 4 (index 4 % 4 == 0) revisits the zero classes.
  ASSERT_GE(pass_starts.size(), 6u);
  EXPECT_GT(pass_starts[5] - pass_starts[4], 1u);
}

TEST(CodedSearchReplay, AllPositiveMassPredictionNeverSkips) {
  const auto prediction = crp::predict::uniform_over_ranges(8, 8);
  const CodedSearchPolicy policy(prediction);
  // Single class of 8 ranges, every pass identical: under all-silence
  // the binary search halves down in ceil(log2 8) + 1 = 4 probes, then
  // restarts at the median.
  const auto probes = silent_probe_sequence(policy, 12);
  EXPECT_EQ(probes[0], probes[4]);
  EXPECT_EQ(probes[1], probes[5]);
  // Probes within a pass strictly decrease (silence -> smaller ranges).
  EXPECT_GT(probes[0], probes[1]);
  EXPECT_GT(probes[1], probes[2]);
}

TEST(CodedSearchReplay, CollisionSteersToLargerRanges) {
  const auto prediction = crp::predict::uniform_over_ranges(8, 8);
  const CodedSearchPolicy policy(prediction);
  const double first = policy.probability({});
  const double after_collision = policy.probability({true});
  const double after_silence = policy.probability({false});
  // Collision -> larger range -> smaller probability; silence -> the
  // opposite.
  EXPECT_LT(after_collision, first);
  EXPECT_GT(after_silence, first);
}

TEST(CodedSearchReplay, ProbeProbabilitiesAreAlwaysPowersOfTwo) {
  const auto prediction =
      crp::predict::geometric_ranges(10, 0.4);
  const CodedSearchPolicy policy(prediction);
  channel::BitString history;
  std::mt19937_64 rng(5);
  for (int i = 0; i < 300; ++i) {
    const double p = policy.probability(history);
    const double log2p = -std::log2(p);
    EXPECT_NEAR(log2p, std::round(log2p), 1e-12);
    EXPECT_GE(log2p, 1.0);
    EXPECT_LE(log2p, 10.0);
    history.push_back((rng() & 1) != 0);
  }
}

}  // namespace
}  // namespace crp::core
