// The exact analysis engine, and its agreement with the Monte-Carlo
// simulator — the library's strongest internal consistency check: two
// independent implementations of the channel semantics must agree.
#include "harness/exact.h"

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "baselines/simple.h"
#include "baselines/willard.h"
#include "channel/rng.h"
#include "core/coded_search.h"
#include "core/likelihood_schedule.h"
#include "harness/history_tree.h"
#include "harness/measure.h"
#include "info/distribution.h"
#include "predict/families.h"

namespace crp::harness {
namespace {

TEST(SuccessProbability, MatchesClosedForm) {
  EXPECT_DOUBLE_EQ(success_probability(1, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(success_probability(2, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(success_probability(5, 0.0), 0.0);
  // k = 2, p = 1/2: 2 * .5 * .5 = 0.5.
  EXPECT_NEAR(success_probability(2, 0.5), 0.5, 1e-12);
  // k = 3, p = 1/3: 3 * (1/3) * (2/3)^2 = 4/9.
  EXPECT_NEAR(success_probability(3, 1.0 / 3.0), 4.0 / 9.0, 1e-12);
  EXPECT_THROW(success_probability(2, 1.5), std::invalid_argument);
}

TEST(SuccessProbability, StableForHugeK) {
  // 10^7 players at p = 10^-7: s -> e^-1.
  const double s = success_probability(10000000, 1e-7);
  EXPECT_NEAR(s, std::exp(-1.0), 1e-3);
}

TEST(RoundOutcome, ProbabilitiesFormADistribution) {
  for (std::size_t k : {1ul, 2ul, 7ul, 100ul}) {
    for (double p : {0.0, 0.01, 0.37, 0.99, 1.0}) {
      const auto out = round_outcome_probabilities(k, p);
      EXPECT_GE(out.silence, 0.0);
      EXPECT_GE(out.success, 0.0);
      EXPECT_GE(out.collision, 0.0);
      EXPECT_NEAR(out.silence + out.success + out.collision, 1.0, 1e-12)
          << "k=" << k << " p=" << p;
    }
  }
}

TEST(RoundOutcome, CacheReturnsTheDirectResultBitForBit) {
  // Hits, misses, and the uncached path past the cache's capacity must
  // all equal the direct call exactly, so the expansion and the
  // engine's continuation stay bit-identical through the cache.
  OutcomeCache cache(37);
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i <= 100; ++i) {
      const double p = i / 100.0;
      const auto cached = cache(p);
      const auto direct = round_outcome_probabilities(37, p);
      EXPECT_EQ(cached.silence, direct.silence) << "p=" << p;
      EXPECT_EQ(cached.success, direct.success) << "p=" << p;
      EXPECT_EQ(cached.collision, direct.collision) << "p=" << p;
    }
  }
}

TEST(ExactNoCd, FixedProbabilityIsGeometric) {
  // With constant success probability s, Pr(solved by r) = 1-(1-s)^r
  // and E[T] = 1/s.
  constexpr std::size_t k = 10;
  const auto schedule =
      baselines::FixedProbabilitySchedule::for_size_estimate(k);
  const double s = success_probability(k, 1.0 / k);
  const auto profile = exact_profile_no_cd(schedule, k, 50);
  for (std::size_t r = 1; r <= 50; ++r) {
    EXPECT_NEAR(profile.solve_by[r],
                1.0 - std::pow(1.0 - s, static_cast<double>(r)), 1e-12);
  }
  EXPECT_NEAR(exact_expected_rounds_no_cd(schedule, k), 1.0 / s, 1e-6);
}

TEST(ExactNoCd, ThrowsWhenScheduleCannotSolve) {
  const baselines::FixedProbabilitySchedule schedule(0.0);
  EXPECT_THROW(
      exact_expected_rounds_no_cd(schedule, 5, 1e-9, /*max_horizon=*/1000),
      std::runtime_error);
}

TEST(ExactNoCd, AgreesWithMonteCarloForDecay) {
  constexpr std::size_t n = 1 << 10;
  const baselines::DecaySchedule decay(n);
  for (std::size_t k : {2ul, 37ul, 800ul}) {
    const double exact = exact_expected_rounds_no_cd(decay, k);
    const auto mc =
        measure_uniform_no_cd_fixed_k(
            decay, k, 20000, /*seed=*/3,
            {.max_rounds = 1 << 16, .engine = NoCdEngine::kBinomial});
    EXPECT_NEAR(mc.rounds.mean, exact, 4.0 * mc.rounds.ci95 + 0.01)
        << "k=" << k;
  }
}

TEST(ExactNoCd, AgreesWithMonteCarloForLikelihoodSchedule) {
  constexpr std::size_t n = 1 << 12;
  const auto condensed =
      predict::geometric_ranges(info::num_ranges(n), 0.5);
  const core::LikelihoodOrderedSchedule schedule(condensed);
  constexpr std::size_t k = 300;
  const double exact = exact_expected_rounds_no_cd(schedule, k);
  const auto mc =
      measure_uniform_no_cd_fixed_k(
          schedule, k, 20000, /*seed=*/5,
          {.max_rounds = 1 << 16, .engine = NoCdEngine::kBinomial});
  EXPECT_NEAR(mc.rounds.mean, exact, 4.0 * mc.rounds.ci95 + 0.01);
}

TEST(ExactNoCd, ProfileIsMonotoneAndBounded) {
  const baselines::DecaySchedule decay(1 << 8);
  const auto profile = exact_profile_no_cd(decay, 100, 200);
  for (std::size_t r = 1; r <= 200; ++r) {
    EXPECT_GE(profile.solve_by[r], profile.solve_by[r - 1]);
    EXPECT_LE(profile.solve_by[r], 1.0 + 1e-12);
  }
  EXPECT_NEAR(profile.tail_mass, 1.0 - profile.solve_by[200], 1e-12);
}

TEST(ExactCd, WillardProfileAgreesWithMonteCarlo) {
  constexpr std::size_t n = 1 << 16;
  const baselines::WillardPolicy willard(n);
  for (std::size_t k : {2ul, 500ul, 60000ul}) {
    const auto profile = exact_profile_cd(willard, k, 24);
    const auto mc =
        measure_uniform_cd_fixed_k(willard, k, 20000, /*seed=*/7,
                                   {.max_rounds = 1 << 14});
    // Compare Pr(solved within 10 rounds).
    const double mc_by10 = mc.solved_within(10.0);
    EXPECT_NEAR(mc_by10, profile.solve_by[10], 0.015) << "k=" << k;
  }
}

TEST(ExactCd, CodedSearchExpectationMatchesMonteCarlo) {
  constexpr std::size_t n = 1 << 12;
  const auto condensed =
      predict::geometric_ranges(info::num_ranges(n), 0.5);
  const core::CodedSearchPolicy policy(condensed);
  constexpr std::size_t k = 100;
  const auto profile = exact_profile_cd(policy, k, 48);
  ASSERT_LT(profile.tail_mass, 0.005);
  const auto mc =
      measure_uniform_cd_fixed_k(policy, k, 20000, /*seed=*/9,
                                 {.max_rounds = 1 << 12});
  // The truncated expectation charges the tail at horizon + 1, so allow
  // that bias on top of the Monte-Carlo confidence interval.
  EXPECT_NEAR(mc.rounds.mean, profile.truncated_expectation,
              4.0 * mc.rounds.ci95 + 49.0 * profile.tail_mass + 0.3);
}

TEST(ExactCd, ParallelSubtreeExpansionMatchesSerialBitForBit) {
  // The profile enumeration fans out over subtrees at a fixed split
  // depth; the shard partition and merge order are scheduling-free, so
  // every thread count must reproduce the serial run exactly —
  // including the pruned-mass accounting.
  const baselines::WillardPolicy willard(1 << 16);
  for (std::size_t k : {2ul, 1000ul}) {
    const auto serial = exact_profile_cd(willard, k, 24, 1e-12,
                                         /*threads=*/1);
    for (std::size_t threads : {2ul, 4ul, 8ul}) {
      const auto parallel = exact_profile_cd(willard, k, 24, 1e-12, threads);
      ASSERT_EQ(serial.solve_by.size(), parallel.solve_by.size());
      for (std::size_t r = 0; r < serial.solve_by.size(); ++r) {
        EXPECT_EQ(serial.solve_by[r], parallel.solve_by[r])
            << "k=" << k << " threads=" << threads << " r=" << r;
      }
      EXPECT_EQ(serial.tail_mass, parallel.tail_mass);
      EXPECT_EQ(serial.truncated_expectation,
                parallel.truncated_expectation);
    }
  }

  // Same property one layer down, where the pruned/frontier masses and
  // the leaf arrays are visible directly.
  const HistoryTreeOptions base{.horizon = 20, .prune_below = 1e-10};
  HistoryTreeOptions pooled = base;
  pooled.threads = 4;
  const auto one = expand_history_tree(willard, 500, base);
  const auto four = expand_history_tree(willard, 500, pooled);
  EXPECT_EQ(one.pruned_mass, four.pruned_mass);
  EXPECT_EQ(one.frontier_mass, four.frontier_mass);
  ASSERT_EQ(one.solve_at, four.solve_at);
  ASSERT_FALSE(one.leaves.empty());
  ASSERT_EQ(one.leaves.size(), four.leaves.size());
  ASSERT_EQ(one.leaf_cdf, four.leaf_cdf);
  for (std::size_t i = 0; i < one.leaves.size(); ++i) {
    EXPECT_EQ(one.leaves[i].reach, four.leaves[i].reach) << "leaf " << i;
    EXPECT_EQ(one.leaves[i].history, four.leaves[i].history) << "leaf " << i;
  }
}

TEST(ExactCd, LeavesPartitionTheUnsolvedMass) {
  // Every leaf's reach is the product of the outcome probabilities
  // along its rebuilt history — bit for bit, since the expansion
  // multiplies in the same order — and solved mass plus leaf mass is
  // the whole probability space.
  const baselines::WillardPolicy willard(1 << 16);
  for (const double prune : {1e-2, 1e-6}) {
    const auto tree = expand_history_tree(
        willard, 60, {.horizon = 16, .prune_below = prune, .threads = 4});
    ASSERT_FALSE(tree.leaves.empty());
    double pruned = 0.0;
    double frontier = 0.0;
    channel::BitString history;
    for (const HistoryLeaf& leaf : tree.leaves) {
      unpack_history(leaf.history, history);
      ASSERT_LE(history.size(), tree.horizon);
      EXPECT_EQ(pack_history(history), leaf.history);
      double reach = 1.0;
      channel::BitString prefix;
      for (const bool collided : history) {
        const auto outcome =
            round_outcome_probabilities(60, willard.probability(prefix));
        reach *= collided ? outcome.collision : outcome.silence;
        prefix.push_back(collided);
      }
      EXPECT_EQ(reach, leaf.reach);
      (history.size() == tree.horizon ? frontier : pruned) += leaf.reach;
    }
    EXPECT_NEAR(pruned, tree.pruned_mass, 1e-12);
    EXPECT_NEAR(frontier, tree.frontier_mass, 1e-12);
    EXPECT_NEAR(tree.solved_mass() + tree.leaf_cdf.back(), 1.0, 1e-12)
        << "prune " << prune;
  }
}

TEST(ExactCd, PackedHistoriesRoundTripAndRejectOverlongInput) {
  channel::BitString history;
  for (std::size_t depth : {0ul, 1ul, 17ul, kMaxPackedDepth}) {
    channel::BitString original;
    for (std::size_t i = 0; i < depth; ++i) original.push_back(i % 3 == 1);
    unpack_history(pack_history(original), history);
    EXPECT_EQ(history, original) << "depth " << depth;
  }
  EXPECT_THROW(pack_history(channel::BitString(kMaxPackedDepth + 1, true)),
               std::invalid_argument);
  // Recording leaves deeper than a packed word holds is refused, never
  // truncated; a masses-only expansion has no such limit.
  const baselines::WillardPolicy willard(1 << 16);
  EXPECT_THROW(
      expand_history_tree(willard, 60, {.horizon = kMaxPackedDepth + 1}),
      std::invalid_argument);
  EXPECT_NO_THROW(expand_history_tree(willard, 60,
                                      {.horizon = kMaxPackedDepth + 1,
                                       .prune_below = 1e-3,
                                       .record_leaves = false}));
}

TEST(ExactCd, PruningKeepsMassAccounted) {
  const baselines::WillardPolicy willard(1 << 16);
  const auto fine = exact_profile_cd(willard, 1000, 20, 1e-14);
  const auto coarse = exact_profile_cd(willard, 1000, 20, 1e-3);
  // Aggressive pruning can only lose solved mass to the tail.
  for (std::size_t r = 0; r <= 20; ++r) {
    EXPECT_LE(coarse.solve_by[r], fine.solve_by[r] + 1e-9);
  }
  EXPECT_GE(coarse.tail_mass, fine.tail_mass - 1e-9);
}

TEST(ExactNoCd, TheoremBudgetsValidatedWithoutSampling) {
  // Corollary 2.15 checked exactly: with Y = X uniform over m ranges,
  // Pr(solved within 2^{2H} + 1 rounds) >= 1/16 for the likelihood
  // schedule, for every k placed at a range endpoint.
  constexpr std::size_t n = 1 << 16;
  const std::size_t ranges = info::num_ranges(n);
  for (std::size_t m : {1ul, 2ul, 4ul, 8ul, 16ul}) {
    const auto condensed = predict::uniform_over_ranges(ranges, m);
    const core::LikelihoodOrderedSchedule schedule(condensed);
    const double h = condensed.entropy();
    const auto budget =
        static_cast<std::size_t>(std::exp2(2.0 * h) + 1.0);
    double average = 0.0;
    for (std::size_t i = 1; i <= m; ++i) {
      const std::size_t k = info::range_max_size(i);
      const auto profile = exact_profile_no_cd(
          schedule, k, std::min<std::size_t>(budget, 1 << 12));
      average += profile.solve_by.back() / static_cast<double>(m);
    }
    EXPECT_GE(average, 1.0 / 16.0) << "H=" << h;
  }
}

}  // namespace
}  // namespace crp::harness
