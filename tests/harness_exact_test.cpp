// The exact analysis engine, and its agreement with the Monte-Carlo
// simulator — the library's strongest internal consistency check: two
// independent implementations of the channel semantics must agree.
#include "harness/exact.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

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

#include "test_support.h"

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

/// Bitwise equality of two outcome triples.
void expect_same_outcome(const RoundOutcomeProbabilities& got,
                         const RoundOutcomeProbabilities& want, double p) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.silence),
            std::bit_cast<std::uint64_t>(want.silence))
      << "p=" << p;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.success),
            std::bit_cast<std::uint64_t>(want.success))
      << "p=" << p;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.collision),
            std::bit_cast<std::uint64_t>(want.collision))
      << "p=" << p;
}

TEST(RoundOutcome, CacheReturnsTheDirectResultBitForBit) {
  // Hits, misses, and the uncached path past the cache's capacity must
  // all equal the direct call exactly, so the expansion and the
  // engine's continuation stay bit-identical through the cache. That
  // holds for both zeros (two bit patterns, one result) and for keys
  // that share a home slot in the cache's open-addressed index,
  // whichever of them was cached first, through the memoizing call and
  // the read-only lookup alike.
  constexpr std::size_t k = 37;
  // Keys whose probe runs start at one slot: the first home slot three
  // dyadic-or-decimal probabilities share.
  std::map<std::size_t, std::vector<double>> by_slot;
  std::vector<double> colliding;
  for (int i = 1; colliding.empty() && i < 4000; ++i) {
    const double p = i / 4000.0;
    auto& group = by_slot[OutcomeCache::home_slot(p)];
    group.push_back(p);
    if (group.size() == 3) colliding = group;
  }
  ASSERT_EQ(colliding.size(), 3u);
  std::vector<double> keys = {0.0, -0.0};
  keys.insert(keys.end(), colliding.begin(), colliding.end());
  for (int e = 1; e <= 60; ++e) keys.push_back(std::ldexp(1.0, -e));
  for (int i = 0; i <= 100; ++i) keys.push_back(i / 100.0);
  ASSERT_GT(keys.size(), OutcomeCache::kCapacity);

  OutcomeCache cache(k);
  for (int pass = 0; pass < 2; ++pass) {
    for (const double p : keys) {
      const auto direct = round_outcome_probabilities(k, p);
      expect_same_outcome(cache(p), direct, p);
      expect_same_outcome(cache.lookup(p), direct, p);
    }
  }
  // A read-only cache answers keys it never met, colliding ones too.
  const OutcomeCache empty(k);
  for (const double p : colliding) {
    expect_same_outcome(empty.lookup(p), round_outcome_probabilities(k, p),
                        p);
  }
  // The colliding keys cached in the other order: each probe run now
  // passes the others in reverse.
  OutcomeCache reversed(k);
  for (auto it = colliding.rbegin(); it != colliding.rend(); ++it) {
    expect_same_outcome(reversed(*it), round_outcome_probabilities(k, *it),
                        *it);
  }
  for (const double p : keys) {
    expect_same_outcome(reversed.lookup(p), round_outcome_probabilities(k, p),
                        p);
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

TEST(ExactCd, LeavesPartitionTheUnsolvedMass) {
  // Every leaf's reach is the product of the outcome probabilities
  // along its rebuilt history — bit for bit, since the expansion
  // multiplies in the same order — so the leaf CDF is the running sum
  // of those products, bit for bit too. Every leaf carries the state
  // its history folds to, and solved mass plus leaf mass is the whole
  // probability space.
  const baselines::WillardPolicy willard(1 << 16);
  for (const double prune : {1e-2, 1e-6}) {
    const auto tree = expand_history_tree(
        willard, 60, {.horizon = 16, .prune_below = prune});
    ASSERT_FALSE(tree.leaves.empty());
    ASSERT_EQ(tree.leaf_cdf.size(), tree.leaves.size());
    double pruned = 0.0;
    double frontier = 0.0;
    double cumulative = 0.0;
    channel::BitString history;
    for (std::size_t i = 0; i < tree.leaves.size(); ++i) {
      const HistoryLeaf& leaf = tree.leaves[i];
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
      cumulative += reach;
      EXPECT_EQ(cumulative, tree.leaf_cdf[i]) << "leaf " << i;
      EXPECT_EQ(leaf.state, fold_packed_history(willard, leaf.history))
          << "leaf " << i;
      (history.size() == tree.horizon ? frontier : pruned) += reach;
    }
    EXPECT_NEAR(pruned, tree.pruned_mass, 1e-12);
    EXPECT_NEAR(frontier, tree.frontier_mass, 1e-12);
    EXPECT_NEAR(tree.solved_mass() + tree.leaf_cdf.back(), 1.0, 1e-12)
        << "prune " << prune;
  }
}

TEST(ExactCd, PackedHistoriesRoundTripAndRejectOverlongInput) {
  channel::BitString history;
  const baselines::WillardPolicy repeated(1 << 16, 3);
  for (std::size_t depth : {0ul, 1ul, 17ul, kMaxPackedDepth}) {
    channel::BitString original;
    for (std::size_t i = 0; i < depth; ++i) original.push_back(i % 3 == 1);
    const PackedHistory packed = pack_history(original);
    unpack_history(packed, history);
    EXPECT_EQ(history, original) << "depth " << depth;
    EXPECT_EQ(packed_depth(packed), depth);
    // Folding the packed word reaches the state stepping does.
    channel::CollisionPolicy::State state = repeated.initial_state();
    for (const bool collided : original) {
      state = repeated.next_state(state, collided);
    }
    EXPECT_EQ(fold_packed_history(repeated, packed), state)
        << "depth " << depth;
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
