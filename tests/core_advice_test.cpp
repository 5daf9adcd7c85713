#include <cmath>

#include <gtest/gtest.h>

#include "channel/rng.h"
#include "channel/simulator.h"
#include "core/advice.h"
#include "core/advice_deterministic.h"
#include "core/advice_randomized.h"
#include "harness/measure.h"
#include "info/distribution.h"

namespace crp::core {
namespace {

TEST(AdviceBits, HighBitsAndDecodeRoundTrip) {
  // id 0b1011 in a height-4 tree.
  const auto bits = high_bits(0b1011, 4, 4);
  EXPECT_EQ(bits, (channel::BitString{true, false, true, true}));
  EXPECT_EQ(bits_to_index(bits), 0b1011u);
  const auto prefix = high_bits(0b1011, 4, 2);
  EXPECT_EQ(prefix, (channel::BitString{true, false}));
}

TEST(AdviceBits, TreeHeightIsCeilLog2) {
  EXPECT_EQ(id_tree_height(2), 1u);
  EXPECT_EQ(id_tree_height(3), 2u);
  EXPECT_EQ(id_tree_height(4), 2u);
  EXPECT_EQ(id_tree_height(5), 3u);
  EXPECT_EQ(id_tree_height(1024), 10u);
}

TEST(MinIdPrefixAdvice, ReturnsPrefixOfSmallestId) {
  const MinIdPrefixAdvice advice(16, 2);
  const std::vector<std::size_t> participants{13, 6, 9};
  // min id 6 = 0b0110; top 2 bits = 01.
  EXPECT_EQ(advice.advise(participants),
            (channel::BitString{false, true}));
  EXPECT_EQ(advice.bits(), 2u);
}

TEST(MinIdPrefixAdvice, RejectsOversizedAdvice) {
  EXPECT_THROW(MinIdPrefixAdvice(16, 5), std::invalid_argument);
}

TEST(RangeGroupAdvice, GroupsPartitionRanges) {
  const RangeGroupAdvice advice(1 << 16, 2);  // 16 ranges, 4 groups
  EXPECT_EQ(advice.num_groups(), 4u);
  std::size_t total = 0;
  for (std::size_t g = 0; g < 4; ++g) {
    const auto ranges = advice.ranges_in_group(g);
    EXPECT_EQ(ranges.size(), 4u);
    for (std::size_t r : ranges) {
      EXPECT_EQ(advice.group_of_range(r), g);
    }
    total += ranges.size();
  }
  EXPECT_EQ(total, 16u);
}

TEST(RangeGroupAdvice, UnevenPartitionCoversEverything) {
  const RangeGroupAdvice advice(1 << 10, 2);  // 10 ranges, 4 groups
  std::vector<int> seen(11, 0);
  for (std::size_t g = 0; g < 4; ++g) {
    for (std::size_t r : advice.ranges_in_group(g)) ++seen[r];
  }
  for (std::size_t r = 1; r <= 10; ++r) EXPECT_EQ(seen[r], 1);
}

TEST(RangeGroupAdvice, AdviceIdentifiesTrueGroup) {
  const RangeGroupAdvice advice(1 << 16, 3);
  // k = 300 participants -> range ceil(log2 300) = 9.
  std::vector<std::size_t> participants(300);
  for (std::size_t i = 0; i < 300; ++i) participants[i] = i;
  const auto bits = advice.advise(participants);
  EXPECT_EQ(bits_to_index(bits), advice.group_of_range(9));
}

TEST(FullIdAdvice, EnablesOneRoundResolution) {
  constexpr std::size_t n = 64;
  const FullIdAdvice advice(n);
  // One-round protocol: transmit iff your id equals the advised id.
  class AdvisedIdProtocol final : public channel::DeterministicProtocol {
   public:
    bool transmits(std::size_t player_id, const channel::BitString& bits,
                   std::size_t round,
                   std::span<const channel::Feedback>) const override {
      return round == 0 && player_id == bits_to_index(bits);
    }
    std::string name() const override { return "advised-id"; }
  };
  const AdvisedIdProtocol protocol;
  auto rng = channel::make_rng(71);
  for (int trial = 0; trial < 50; ++trial) {
    const auto participants = harness::random_participant_set(n, 7, rng);
    const auto result = channel::run_deterministic(
        protocol, advice.advise(participants), participants, false);
    ASSERT_TRUE(result.solved);
    EXPECT_EQ(result.rounds, 1u);
  }
}

// ---- Deterministic no-CD: SubtreeScanProtocol ----

TEST(SubtreeScan, ResolvesWithinSubtreeSizeRounds) {
  constexpr std::size_t n = 256;
  for (std::size_t b : {0ul, 2ul, 4ul, 8ul}) {
    const SubtreeScanProtocol protocol(n, b);
    const MinIdPrefixAdvice advice(n, b);
    auto rng = channel::make_rng(73 + b);
    for (int trial = 0; trial < 100; ++trial) {
      const auto participants = harness::random_participant_set(n, 9, rng);
      const auto bits = advice.advise(participants);
      const auto result = channel::run_deterministic(
          protocol, bits, participants, false, {.max_rounds = 2 * n});
      ASSERT_TRUE(result.solved) << "b=" << b;
      EXPECT_LE(result.rounds, protocol.subtree_size()) << "b=" << b;
      // The winner is the minimum active id (the advice's target).
      EXPECT_EQ(*result.winner,
                *std::min_element(participants.begin(),
                                  participants.end()));
    }
  }
}

TEST(SubtreeScan, FullAdviceMeansOneRound) {
  constexpr std::size_t n = 256;
  const SubtreeScanProtocol protocol(n, 8);
  const MinIdPrefixAdvice advice(n, 8);
  const std::vector<std::size_t> participants{200, 201, 250};
  const auto result = channel::run_deterministic(
      protocol, advice.advise(participants), participants, false);
  ASSERT_TRUE(result.solved);
  EXPECT_EQ(result.rounds, 1u);
}

TEST(SubtreeScan, WorstCaseMatchesTheorem34Shape) {
  // t(n) ~ n^{1-alpha} for b = alpha log n: halving the advice about
  // doubles the worst case.
  constexpr std::size_t n = 1 << 10;
  std::vector<double> worst;
  for (std::size_t b : {2ul, 4ul, 6ul}) {
    const SubtreeScanProtocol protocol(n, b);
    const MinIdPrefixAdvice advice(n, b);
    worst.push_back(harness::worst_case_deterministic_rounds(
        protocol, advice, n, /*k=*/4, false, /*probes=*/200, /*seed=*/77));
  }
  EXPECT_NEAR(worst[0] / worst[1], 4.0, 1.0);
  EXPECT_NEAR(worst[1] / worst[2], 4.0, 1.0);
}

// ---- Deterministic CD: TreeDescentCdProtocol ----

TEST(TreeDescentCd, ResolvesWithinHeightMinusAdviceRounds) {
  constexpr std::size_t n = 1 << 10;
  for (std::size_t b : {0ul, 3ul, 6ul, 10ul}) {
    const TreeDescentCdProtocol protocol(n, b);
    const MinIdPrefixAdvice advice(n, b);
    auto rng = channel::make_rng(79 + b);
    for (int trial = 0; trial < 100; ++trial) {
      const auto participants =
          harness::random_participant_set(n, 17, rng);
      const auto bits = advice.advise(participants);
      const auto result = channel::run_deterministic(
          protocol, bits, participants, true, {.max_rounds = 4 * n});
      ASSERT_TRUE(result.solved) << "b=" << b;
      EXPECT_LE(result.rounds, protocol.max_rounds()) << "b=" << b;
    }
  }
}

TEST(TreeDescentCd, ExhaustivePairsForSmallNetwork) {
  constexpr std::size_t n = 16;
  constexpr std::size_t b = 2;
  const TreeDescentCdProtocol protocol(n, b);
  const MinIdPrefixAdvice advice(n, b);
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = x + 1; y < n; ++y) {
      const std::vector<std::size_t> participants{x, y};
      const auto result = channel::run_deterministic(
          protocol, advice.advise(participants), participants, true,
          {.max_rounds = 64});
      ASSERT_TRUE(result.solved) << x << "," << y;
      EXPECT_LE(result.rounds, protocol.max_rounds()) << x << "," << y;
    }
  }
}

// ---- Randomized no-CD: truncated decay ----

TEST(TruncatedDecay, SweepsOnlyAdvisedRanges) {
  const TruncatedDecaySchedule schedule({3, 4, 5});
  EXPECT_DOUBLE_EQ(schedule.probability(0), std::exp2(-3.0));
  EXPECT_DOUBLE_EQ(schedule.probability(1), std::exp2(-4.0));
  EXPECT_DOUBLE_EQ(schedule.probability(2), std::exp2(-5.0));
  EXPECT_DOUBLE_EQ(schedule.probability(3), std::exp2(-3.0));
  EXPECT_EQ(schedule.sweep_length(), 3u);
}

TEST(TruncatedDecay, AdviceShrinksExpectedRounds) {
  // Theorem 3.6 shape: expected rounds ~ log n / 2^b.
  constexpr std::size_t n = 1 << 16;
  constexpr std::size_t k = 700;  // range 10
  std::vector<double> means;
  for (std::size_t b : {0ul, 1ul, 2ul, 3ul}) {
    const RangeGroupAdvice advice(n, b);
    std::vector<std::size_t> participants(k);
    for (std::size_t i = 0; i < k; ++i) participants[i] = i;
    const std::size_t group = bits_to_index(advice.advise(participants));
    const TruncatedDecaySchedule schedule(advice.ranges_in_group(group));
    const auto m = harness::measure_uniform_no_cd_fixed_k(
        schedule, k, 4000, /*seed=*/83,
        {.max_rounds = 1 << 14, .engine = harness::NoCdEngine::kBinomial});
    EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
    means.push_back(m.rounds.mean);
  }
  // Monotone improvement with more advice.
  for (std::size_t i = 1; i < means.size(); ++i) {
    EXPECT_LE(means[i], means[i - 1] * 1.15) << "b=" << i;
  }
  // Roughly the 2^b shape between the extremes.
  EXPECT_GT(means[0] / means[3], 2.0);
}

// ---- Randomized CD: truncated Willard ----

TEST(TruncatedWillard, SingleRangeGroupIsConstantTime) {
  constexpr std::size_t n = 1 << 16;
  constexpr std::size_t k = 700;  // range 10
  const RangeGroupAdvice advice(n, 4);  // 16 groups of 1 range each
  std::vector<std::size_t> participants(k);
  for (std::size_t i = 0; i < k; ++i) participants[i] = i;
  const std::size_t group = bits_to_index(advice.advise(participants));
  const TruncatedWillardPolicy policy(advice.ranges_in_group(group));
  const auto m = harness::measure_uniform_cd_fixed_k(
      policy, k, 4000, /*seed=*/89, {.max_rounds = 1 << 12});
  EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
  EXPECT_LT(m.rounds.mean, 5.0);
}

TEST(TruncatedWillard, AdviceShrinksSearchDepth) {
  constexpr std::size_t n = 1 << 16;
  constexpr std::size_t k = 700;
  std::vector<double> means;
  for (std::size_t b : {0ul, 2ul, 4ul}) {
    const RangeGroupAdvice advice(n, b);
    std::vector<std::size_t> participants(k);
    for (std::size_t i = 0; i < k; ++i) participants[i] = i;
    const std::size_t group = bits_to_index(advice.advise(participants));
    const TruncatedWillardPolicy policy(advice.ranges_in_group(group));
    const auto m = harness::measure_uniform_cd_fixed_k(
        policy, k, 4000, /*seed=*/97, {.max_rounds = 1 << 12});
    EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
    means.push_back(m.rounds.mean);
  }
  EXPECT_LT(means[2], means[0]);
}

TEST(TruncatedProtocols, RejectEmptyGroups) {
  EXPECT_THROW(TruncatedDecaySchedule({}), std::invalid_argument);
  EXPECT_THROW(TruncatedWillardPolicy({}), std::invalid_argument);
}

}  // namespace
}  // namespace crp::core
