#include "harness/adversary.h"

#include <gtest/gtest.h>

#include "baselines/simple.h"
#include "core/advice.h"
#include "core/advice_deterministic.h"
#include "harness/measure.h"
#include "harness/sparkline.h"

namespace crp::harness {
namespace {

TEST(ExactWorstCaseTest, SubtreeScanMatchesClosedForm) {
  // Worst case of the b-bit subtree scan over pairs (k = 2): the min
  // active id sits at the last-but-reachable position of its advised
  // subtree. For b > 0 the second participant can live in a later
  // subtree, so the min id reaches the subtree's final leaf: 2^{h-b}
  // rounds. For b = 0 there is no later subtree — the min of a pair is
  // at most id n - 2, giving n - 1 rounds.
  constexpr std::size_t n = 32;  // height h = 5
  for (std::size_t b : {0ul, 2ul, 4ul}) {
    const core::SubtreeScanProtocol protocol(n, b);
    const core::MinIdPrefixAdvice advice(n, b);
    const auto worst = exact_worst_case(protocol, advice, n, 2, false);
    EXPECT_TRUE(worst.all_solved);
    const std::size_t expected =
        b == 0 ? n - 1 : (std::size_t{1} << (5 - b));
    EXPECT_EQ(worst.rounds, expected) << "b=" << b;
    EXPECT_EQ(worst.sets_checked, 32u * 31u / 2u);
  }
}

TEST(ExactWorstCaseTest, TreeDescentMatchesHeightMinusAdvice) {
  // For b > 0 the adversary parks the min id on the advised subtree's
  // right edge with every other active outside the subtree: the descent
  // takes all h - b halving probes PLUS the final singleton probe,
  // h - b + 1 rounds (= protocol.max_rounds()). For b = 0 the "others
  // outside the subtree" trick is impossible and the classic h rounds
  // are exact.
  constexpr std::size_t n = 32;  // height h = 5
  for (std::size_t b : {0ul, 2ul, 4ul}) {
    const core::TreeDescentCdProtocol protocol(n, b);
    const core::MinIdPrefixAdvice advice(n, b);
    const auto worst = exact_worst_case(protocol, advice, n, 3, true);
    EXPECT_TRUE(worst.all_solved);
    const std::size_t expected = b == 0 ? 5 : 5 - b + 1;
    EXPECT_EQ(worst.rounds, expected) << "b=" << b;
    EXPECT_LE(worst.rounds, protocol.max_rounds());
  }
}

TEST(ExactWorstCaseTest, SamplerNeverExceedsExactAndOftenMatches) {
  // The sampled approximation is a lower bound on the exact worst case;
  // with the crafted head/tail probes it should match exactly here.
  constexpr std::size_t n = 64;
  constexpr std::size_t b = 2;
  const core::SubtreeScanProtocol scan(n, b);
  const core::TreeDescentCdProtocol descent(n, b);
  const core::MinIdPrefixAdvice advice(n, b);
  const auto exact_scan = exact_worst_case(scan, advice, n, 3, false);
  const double sampled_scan = worst_case_deterministic_rounds(
      scan, advice, n, 3, false, 100, /*seed=*/1);
  EXPECT_LE(sampled_scan, static_cast<double>(exact_scan.rounds));
  EXPECT_EQ(sampled_scan, static_cast<double>(exact_scan.rounds));

  const auto exact_descent = exact_worst_case(descent, advice, n, 3, true);
  const double sampled_descent = worst_case_deterministic_rounds(
      descent, advice, n, 3, true, 100, /*seed=*/2);
  EXPECT_LE(sampled_descent, static_cast<double>(exact_descent.rounds));
  EXPECT_EQ(sampled_descent, static_cast<double>(exact_descent.rounds));
}

TEST(ExactWorstCaseTest, WitnessReproducesTheMaximum) {
  constexpr std::size_t n = 32;
  const core::SubtreeScanProtocol protocol(n, 1);
  const core::MinIdPrefixAdvice advice(n, 1);
  const auto worst = exact_worst_case(protocol, advice, n, 2, false);
  const auto bits = advice.advise(worst.witness);
  const auto rerun = channel::run_deterministic(
      protocol, bits, worst.witness, false, {.max_rounds = 1 << 10});
  ASSERT_TRUE(rerun.solved);
  EXPECT_EQ(rerun.rounds, worst.rounds);
}

TEST(ExactWorstCaseTest, ParallelEnumerationMatchesSerial) {
  // The block-parallel enumeration (rank unranking + lexicographic
  // advance) must reproduce the serial scan exactly — maximum, witness
  // (first maximum in rank order), set count, and all_solved — at any
  // thread count, including thread counts that do not divide the
  // C(n, k) = 41664 sets here.
  constexpr std::size_t n = 64;
  constexpr std::size_t b = 2;
  const core::SubtreeScanProtocol protocol(n, b);
  const core::MinIdPrefixAdvice advice(n, b);
  const auto serial =
      exact_worst_case(protocol, advice, n, 3, false, 1 << 16, 1);
  for (std::size_t threads : {2ul, 5ul, 8ul}) {
    const auto parallel =
        exact_worst_case(protocol, advice, n, 3, false, 1 << 16, threads);
    EXPECT_EQ(parallel.rounds, serial.rounds) << "threads=" << threads;
    EXPECT_EQ(parallel.witness, serial.witness) << "threads=" << threads;
    EXPECT_EQ(parallel.sets_checked, serial.sets_checked);
    EXPECT_EQ(parallel.all_solved, serial.all_solved);
  }
}

TEST(ExactWorstCaseTest, ValidatesArguments) {
  const baselines::RoundRobinProtocol protocol(8);
  const core::MinIdPrefixAdvice advice(8, 0);
  EXPECT_THROW(exact_worst_case(protocol, advice, 8, 0, false),
               std::invalid_argument);
  EXPECT_THROW(exact_worst_case(protocol, advice, 8, 9, false),
               std::invalid_argument);
}

TEST(Sparkline, RendersMonotoneCurve) {
  const std::vector<double> curve{0.0, 0.25, 0.5, 0.75, 1.0};
  const std::string art = sparkline(curve, 5);
  ASSERT_EQ(art.size(), 5u);
  EXPECT_EQ(art.front(), ' ');  // zero renders empty
  EXPECT_EQ(art.back(), '@');   // one renders full
}

TEST(Sparkline, HandlesDegenerateInputs) {
  EXPECT_EQ(sparkline(std::vector<double>{}, 10), "");
  EXPECT_EQ(sparkline(std::vector<double>{0.5}, 0), "");
  EXPECT_EQ(sparkline(std::vector<double>{2.0}, 1), "@");   // clamped
  EXPECT_EQ(sparkline(std::vector<double>{-1.0}, 1), " ");  // clamped
}

TEST(Sparkline, StridesLongInputs) {
  std::vector<double> ramp(1000);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<double>(i) / 999.0;
  }
  const std::string art = sparkline(ramp, 20);
  EXPECT_EQ(art.size(), 20u);
  EXPECT_EQ(art.back(), '@');
}

}  // namespace
}  // namespace crp::harness
