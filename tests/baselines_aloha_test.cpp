#include "baselines/aloha.h"

#include <cmath>

#include <gtest/gtest.h>

#include "channel/engine.h"
#include "channel/rng.h"
#include "harness/measure.h"

namespace crp::baselines {
namespace {

/// Runs `trials` trials of `run` at k players through the block
/// harness (one derived stream per trial).
harness::Measurement measure_fixed_k(const channel::AdapterEngine::Run& run,
                                     std::size_t k, std::size_t trials,
                                     std::uint64_t seed,
                                     std::size_t max_rounds) {
  return harness::measure_blocks(channel::AdapterEngine(run), {nullptr, k},
                                 trials, seed, {.max_rounds = max_rounds});
}

TEST(SlottedAloha, SinglePlayerAlwaysWinsItsSlot) {
  auto rng = channel::make_rng(1);
  for (int t = 0; t < 100; ++t) {
    const auto result = run_slotted_aloha(1, 8, rng, {.max_rounds = 64});
    ASSERT_TRUE(result.solved);
    EXPECT_LE(result.rounds, 8u);
    EXPECT_EQ(result.transmissions, 1u);
  }
}

TEST(SlottedAloha, ValidatesArguments) {
  auto rng = channel::make_rng(2);
  EXPECT_THROW(run_slotted_aloha(0, 8, rng), std::invalid_argument);
  EXPECT_THROW(run_slotted_aloha(4, 0, rng), std::invalid_argument);
  EXPECT_THROW(run_backoff_aloha(0, 1, 8, rng), std::invalid_argument);
  EXPECT_THROW(run_backoff_aloha(4, 0, 8, rng), std::invalid_argument);
  EXPECT_THROW(run_backoff_aloha(4, 16, 8, rng), std::invalid_argument);
}

TEST(SlottedAloha, RespectsRoundBudget) {
  auto rng = channel::make_rng(3);
  // Window 1 with 2 players collides every slot: never solves.
  const auto result = run_slotted_aloha(2, 1, rng, {.max_rounds = 25});
  EXPECT_FALSE(result.solved);
  EXPECT_EQ(result.rounds, 25u);
  EXPECT_EQ(result.transmissions, 50u);
}

TEST(SlottedAloha, TunedWindowSolvesInConstantRounds) {
  // Each slot of a W = k window holds ~Binomial(k, 1/k) transmitters,
  // so the first singleton slot arrives after ~e slots in expectation —
  // tuned ALOHA matches the fixed 1/k strategy, independent of k.
  for (std::size_t k : {8ul, 32ul, 256ul}) {
    const auto m = measure_fixed_k(
        [](std::size_t players, std::mt19937_64& rng,
           const channel::SimOptions& options) {
          return run_slotted_aloha(players, players, rng, options);
        },
        k, 4000, /*seed=*/5, 1 << 14);
    EXPECT_DOUBLE_EQ(m.success_rate, 1.0);
    EXPECT_LT(m.rounds.mean, 6.0) << "k=" << k;
  }
}

TEST(SlottedAloha, BadlySizedWindowDegrades) {
  constexpr std::size_t k = 64;
  const auto tuned = measure_fixed_k(
      [](std::size_t players, std::mt19937_64& rng,
         const channel::SimOptions& options) {
        return run_slotted_aloha(players, 64, rng, options);
      },
      k, 2000, /*seed=*/7, 1 << 14);
  const auto tiny = measure_fixed_k(
      [](std::size_t players, std::mt19937_64& rng,
         const channel::SimOptions& options) {
        return run_slotted_aloha(players, 4, rng, options);
      },
      k, 2000, /*seed=*/7, 1 << 14);
  ASSERT_DOUBLE_EQ(tuned.success_rate, 1.0);
  // A 4-slot window with 64 players essentially never isolates one.
  EXPECT_LT(tiny.success_rate, 0.2);
}

TEST(BackoffAloha, SolvesWithoutSizeEstimate) {
  for (std::size_t k : {2ul, 30ul, 500ul}) {
    const auto m = measure_fixed_k(
        [](std::size_t players, std::mt19937_64& rng,
           const channel::SimOptions& options) {
          return run_backoff_aloha(players, 1, 1 << 12, rng, options);
        },
        k, 2000, /*seed=*/11, 1 << 16);
    EXPECT_DOUBLE_EQ(m.success_rate, 1.0) << "k=" << k;
    // Doubling reaches a window ~ k after log2(k) windows whose total
    // size is <= 4k, so rounds are O(k).
    EXPECT_LT(m.rounds.mean, 6.0 * static_cast<double>(k) + 8.0)
        << "k=" << k;
  }
}

TEST(BackoffAloha, TraceRecordsSlots) {
  channel::ExecutionTrace trace;
  auto rng = channel::make_rng(13);
  const auto result = run_backoff_aloha(3, 2, 64, rng,
                                        {.max_rounds = 1 << 10,
                                         .trace = &trace});
  ASSERT_TRUE(result.solved);
  EXPECT_EQ(trace.size(), result.rounds);
  EXPECT_EQ(trace.back().feedback, channel::Feedback::kSuccess);
}

}  // namespace
}  // namespace crp::baselines
