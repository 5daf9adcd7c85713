#include "channel/simulator.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/simple.h"
#include "channel/rng.h"

namespace crp::channel {
namespace {

class ConstantSchedule final : public ProbabilitySchedule {
 public:
  explicit ConstantSchedule(double p) : p_(p) {}
  double probability(std::size_t) const override { return p_; }
  std::string name() const override { return "constant"; }

 private:
  double p_;
};

/// Probes with probability 1 until the first collision, then 1/4; the
/// state is whether a collision has happened.
class CollisionReactivePolicy final : public CollisionPolicy {
 public:
  State initial_state() const override { return 0; }
  State next_state(State state, bool collided) const override {
    return state | (collided ? 1 : 0);
  }
  double probability_at(State state) const override {
    return state != 0 ? 0.25 : 1.0;
  }
  std::string name() const override { return "collision-reactive"; }
};

TEST(Feedback, MapsTransmitterCounts) {
  EXPECT_EQ(feedback_for(0), Feedback::kSilence);
  EXPECT_EQ(feedback_for(1), Feedback::kSuccess);
  EXPECT_EQ(feedback_for(2), Feedback::kCollision);
  EXPECT_EQ(feedback_for(100), Feedback::kCollision);
}

TEST(Feedback, ToStringIsHumanReadable) {
  EXPECT_EQ(to_string(Feedback::kSilence), "silence");
  EXPECT_EQ(to_string(Feedback::kSuccess), "success");
  EXPECT_EQ(to_string(Feedback::kCollision), "collision");
}

TEST(SampleTransmitters, DegenerateProbabilities) {
  auto rng = make_rng(1);
  EXPECT_EQ(sample_transmitters(10, 0.0, rng), 0u);
  EXPECT_EQ(sample_transmitters(10, 1.0, rng), 10u);
  EXPECT_EQ(sample_transmitters(0, 0.5, rng), 0u);
  EXPECT_THROW(sample_transmitters(10, -0.1, rng), std::invalid_argument);
  EXPECT_THROW(sample_transmitters(10, 1.5, rng), std::invalid_argument);
}

TEST(SampleTransmitters, MeanMatchesBinomial) {
  auto rng = make_rng(2);
  constexpr std::size_t kTrials = 100000;
  double total = 0.0;
  for (std::size_t t = 0; t < kTrials; ++t) {
    total += static_cast<double>(sample_transmitters(20, 0.3, rng));
  }
  EXPECT_NEAR(total / kTrials, 6.0, 0.05);
}

TEST(TransmitterSampler, KeepsSixtyFourDistributionsAndBuildsTheRestFresh) {
  // The reference: the first 64 distinct probabilities of a trial keep
  // one Binomial each (with its saved normal draw); later ones get a
  // fresh Binomial per call. k p >= 8 puts every call on libstdc++'s
  // rejection path, where the saved normal draw changes what a kept
  // distribution returns. Cached parameters must not change a draw,
  // whether the table is empty, full of them, or shared by samplers.
  constexpr std::size_t k = 100;
  std::vector<double> ps;
  for (int i = 0; i < 80; ++i) ps.push_back(0.08 + 0.0001 * i);
  BinomialParamCache params;
  for (BinomialParamCache* cache : {static_cast<BinomialParamCache*>(nullptr),
                                    &params, &params}) {
    TransmitterSampler sample(1);
    sample.reset(k, cache);
    Rng rng(3);
    Rng reference_rng(3);
    std::vector<Binomial> kept;
    for (int pass = 0; pass < 3; ++pass) {
      for (std::size_t i = 0; i < ps.size(); ++i) {
        std::size_t want = 0;
        if (i < 64) {
          if (kept.size() == i) kept.emplace_back(k, ps[i]);
          want = kept[i](reference_rng);
        } else {
          Binomial fresh(k, ps[i]);
          want = fresh(reference_rng);
        }
        ASSERT_EQ(sample(ps[i], rng), want) << "pass " << pass << " p " << i;
      }
    }
  }
  EXPECT_EQ(params.size(), ps.size());
}

TEST(RunUniformNoCd, SingleParticipantSucceedsImmediately) {
  const ConstantSchedule schedule(1.0);
  auto rng = make_rng(3);
  const auto result = run_uniform_no_cd(schedule, 1, rng);
  EXPECT_TRUE(result.solved);
  EXPECT_EQ(result.rounds, 1u);
}

TEST(RunUniformNoCd, ZeroProbabilityNeverSolves) {
  const ConstantSchedule schedule(0.0);
  auto rng = make_rng(4);
  const auto result = run_uniform_no_cd(schedule, 5, rng,
                                        {.max_rounds = 100});
  EXPECT_FALSE(result.solved);
  EXPECT_EQ(result.rounds, 100u);
}

TEST(RunUniformNoCd, AllTransmitNeverSolvesWithTwoPlayers) {
  const ConstantSchedule schedule(1.0);
  auto rng = make_rng(5);
  const auto result = run_uniform_no_cd(schedule, 2, rng,
                                        {.max_rounds = 50});
  EXPECT_FALSE(result.solved);
}

TEST(RunUniformNoCd, OptimalProbabilityGivesGeometricRounds) {
  // With p = 1/k, success probability per round is about 1/e; expected
  // rounds ~ e for moderate k. Check the measured mean is near e.
  constexpr std::size_t k = 32;
  const ConstantSchedule schedule(1.0 / k);
  double total = 0.0;
  constexpr std::size_t kTrials = 20000;
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto rng = derive_rng(99, t);
    const auto result = run_uniform_no_cd(schedule, k, rng);
    ASSERT_TRUE(result.solved);
    total += static_cast<double>(result.rounds);
  }
  const double mean = total / kTrials;
  // Success prob per round: k * (1/k) * (1 - 1/k)^{k-1} -> 1/e ~ .3679.
  const double p_round = 32.0 * (1.0 / 32.0) * std::pow(1.0 - 1.0 / 32.0, 31);
  EXPECT_NEAR(mean, 1.0 / p_round, 0.05);
}

TEST(RunUniformNoCd, TraceRecordsEveryRound) {
  const ConstantSchedule schedule(0.0);
  ExecutionTrace trace;
  auto rng = make_rng(6);
  (void)run_uniform_no_cd(schedule, 3, rng,
                          {.max_rounds = 7, .trace = &trace});
  ASSERT_EQ(trace.size(), 7u);
  for (const auto& record : trace) {
    EXPECT_EQ(record.probability, 0.0);
    EXPECT_EQ(record.transmitters, 0u);
    EXPECT_EQ(record.feedback, Feedback::kSilence);
  }
}

TEST(RunUniformCd, PolicySeesCollisionHistory) {
  // Two players with p = 1 collide forever unless the policy reacts;
  // CollisionReactivePolicy drops to 1/4 after the first collision and
  // then must eventually succeed.
  const CollisionReactivePolicy policy;
  auto rng = make_rng(7);
  const auto result = run_uniform_cd(policy, 2, rng, {.max_rounds = 10000});
  EXPECT_TRUE(result.solved);
  EXPECT_GT(result.rounds, 1u);  // round 1 is a guaranteed collision
}

TEST(RunUniformCd, HistoryBitsMatchTrace) {
  const CollisionReactivePolicy policy;
  ExecutionTrace trace;
  auto rng = make_rng(8);
  const auto result =
      run_uniform_cd(policy, 2, rng, {.max_rounds = 10000, .trace = &trace});
  ASSERT_TRUE(result.solved);
  EXPECT_EQ(trace.size(), result.rounds);
  EXPECT_EQ(trace.front().feedback, Feedback::kCollision);
  EXPECT_EQ(trace.back().feedback, Feedback::kSuccess);
}

TEST(RunDeterministic, RoundRobinFindsSmallestIdInItsSlot) {
  const baselines::RoundRobinProtocol protocol(16);
  const std::vector<std::size_t> participants{5, 9, 12};
  const auto result = run_deterministic(protocol, {}, participants, false);
  ASSERT_TRUE(result.solved);
  EXPECT_EQ(result.rounds, 6u);  // id 5 transmits in 0-based round 5
  ASSERT_TRUE(result.winner.has_value());
  EXPECT_EQ(*result.winner, 5u);
}

TEST(RunDeterministic, RejectsEmptyParticipants) {
  const baselines::RoundRobinProtocol protocol(16);
  EXPECT_THROW(
      run_deterministic(protocol, {}, std::vector<std::size_t>{}, false),
      std::invalid_argument);
}

TEST(RunDeterministic, NoCdPlayersObserveOnlySilence) {
  // A protocol that would misbehave if it ever saw a collision bit:
  // transmit iff all observed history is silence and the round matches
  // the player's id.
  class SilenceAsserting final : public DeterministicProtocol {
   public:
    bool transmits(std::size_t player_id, const BitString&,
                   std::size_t round,
                   std::span<const Feedback> history) const override {
      for (Feedback f : history) {
        EXPECT_EQ(f, Feedback::kSilence);
      }
      return player_id == round;
    }
    std::string name() const override { return "silence-asserting"; }
  };
  const SilenceAsserting protocol;
  // ids 3 and 4: rounds 0..2 are silent, round 3 succeeds. In a
  // collision-detection-free world the players never learn anything.
  const std::vector<std::size_t> participants{3, 4};
  const auto result = run_deterministic(protocol, {}, participants, false);
  ASSERT_TRUE(result.solved);
  EXPECT_EQ(result.rounds, 4u);
}

TEST(RunDeterministic, TreeDescentResolvesInLogRounds) {
  const baselines::TreeDescentProtocol protocol(64);
  const std::vector<std::size_t> participants{3, 17, 45, 60};
  const auto result = run_deterministic(protocol, {}, participants, true,
                                        {.max_rounds = 64});
  ASSERT_TRUE(result.solved);
  EXPECT_LE(result.rounds, 7u);  // log2(64) + 1
}

TEST(RunDeterministic, TreeDescentHandlesEveryPairExhaustively) {
  constexpr std::size_t n = 32;
  const baselines::TreeDescentProtocol protocol(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const std::vector<std::size_t> participants{a, b};
      const auto result = run_deterministic(protocol, {}, participants,
                                            true, {.max_rounds = 2 * n});
      ASSERT_TRUE(result.solved) << "a=" << a << " b=" << b;
      EXPECT_LE(result.rounds, 6u) << "a=" << a << " b=" << b;
    }
  }
}

TEST(Engines, BinomialAndPerPlayerAgreeOnSuccessRate) {
  // Cross-validation: same schedule, same k; the two engines must give
  // statistically indistinguishable mean rounds.
  constexpr std::size_t k = 10;
  const ConstantSchedule schedule(0.1);
  double mean_binomial = 0.0;
  double mean_players = 0.0;
  constexpr std::size_t kTrials = 30000;
  for (std::size_t t = 0; t < kTrials; ++t) {
    auto rng_a = derive_rng(1234, t);
    auto rng_b = derive_rng(5678, t);
    mean_binomial +=
        static_cast<double>(run_uniform_no_cd(schedule, k, rng_a).rounds);
    mean_players += static_cast<double>(
        run_uniform_no_cd_per_player(schedule, k, rng_b).rounds);
  }
  mean_binomial /= kTrials;
  mean_players /= kTrials;
  EXPECT_NEAR(mean_binomial, mean_players, 0.08 * mean_binomial);
}

TEST(Rng, FastStreamsAreReproducibleAndNotShiftedCopies) {
  auto a = derive_fast_rng(42, 7);
  auto b = derive_fast_rng(42, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  // Regression: SplitMix64 advances its state by the same golden-ratio
  // increment derive_rng mixes with, so seeding streams at arithmetic
  // offsets would make stream t a one-draw-shifted copy of stream
  // t + 1, serially correlating consecutive batch trials. The
  // finalizer mix must break that alignment.
  for (std::uint64_t stream = 0; stream < 8; ++stream) {
    auto ahead = derive_fast_rng(42, stream);
    auto next = derive_fast_rng(42, stream + 1);
    (void)ahead();  // advance stream `stream` by one draw
    bool differs = false;
    for (int i = 0; i < 4; ++i) {
      if (ahead() != next()) {
        differs = true;
        break;
      }
    }
    EXPECT_TRUE(differs) << "stream " << stream;
  }
}

TEST(Rng, DerivedStreamsAreReproducible) {
  auto a = derive_rng(42, 7);
  auto b = derive_rng(42, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  auto c = derive_rng(42, 8);
  bool differs = false;
  auto d = derive_rng(42, 7);
  for (int i = 0; i < 100; ++i) {
    if (c() != d()) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace crp::channel
