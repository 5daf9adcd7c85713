// channel::Rng against its oracle, std::mt19937_64. Rng defers the key
// expansion and the first twist until draws need them (channel/rng.h),
// so every place the lazy work is cut is a place it could drift from
// the standard engine: the chunk edges of the first twist (16, 32, 64,
// 128, 256), the twist's halves (155/156/157), its last word
// (311/312/313), and the first full twist after it (623/624/625). The
// per-trial streams of every simulated measurement are Rngs, so any
// drift here would move every simulated CSV, journal and manifest
// byte. Pinned here, always against a std::mt19937_64 run alongside:
//  * outputs for every draw count up to 700, plus 10^5, over edge
//    seeds and 1000 derive_stream_seed values;
//  * copies and copy-assignments taken at every draw count;
//  * discard(z) against z draws;
//  * operator== against std's over (seed, draws) pairs, including
//    generators that reached one state by different paths;
//  * the std distributions the library feeds from it
//    (binomial on both its waiting and rejection paths, uniform real)
//    and SizeDistribution::sample.
#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "channel/rng.h"
#include "info/distribution.h"

namespace crp::channel {
namespace {

static_assert(std::uniform_random_bit_generator<Rng>);
static_assert(sizeof(Rng) == sizeof(std::mt19937_64));
static_assert(Rng::default_seed == std::mt19937_64::default_seed);
static_assert(Rng::min() == std::mt19937_64::min());
static_assert(Rng::max() == std::mt19937_64::max());

constexpr std::array<std::uint64_t, 4> kEdgeSeeds = {
    0, 1, 5489, ~std::uint64_t{0}};
constexpr std::size_t kDraws = 700;

// Every Rng output up to `draws` equals std::mt19937_64's for `seed`.
void expect_same_stream(std::uint64_t seed, std::size_t draws) {
  Rng rng(seed);
  std::mt19937_64 oracle(seed);
  for (std::size_t j = 0; j < draws; ++j) {
    const auto got = rng();
    const auto want = oracle();
    if (got != want) {
      ADD_FAILURE() << "seed " << seed << ": draw " << j << " is " << got
                    << ", std::mt19937_64 gives " << want;
      return;
    }
  }
}

// The next `draws` outputs of `rng` equal `oracle`'s.
void expect_same_future(Rng rng, std::mt19937_64 oracle, std::size_t draws,
                        const char* what, std::size_t at) {
  for (std::size_t j = 0; j < draws; ++j) {
    if (rng() != oracle()) {
      ADD_FAILURE() << what << " taken after " << at << " draws diverges "
                    << j << " draws later";
      return;
    }
  }
}

TEST(Rng, MatchesStdForEveryDrawCountOnEdgeSeeds) {
  for (const std::uint64_t seed : kEdgeSeeds) {
    expect_same_stream(seed, kDraws);
    expect_same_stream(seed, 100000);
  }
}

TEST(Rng, MatchesStdOnDerivedStreamSeeds) {
  for (std::uint64_t stream = 0; stream < 1000; ++stream) {
    expect_same_stream(derive_stream_seed(7, stream), kDraws);
  }
  for (std::uint64_t stream = 0; stream < 8; ++stream) {
    expect_same_stream(derive_stream_seed(1, stream), 100000);
  }
}

TEST(Rng, DeriveAndMakeRngAreTheSeededStreams) {
  Rng derived = derive_rng(3, 41);
  std::mt19937_64 oracle(derive_stream_seed(3, 41));
  expect_same_future(derived, oracle, kDraws, "derive_rng", 0);
  expect_same_future(make_rng(99), std::mt19937_64(99), kDraws, "make_rng",
                     0);
}

TEST(Rng, DefaultConstructedEqualsStdDefault) {
  EXPECT_TRUE(Rng() == Rng(5489u));
  expect_same_future(Rng(), std::mt19937_64(), kDraws, "default", 0);
}

TEST(Rng, CopiesContinueIdenticallyAtEveryDrawCount) {
  for (const std::uint64_t seed : kEdgeSeeds) {
    Rng rng(seed);
    std::mt19937_64 oracle(seed);
    for (std::size_t at = 0; at <= kDraws; ++at) {
      Rng copied(rng);
      Rng assigned(seed ^ 0x5555);
      assigned();  // a target with state of its own to overwrite
      assigned = rng;
      expect_same_future(copied, oracle, 2 * kDraws, "copy", at);
      expect_same_future(assigned, oracle, 2 * kDraws, "assignment", at);
      rng();
      oracle();
    }
  }
}

TEST(Rng, SelfAssignmentKeepsTheStream) {
  Rng rng(11);
  std::mt19937_64 oracle(11);
  for (int i = 0; i < 20; ++i) {
    rng();
    oracle();
  }
  Rng& alias = rng;
  rng = alias;
  expect_same_future(rng, oracle, kDraws, "self-assignment", 20);
}

TEST(Rng, DiscardEqualsDraws) {
  for (const std::uint64_t seed : kEdgeSeeds) {
    std::vector<unsigned long long> steps;
    for (unsigned long long z = 0; z <= kDraws; ++z) steps.push_back(z);
    steps.push_back(100000);
    for (const unsigned long long z : steps) {
      Rng rng(seed);
      std::mt19937_64 oracle(seed);
      rng.discard(z);
      for (unsigned long long j = 0; j < z; ++j) oracle();
      expect_same_future(rng, oracle, 400, "discard", z);
    }
    // Mid-stream: a few draws, then a discard across the lazy edges.
    for (unsigned long long z = 0; z <= kDraws; z += 7) {
      Rng rng(seed);
      std::mt19937_64 oracle(seed);
      for (int j = 0; j < 5; ++j) {
        rng();
        oracle();
      }
      rng.discard(z);
      oracle.discard(z);
      expect_same_future(rng, oracle, 400, "mid-stream discard", 5 + z);
    }
  }
}

TEST(Rng, EqualityAgreesWithStd) {
  const std::vector<std::size_t> draws = {0,   1,   15,  16,  17,  31,  32,
                                          155, 156, 157, 311, 312, 313, 623,
                                          624, 625, 700};
  const std::array<std::uint64_t, 2> seeds = {1, 2};
  struct State {
    Rng rng;
    std::mt19937_64 oracle;
  };
  std::vector<State> states;
  for (const std::uint64_t seed : seeds) {
    for (const std::size_t d : draws) {
      State s{Rng(seed), std::mt19937_64(seed)};
      for (std::size_t j = 0; j < d; ++j) {
        s.rng();
        s.oracle();
      }
      states.push_back(s);
      // The same position reached by discard settles the lazy twist at
      // other cut points, and must still compare equal.
      State skipped{Rng(seed), std::mt19937_64(seed)};
      skipped.rng.discard(d);
      skipped.oracle.discard(d);
      states.push_back(skipped);
    }
  }
  for (const State& a : states) {
    for (const State& b : states) {
      EXPECT_EQ(a.rng == b.rng, a.oracle == b.oracle);
      EXPECT_EQ(a.rng != b.rng, a.oracle != b.oracle);
    }
  }
}

TEST(Rng, BinomialDrawsAgreeOnBothPaths) {
  // libstdc++ samples by waiting times while k * min(p, 1 - p) < 8 and
  // by rejection above; each (k, p) here lands on one of the two.
  const std::vector<std::pair<std::size_t, double>> cases = {
      {16, 0.01},   {16, 0.3},    {16, 0.5},  {16, 0.97},
      {65536, 1e-5}, {65536, 1e-4}, {65536, 0.01}, {65536, 0.5}};
  for (const auto& [k, p] : cases) {
    Rng rng(derive_stream_seed(5, k));
    std::mt19937_64 oracle(derive_stream_seed(5, k));
    std::binomial_distribution<std::size_t> got(k, p);
    std::binomial_distribution<std::size_t> want(k, p);
    for (int j = 0; j < 3000; ++j) {
      ASSERT_EQ(got(rng), want(oracle)) << "k=" << k << " p=" << p
                                        << " draw " << j;
    }
  }
}

TEST(Rng, UniformRealDrawsAgree) {
  for (std::uint64_t stream = 0; stream < 50; ++stream) {
    Rng rng(derive_stream_seed(9, stream));
    std::mt19937_64 oracle(derive_stream_seed(9, stream));
    std::uniform_real_distribution<double> got(0.0, 1.0);
    std::uniform_real_distribution<double> want(0.0, 1.0);
    for (int j = 0; j < 400; ++j) ASSERT_EQ(got(rng), want(oracle));
  }
}

TEST(Rng, SizeDistributionSamplesAgree) {
  const auto dist = info::SizeDistribution::uniform(4096);
  for (std::uint64_t stream = 0; stream < 50; ++stream) {
    Rng rng(derive_stream_seed(13, stream));
    std::mt19937_64 oracle(derive_stream_seed(13, stream));
    for (int j = 0; j < 400; ++j) {
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      ASSERT_EQ(dist.sample(rng), dist.sample_at(unit(oracle)));
    }
  }
}

}  // namespace
}  // namespace crp::channel
