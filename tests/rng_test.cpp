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
//  * lane-seeded streams (derive_rngs, whose key expansion runs ahead
//    of any draw) at every lane count from 1 to 17: outputs, copies,
//    discard and == against lazily seeded streams, and == looking past
//    word 0 of the state;
//  * the std distributions the library feeds from it
//    (binomial on both its waiting and rejection paths, uniform real)
//    and SizeDistribution::sample.
#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
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

// Lane counts straddle kSeedLanes twice, so the interleaved groups and
// the one-stream tail are both covered.
constexpr std::size_t kMaxLaneCount = 17;
static_assert(kMaxLaneCount > 2 * kSeedLanes);

TEST(Rng, LaneSeededStreamsMatchStd) {
  for (std::size_t count = 1; count <= kMaxLaneCount; ++count) {
    const std::uint64_t first = 1000 * count;
    std::vector<Rng> lanes(count);
    derive_rngs(21, first, lanes);
    for (std::size_t j = 0; j < count; ++j) {
      std::mt19937_64 oracle(derive_stream_seed(21, first + j));
      for (std::size_t d = 0; d < kDraws; ++d) {
        const auto got = lanes[j]();
        const auto want = oracle();
        if (got != want) {
          ADD_FAILURE() << count << " lanes: lane " << j << " draw " << d
                        << " is " << got << ", std::mt19937_64 gives "
                        << want;
          break;
        }
      }
    }
  }
}

TEST(Rng, LaneSeededStreamsReseedUsedGenerators) {
  // derive_rngs overwrites whatever state its targets hold.
  std::vector<Rng> lanes(kMaxLaneCount);
  for (Rng& rng : lanes) rng.discard(500);
  derive_rngs(4, 77, lanes);
  for (std::size_t j = 0; j < lanes.size(); ++j) {
    EXPECT_TRUE(lanes[j] == derive_rng(4, 77 + j)) << "lane " << j;
    expect_same_future(lanes[j],
                       std::mt19937_64(derive_stream_seed(4, 77 + j)), kDraws,
                       "reseeded lane", 0);
  }
}

TEST(Rng, LaneSeededCopiesDiscardsAndEquality) {
  const std::vector<std::size_t> cuts = {0,   1,   15,  16,  17,  31,  32,
                                         155, 156, 157, 311, 312, 313, 623,
                                         624, 625, 700};
  for (std::size_t count = 1; count <= kMaxLaneCount; ++count) {
    const std::uint64_t first = 31 * count;
    std::vector<Rng> lanes(count);
    derive_rngs(8, first, lanes);
    // The first lane of a group and the last lane (the tail when count
    // is not a multiple of kSeedLanes).
    for (const std::size_t j : {std::size_t{0}, count - 1}) {
      const std::uint64_t seed = derive_stream_seed(8, first + j);
      // Unstarted: equal to every lazily seeded spelling of the stream,
      // unequal to its neighbours.
      EXPECT_TRUE(lanes[j] == Rng(seed));
      EXPECT_TRUE(Rng(seed) == lanes[j]);
      EXPECT_TRUE(lanes[j] == derive_rng(8, first + j));
      EXPECT_FALSE(lanes[j] != Rng(seed));
      EXPECT_FALSE(lanes[j] == derive_rng(8, first + j + 1));
      for (const std::size_t d : cuts) {
        Rng drawn = lanes[j];  // a copy taken before any draw
        for (std::size_t i = 0; i < d; ++i) drawn();
        Rng skipped = lanes[j];
        skipped.discard(d);
        Rng lazy(seed);
        for (std::size_t i = 0; i < d; ++i) lazy();
        Rng lazy_skipped(seed);
        lazy_skipped.discard(d);
        Rng lazy_ahead(seed);
        lazy_ahead.discard(d + 1);
        std::mt19937_64 oracle(seed);
        oracle.discard(d);
        EXPECT_TRUE(drawn == lazy) << "lane " << j << " after " << d;
        EXPECT_TRUE(drawn == lazy_skipped) << "lane " << j << " after " << d;
        EXPECT_TRUE(skipped == lazy) << "lane " << j << " after " << d;
        EXPECT_TRUE(lazy == skipped) << "lane " << j << " after " << d;
        EXPECT_FALSE(drawn == lazy_ahead) << "lane " << j << " after " << d;
        EXPECT_TRUE(drawn != lazy_ahead) << "lane " << j << " after " << d;
        const Rng copied(drawn);
        Rng assigned(seed ^ 0x5555);
        assigned();
        assigned = skipped;
        EXPECT_TRUE(copied == drawn);
        EXPECT_TRUE(assigned == lazy);
        expect_same_future(drawn, oracle, 400, "lane-seeded draws", d);
        expect_same_future(skipped, oracle, 400, "lane-seeded discard", d);
        expect_same_future(copied, oracle, 400, "lane-seeded copy", d);
        expect_same_future(assigned, oracle, 400, "lane-seeded assignment",
                           d);
      }
    }
  }
}

TEST(Rng, EqualityAgreesWithStdAcrossSeedingPaths) {
  // Lazily seeded, lane-seeded, advanced by draws or by discard: every
  // pair compares as the std::mt19937_64 states they stand for.
  const std::vector<std::size_t> draws = {0,   1,   16,  17,  156,
                                          157, 312, 313, 624, 625};
  struct State {
    Rng rng;
    std::mt19937_64 oracle;
  };
  std::vector<State> states;
  for (std::uint64_t stream = 0; stream < 2; ++stream) {
    const std::uint64_t seed = derive_stream_seed(6, stream);
    std::array<Rng, 1> lane;
    derive_rngs(6, stream, lane);
    for (const std::size_t d : draws) {
      for (const Rng& start : {Rng(seed), lane[0]}) {
        State drawn{start, std::mt19937_64(seed)};
        for (std::size_t j = 0; j < d; ++j) {
          drawn.rng();
          drawn.oracle();
        }
        states.push_back(drawn);
        State skipped{start, std::mt19937_64(seed)};
        skipped.rng.discard(d);
        skipped.oracle.discard(d);
        states.push_back(skipped);
      }
    }
  }
  for (const State& a : states) {
    for (const State& b : states) {
      EXPECT_EQ(a.rng == b.rng, a.oracle == b.oracle);
      EXPECT_EQ(a.rng != b.rng, a.oracle != b.oracle);
    }
  }
}

// std::mt19937_64's output tempering of state word z.
std::uint64_t temper(std::uint64_t z) {
  z ^= (z >> 29) & 0x5555555555555555ULL;
  z ^= (z << 17) & 0x71d67fffeda60000ULL;
  z ^= (z << 37) & 0xfff7eee000000000ULL;
  return z ^ (z >> 43);
}

// Inverse of temper: the state word behind an output.
std::uint64_t untemper(std::uint64_t z) {
  z ^= z >> 43;
  z ^= (z << 37) & 0xfff7eee000000000ULL;
  std::uint64_t y = z;
  for (int i = 0; i < 4; ++i) y = z ^ ((y << 17) & 0x71d67fffeda60000ULL);
  z = y;
  for (int i = 0; i < 3; ++i) y = z ^ ((y >> 29) & 0x5555555555555555ULL);
  return y;
}

TEST(Rng, EqualityLooksPastTheFirstWord) {
  // After 312 draws a stream sits at std position 312 on its first
  // twist, whose word 0 is the state word behind output 0. A fresh
  // stream seeded with that word also sits at position 312 with the
  // same word 0, on its key instead: a different std state.
  for (std::uint64_t stream = 0; stream < 4; ++stream) {
    const std::uint64_t seed = derive_stream_seed(12, stream);
    Rng drawn(seed);
    std::mt19937_64 drawn_oracle(seed);
    const std::uint64_t output0 = drawn();
    const std::uint64_t word0 = untemper(output0);
    ASSERT_EQ(temper(word0), output0);
    drawn_oracle();
    drawn.discard(311);
    drawn_oracle.discard(311);
    std::array<Rng, 1> lane;
    derive_rngs(12, stream, lane);
    lane[0].discard(312);
    for (const Rng& fresh : {Rng(word0), make_rng(word0)}) {
      const std::mt19937_64 fresh_oracle(word0);
      ASSERT_FALSE(fresh_oracle == drawn_oracle);
      EXPECT_FALSE(fresh == drawn);
      EXPECT_FALSE(drawn == fresh);
      EXPECT_TRUE(fresh != lane[0]);
    }
    EXPECT_TRUE(drawn == lane[0]);
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
