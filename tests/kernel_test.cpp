// The kernel layer's determinism contract (channel/kernels/kernels.h):
// the scalar backend is the reference, and every vector tier the host
// offers must reproduce it bit for bit — same uniforms, same targets,
// same round indices — on randomized and adversarial inputs alike.
// Absent tiers are SKIPPED visibly (never silently passed), so a CI
// log always says which equivalences actually ran on that host.
//
// Also pinned here:
//  * pass 1 against the real RNG objects it hoisted: one
//    derive_fast_rng stream per trial driven through a freshly
//    constructed std::uniform_real_distribution, the draw sequence the
//    kernels re-derive arithmetically;
//  * canonical_unit against std::uniform_real_distribution over a
//    scripted URBG, word by word, including the clamp at 1.0;
//  * log1p_neg within 1 ulp of libm's log1p over (-1, 0];
//  * the probe descents against std::upper_bound / the scalar
//    search_one on tables with exact ties, single entries, all--inf
//    padding, and lane counts that do not divide any vector width.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "channel/engine.h"
#include "channel/history_engine.h"
#include "channel/kernels/kernels.h"
#include "channel/protocol.h"
#include "channel/rng.h"
#include "core/likelihood_schedule.h"
#include "info/distribution.h"
#include "predict/families.h"

namespace crp::channel::kernels {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<Tier> all_tiers() {
  return {Tier::kScalar, Tier::kAvx2, Tier::kAvx512};
}

/// A probe table holder: pads a log-survival prefix array the way
/// BatchNoCdSampler::finalize_probe_table does and keeps the storage
/// alive behind the borrowed view.
struct OwnedProbeTable {
  std::vector<double> padded;
  ProbeTable view;

  OwnedProbeTable(std::vector<double> log_survival, bool periodic,
                  std::size_t max_rounds) {
    const std::size_t size = std::bit_ceil(log_survival.size());
    padded.assign(size, -kInf);
    std::copy(log_survival.begin(), log_survival.end(), padded.begin());
    view = {padded.data(), padded.size(), log_survival.size(),
            periodic,      log_survival.back(), max_rounds};
  }
};

/// A CDF holder with the sentinel/padding layout probe_cdf expects.
struct OwnedCdfTable {
  std::vector<double> padded;
  std::vector<double> cdf;
  CdfTable view;

  explicit OwnedCdfTable(std::vector<double> entries) : cdf(entries) {
    padded.assign(std::bit_ceil(entries.size() + 1), kInf);
    padded[0] = 0.0;
    std::copy(entries.begin(), entries.end(), padded.begin() + 1);
    view = {padded.data(), padded.size(), entries.size()};
  }
};

// ---- scalar reference properties ----

TEST(KernelScalar, Pass1MatchesHoistedDistributionDrawSequence) {
  // The kernels replaced a loop that constructed a fresh
  // std::uniform_real_distribution per trial; the draw sequence must
  // survive the hoist bit for bit.
  const Ops* scalar = ops_for(Tier::kScalar);
  ASSERT_NE(scalar, nullptr);
  for (const std::uint64_t seed : {0ULL, 404ULL, 0xfffffffffffffff0ULL}) {
    for (const std::size_t count : {std::size_t{1}, std::size_t{33},
                                    std::size_t{1000}}) {
      const std::size_t first_trial = seed % 97;
      std::vector<double> u(count), uk(count), u2(count);
      scalar->pass1_uniform(seed, first_trial, count, u.data());
      scalar->pass1_uniform_pair(seed, first_trial, count, uk.data(),
                                 u2.data());
      for (std::size_t t = 0; t < count; ++t) {
        SplitMix64 rng = derive_fast_rng(seed, first_trial + t);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        const double want_first = unit(rng);
        const double want_second = unit(rng);
        EXPECT_EQ(u[t], want_first);
        EXPECT_EQ(uk[t], want_first);
        EXPECT_EQ(u2[t], want_second);
      }
    }
  }
}

TEST(KernelScalar, CanonicalUnitMatchesLibstdcppWordForWord) {
  /// Replays one scripted 64-bit word through the real distribution.
  struct ScriptedUrbg {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type word;
    result_type operator()() { return word; }
  };
  const std::uint64_t words[] = {
      0ULL,
      1ULL,
      0x7fffffffffffffffULL,
      0x8000000000000000ULL,
      0xfffffffffffff7ffULL,  // last word below the clamp region
      0xfffffffffffff800ULL,  // first word whose double rounds to 1.0
      ~0ULL,
  };
  for (const std::uint64_t w : words) {
    ScriptedUrbg urbg{w};
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const double want = unit(urbg);
    EXPECT_EQ(canonical_unit(w), want) << "word " << w;
    EXPECT_LT(canonical_unit(w), 1.0);
  }
}

TEST(KernelScalar, Log1pNegWithinOneUlpOfLibm) {
  EXPECT_EQ(log1p_neg(0.0), 0.0);
  EXPECT_EQ(log1p_neg(-0.0), -0.0);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 200000; ++i) {
    double x;
    switch (i % 3) {
      case 0: x = -unit(rng); break;                       // bulk
      case 1: x = -unit(rng) * 0x1p-28; break;             // tiny branch
      default: x = -1.0 + unit(rng) * 0x1p-20; break;      // deep end
    }
    const double got = log1p_neg(x);
    const double want = std::log1p(x);
    // ulp distance via the ordered integer embedding (both negative
    // or both zero here).
    const auto a = std::bit_cast<std::int64_t>(got);
    const auto b = std::bit_cast<std::int64_t>(want);
    EXPECT_LE(std::llabs(a - b), 1) << "x = " << x;
  }
}

TEST(KernelScalar, ProbeCdfOneMatchesUpperBoundWithTies) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int rep = 0; rep < 300; ++rep) {
    const std::size_t n = 1 + rng() % 40;
    std::vector<double> cdf(n);
    for (auto& c : cdf) c = unit(rng);
    std::sort(cdf.begin(), cdf.end());
    if (rep % 2 == 1 && n >= 3) {
      cdf[n / 2] = cdf[n / 2 - 1];  // force an exact tie
      std::sort(cdf.begin(), cdf.end());
    }
    const OwnedCdfTable table(cdf);
    for (int q = 0; q < 50; ++q) {
      double u;
      switch (q % 4) {
        case 0: u = unit(rng); break;
        case 1: u = cdf[rng() % n]; break;  // query ties an entry
        case 2: u = 0.0; break;
        default: u = 1.0; break;            // past every entry
      }
      const auto want = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      EXPECT_EQ(probe_cdf_one(table.view, u), want);
    }
  }
}

// ---- cross-tier bit equality, one fixture per tier ----

class KernelTierTest : public ::testing::TestWithParam<Tier> {
 protected:
  void SetUp() override {
    if (ops_for(GetParam()) == nullptr) {
      GTEST_SKIP() << "tier " << tier_name(GetParam())
                   << " not available on this host/build";
    }
  }
  const Ops& tier_ops() { return *ops_for(GetParam()); }
  const Ops& scalar_ops() { return *ops_for(Tier::kScalar); }
};

TEST_P(KernelTierTest, Pass1Bitwise) {
  for (std::size_t count = 0; count <= 33; ++count) {
    std::vector<double> u(count + 1, -1.0), uref(count + 1, -1.0);
    std::vector<double> uk(count + 1, -1.0), ukref(count + 1, -1.0);
    tier_ops().pass1_uniform(404, 7, count, u.data());
    scalar_ops().pass1_uniform(404, 7, count, uref.data());
    EXPECT_EQ(u, uref) << "count " << count;
    tier_ops().pass1_uniform_pair(404, 7, count, uk.data(), u.data());
    scalar_ops().pass1_uniform_pair(404, 7, count, ukref.data(), uref.data());
    EXPECT_EQ(u, uref) << "count " << count;
    EXPECT_EQ(uk, ukref) << "count " << count;  // and no overrun past count
  }
}

TEST_P(KernelTierTest, MapTargetsBitwise) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t count = 1; count <= 33; ++count) {
    std::vector<double> u(count);
    for (auto& x : u) x = unit(rng);
    u[0] = 0.0;  // the log1p_neg(-0.0) edge
    if (count > 1) u[1] = std::nextafter(1.0, 0.0);  // deepest target
    std::vector<double> got = u, want = u;
    tier_ops().map_targets(got.data(), count);
    scalar_ops().map_targets(want.data(), count);
    for (std::size_t t = 0; t < count; ++t) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[t]),
                std::bit_cast<std::uint64_t>(want[t]))
          << "count " << count << " lane " << t;
    }
  }
}

TEST_P(KernelTierTest, ProbeRoundsBitwiseOnAdversarialTables) {
  // Tables chosen for the descent's edge cases: a single entry (no
  // padding, nothing to descend), a sure-success round (-inf inside
  // the entries), certain periodic tables, a tiny period that forces
  // deep analytic skips and period-edge retries, and a budget clamp.
  const std::vector<OwnedProbeTable> tables = [] {
    std::vector<OwnedProbeTable> v;
    v.emplace_back(std::vector<double>{0.0}, false, 100);       // single entry
    v.emplace_back(std::vector<double>{0.0}, true, 100);
    v.emplace_back(std::vector<double>{0.0, -kInf}, false, 100);  // sure round
    v.emplace_back(std::vector<double>{0.0, -kInf}, true, 100);   // certain
    v.emplace_back(std::vector<double>{0.0, -0.25}, true, 1000);  // tiny period
    v.emplace_back(std::vector<double>{0.0, -0.5, -1.0, -1.5}, false, 100);
    v.emplace_back(std::vector<double>{0.0, -0.5, -1.0, -1.5}, true, 6);
    v.emplace_back(std::vector<double>{0.0, -0.0, -0.0, -1.0}, false, 100);
    return v;
  }();
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (const auto& table : tables) {
    for (std::size_t count = 1; count <= 33; ++count) {
      std::vector<double> targets(count);
      for (std::size_t t = 0; t < count; ++t) {
        switch (t % 4) {
          case 0: targets[t] = log1p_neg(-unit(rng)); break;
          case 1:  // exactly a table value: the strict `<` tie case
            targets[t] = table.padded[rng() % table.view.rounds];
            break;
          case 2: targets[t] = -0.0; break;
          default: targets[t] = -0.25 * static_cast<double>(rng() % 64);
        }
        if (std::isinf(targets[t])) targets[t] = -1.0;  // finite draws only
      }
      std::vector<std::uint64_t> got(count, ~0ULL), want(count, ~0ULL);
      tier_ops().probe_rounds(table.view, targets.data(), count, got.data());
      scalar_ops().probe_rounds(table.view, targets.data(), count,
                                want.data());
      EXPECT_EQ(got, want) << "rounds " << table.view.rounds << " periodic "
                           << table.view.periodic << " count " << count;
      for (std::size_t t = 0; t < count; ++t) {
        EXPECT_EQ(want[t], search_one(table.view, targets[t]));
      }
    }
  }
}

TEST_P(KernelTierTest, ProbeCdfBitwise) {
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t entries = 1; entries <= 40; ++entries) {
    std::vector<double> cdf(entries);
    for (auto& c : cdf) c = unit(rng);
    std::sort(cdf.begin(), cdf.end());
    if (entries >= 2) cdf[entries - 1] = cdf[entries - 2];  // trailing tie
    const OwnedCdfTable table(cdf);
    for (std::size_t count = 1; count <= 17; ++count) {
      std::vector<double> u(count);
      for (std::size_t t = 0; t < count; ++t) {
        u[t] = t % 2 == 0 ? unit(rng) : cdf[rng() % entries];
      }
      std::vector<std::uint64_t> got(count, ~0ULL), want(count, ~0ULL);
      tier_ops().probe_cdf(table.view, u.data(), count, got.data());
      scalar_ops().probe_cdf(table.view, u.data(), count, want.data());
      EXPECT_EQ(got, want) << "entries " << entries << " count " << count;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTiers, KernelTierTest,
                         ::testing::ValuesIn(all_tiers()),
                         [](const ::testing::TestParamInfo<Tier>& info) {
                           return tier_name(info.param);
                         });

// ---- engine-level equivalence under forced tiers ----

/// A constant-probability CD policy (ignores the history).
class ConstantPolicy final : public CollisionPolicy {
 public:
  explicit ConstantPolicy(double p) : p_(p) {}
  double probability(const BitString&) const override { return p_; }
  std::string name() const override { return "constant"; }

 private:
  double p_;
};

/// Runs `engine` over a block partition at a forced tier and returns
/// the result columns.
std::pair<std::vector<std::uint8_t>, std::vector<std::uint64_t>>
run_at_tier(Tier tier, const Engine& engine, const SizeSource& sizes,
            std::size_t trials, std::size_t max_rounds) {
  EXPECT_TRUE(force_tier(tier));
  std::vector<std::uint8_t> solved(trials);
  std::vector<std::uint64_t> rounds(trials);
  // A block size that no lane width divides, to exercise the tails.
  for (std::size_t first = 0; first < trials; first += 257) {
    const std::size_t count = std::min<std::size_t>(257, trials - first);
    TrialBlock block{404, first, max_rounds, sizes,
                     std::span(solved.data() + first, count),
                     std::span(rounds.data() + first, count)};
    engine.run_many(block);
  }
  return {std::move(solved), std::move(rounds)};
}

TEST(KernelEngineEquivalence, ResultColumnsIdenticalAcrossTiers) {
  // The whole point of the contract: a result column depends on
  // (seed, first_trial) only, never on the dispatched ISA.
  const auto condensed =
      predict::uniform_over_ranges(info::num_ranges(1 << 12), 6);
  const auto actual = predict::lift(condensed, 1 << 12,
                                    predict::RangePlacement::kHighEndpoint);
  const core::LikelihoodOrderedSchedule schedule(condensed);
  const BatchColumnarEngine batch(schedule);
  const ConstantPolicy half(0.5);
  const HistoryTreeEngine history(half);

  struct Case {
    const Engine* engine;
    SizeSource sizes;
    const char* label;
  };
  const Case cases[] = {
      {&batch, {&actual, 0}, "batch drawn sizes"},
      {&batch, {nullptr, 60}, "batch fixed k"},
      {&history, {nullptr, 1}, "history inverse-CDF"},
  };

  const Tier original = tier();
  std::size_t compared = 0;
  for (const Case& c : cases) {
    const auto reference =
        run_at_tier(Tier::kScalar, *c.engine, c.sizes, 4099, 1 << 12);
    for (const Tier t : {Tier::kAvx2, Tier::kAvx512}) {
      if (ops_for(t) == nullptr) continue;
      const auto got = run_at_tier(t, *c.engine, c.sizes, 4099, 1 << 12);
      EXPECT_EQ(got.first, reference.first) << c.label << " @ "
                                            << tier_name(t);
      EXPECT_EQ(got.second, reference.second) << c.label << " @ "
                                              << tier_name(t);
      ++compared;
    }
  }
  ASSERT_TRUE(force_tier(original));
  if (compared == 0) {
    GTEST_SKIP() << "no vector tier available; scalar-only host/build";
  }
}

TEST(KernelDispatch, ReportsAConsistentTier) {
  EXPECT_EQ(kernel_tier(), tier());
  EXPECT_STREQ(kernel_tier_name(), tier_name(tier()));
  EXPECT_NE(ops_for(Tier::kScalar), nullptr);  // scalar always exists
  EXPECT_NE(ops_for(tier()), nullptr);         // dispatch picked a real tier
}

TEST(KernelDispatch, ParseTierIsStrict) {
  // The CRP_KERNEL_TIER env surface: every documented name round-trips
  // through tier_name, everything else is a hard error — a typo'd cap
  // must never silently dispatch a different tier.
  EXPECT_EQ(parse_tier("scalar"), Tier::kScalar);
  EXPECT_EQ(parse_tier("avx2"), Tier::kAvx2);
  EXPECT_EQ(parse_tier("avx512"), Tier::kAvx512);
  for (const Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    EXPECT_EQ(parse_tier(tier_name(t)), t);
  }
  EXPECT_THROW(parse_tier("avx-512"), std::invalid_argument);
  EXPECT_THROW(parse_tier("AVX2"), std::invalid_argument);
  EXPECT_THROW(parse_tier("scalar "), std::invalid_argument);
  EXPECT_THROW(parse_tier(""), std::invalid_argument);
}

TEST(KernelDispatch, ForceTierRejectsNonTierValues) {
  // A bad cast is a caller bug (throw); a valid-but-absent tier is a
  // capability gap (false). The distinction keeps skip-vs-fail honest
  // in the tier-parameterized suites.
  const Tier original = tier();
  EXPECT_THROW(force_tier(static_cast<Tier>(99)), std::invalid_argument);
  EXPECT_THROW(force_tier(static_cast<Tier>(-1)), std::invalid_argument);
  EXPECT_EQ(tier(), original);  // nothing changed
  ASSERT_TRUE(force_tier(original));
}

}  // namespace
}  // namespace crp::channel::kernels
