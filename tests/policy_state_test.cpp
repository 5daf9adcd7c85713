// The CD policies are state machines (channel/protocol.h): one O(1)
// next_state step per round. This suite holds each production policy's
// automaton to the history replay it replaced. The oracles below are
// the replay bodies of CodedSearchPolicy, WillardPolicy,
// TruncatedWillardPolicy and WithAllTransmitPreludeCd as they stood
// before the policies became state machines, kept verbatim as free
// functions over the same parameters. Every comparison is bit for bit:
// the probabilities feed the Binomial draws and the history-tree
// masses, so a last-ulp difference would move every CSV.
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/willard.h"
#include "channel/protocol.h"
#include "core/advice_randomized.h"
#include "core/coded_search.h"
#include "core/prelude.h"
#include "harness/grids.h"
#include "info/distribution.h"
#include "predict/families.h"

namespace crp {
namespace {

using channel::BitString;
using channel::CollisionPolicy;
using Oracle = std::function<double(const BitString&)>;

// ---- the replay oracles ----

/// CodedSearchPolicy::current_range, with the policy's classes and
/// per-class positive-mass flags passed in.
std::size_t coded_current_range(
    const std::vector<std::vector<std::size_t>>& classes_,
    const std::vector<bool>& positive_mass_,
    const channel::BitString& history) {
  // Replay: binary-search state inside the current class, advancing to
  // the next class when a search exhausts its window; wrap around after
  // the last class so repeated attempts are well-defined. Classes whose
  // ranges carry no predicted mass exist only to keep the algorithm
  // correct when the prediction is infinitely diverged from reality, so
  // they are visited on every fourth pass only (pass 0 included):
  // low-entropy predictions keep an O(1)-per-pass revisit rate on their
  // likely classes, while a true range the predictor gave zero mass is
  // still searched infinitely often.
  std::size_t cls = 0;
  std::size_t lo = 0;
  std::size_t hi = classes_[0].size();  // window is [lo, hi)
  std::size_t pass = 0;
  const auto advance_class = [&] {
    do {
      if (cls + 1 == classes_.size()) {
        cls = 0;
        ++pass;
      } else {
        ++cls;
      }
    } while (pass % 4 != 0 && !positive_mass_[cls]);
    lo = 0;
    hi = classes_[cls].size();
  };
  for (bool collided : history) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (collided) {
      lo = mid + 1;  // probe range too small for k: move to larger ranges
    } else {
      hi = mid;  // silence: size guess too large
    }
    if (lo >= hi) advance_class();
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  return classes_[cls][mid];
}

/// CodedSearchPolicy::probability over coded_current_range.
double coded_probability(const std::vector<std::vector<std::size_t>>& classes,
                         const std::vector<bool>& positive_mass,
                         const channel::BitString& history) {
  return std::exp2(
      -static_cast<double>(coded_current_range(classes, positive_mass,
                                               history)));
}

/// WillardPolicy::probability, with num_ranges(n) and repeats passed in.
double willard_probability(std::size_t num_ranges_, std::size_t repeats_,
                           const channel::BitString& history) {
  // Replay the binary search deterministically from the history. The
  // search runs over range indices [lo, hi]; each probe occupies
  // `repeats_` rounds, after which a collision anywhere in the group
  // means the size guess was too small (move right), and an all-silent
  // group means too large (move left). An exhausted search restarts.
  std::size_t lo = 1;
  std::size_t hi = num_ranges_;
  std::size_t group_bits = 0;
  bool group_collision = false;
  for (bool collided : history) {
    group_collision = group_collision || collided;
    if (++group_bits < repeats_) continue;
    const std::size_t mid = lo + (hi - lo) / 2;
    if (group_collision) {
      lo = mid + 1;
    } else {
      if (mid == 1) {
        hi = 0;  // force restart; avoids size_t underflow
      } else {
        hi = mid - 1;
      }
    }
    if (lo > hi || hi == 0 || hi > num_ranges_) {
      lo = 1;
      hi = num_ranges_;
    }
    group_bits = 0;
    group_collision = false;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  return std::exp2(-static_cast<double>(mid));
}

/// TruncatedWillardPolicy::probability, with the advised group and the
/// fallback passed in.
double truncated_willard_probability(const std::vector<std::size_t>& ranges_,
                                     const std::vector<std::size_t>& fallback_,
                                     const channel::BitString& history) {
  // Binary search over indices into the active range set, replayed from
  // the collision history (collision: size guess too small, move to
  // larger ranges; silence: too large). When a search exhausts its
  // window a new attempt begins; with a fallback configured, every
  // fourth attempt searches the fallback set instead of the group.
  const std::vector<std::size_t>* active = &ranges_;
  std::size_t attempt = 0;
  std::size_t lo = 0;
  std::size_t hi = active->size();  // window [lo, hi)
  for (bool collided : history) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (collided) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
    if (lo >= hi) {
      ++attempt;
      const bool use_fallback = !fallback_.empty() && attempt % 4 == 3;
      active = use_fallback ? &fallback_ : &ranges_;
      lo = 0;
      hi = active->size();
    }
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  return std::exp2(-static_cast<double>((*active)[mid]));
}

/// WithAllTransmitPreludeCd::probability around the inner policy's
/// oracle.
double prelude_probability(const Oracle& inner_,
                           const channel::BitString& history) {
  if (history.empty()) return 1.0;
  // Strip the probe's feedback bit; with k >= 2 it is always a
  // collision, carrying no information the inner policy needs.
  const channel::BitString inner_history(history.begin() + 1,
                                         history.end());
  return inner_(inner_history);
}

// ---- configurations ----

struct Case {
  std::string label;
  std::shared_ptr<const CollisionPolicy> policy;
  Oracle oracle;
};

Case coded_case(const std::string& label,
                const info::CondensedDistribution& prediction,
                core::CodeBackend backend) {
  auto policy = std::make_shared<const core::CodedSearchPolicy>(prediction,
                                                                backend);
  std::vector<bool> positive_mass;
  for (const auto& cls : policy->classes()) {
    double mass = 0.0;
    for (const std::size_t r : cls) mass += prediction.prob(r);
    positive_mass.push_back(mass > 0.0);
  }
  Oracle oracle = [classes = policy->classes(),
                   positive_mass](const BitString& history) {
    return coded_probability(classes, positive_mass, history);
  };
  return {label, std::move(policy), std::move(oracle)};
}

Case willard_case(std::size_t n, std::size_t repeats) {
  return {"willard n=" + std::to_string(n) + " repeats=" +
              std::to_string(repeats),
          std::make_shared<const baselines::WillardPolicy>(n, repeats),
          [ranges = info::num_ranges(n), repeats](const BitString& history) {
            return willard_probability(ranges, repeats, history);
          }};
}

Case truncated_case(const std::string& label,
                    const std::vector<std::size_t>& ranges,
                    const std::vector<std::size_t>& fallback) {
  auto policy =
      std::make_shared<const core::TruncatedWillardPolicy>(ranges, fallback);
  return {label, std::move(policy),
          [ranges, fallback](const BitString& history) {
            return truncated_willard_probability(ranges, fallback, history);
          }};
}

Case prelude_case(const Case& inner) {
  return {inner.label + " +prelude",
          std::make_shared<const core::WithAllTransmitPreludeCd>(inner.policy),
          [oracle = inner.oracle](const BitString& history) {
            return prelude_probability(oracle, history);
          }};
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  // Coded search at every Table 1 point (n = 2^16: m = 1, 2, ..., 16 of
  // 16 ranges), with both code backends, plus a prediction on 2 of the
  // 16 ranges whose code puts the other 14 in zero-mass classes, which
  // only every fourth pass visits.
  const std::size_t n = 1 << 16;
  const auto points = harness::table1_entropy_points(n);
  for (const auto& point : points) {
    for (const auto backend :
         {core::CodeBackend::kHuffman, core::CodeBackend::kShannonFano}) {
      cases.push_back(coded_case(
          "coded H=" + std::to_string(point.h) +
              (backend == core::CodeBackend::kHuffman ? " huffman"
                                                      : " shannon-fano"),
          point.condensed, backend));
    }
  }
  const auto narrow =
      predict::uniform_over_ranges(info::num_ranges(n), 2);
  cases.push_back(
      coded_case("coded narrow huffman", narrow, core::CodeBackend::kHuffman));
  cases.push_back(coded_case("coded zipf shannon-fano",
                             predict::zipf_ranges(info::num_ranges(n), 1.0),
                             core::CodeBackend::kShannonFano));

  for (const std::size_t size : {std::size_t{2}, std::size_t{1024}, n}) {
    for (const std::size_t repeats : {std::size_t{1}, std::size_t{3}}) {
      cases.push_back(willard_case(size, repeats));
    }
  }

  cases.push_back(truncated_case("truncated-willard", {5, 6, 7, 8, 9}, {}));
  std::vector<std::size_t> all_ranges;
  for (std::size_t r = 1; r <= 16; ++r) all_ranges.push_back(r);
  cases.push_back(
      truncated_case("truncated-willard+fallback", {5, 6, 7}, all_ranges));

  cases.push_back(prelude_case(cases.front()));  // coded, H = 0
  cases.push_back(prelude_case(cases[points.size()]));  // coded, mid-table
  cases.push_back(prelude_case(willard_case(1024, 1)));
  return cases;
}

std::uint64_t bits_of(double p) { return std::bit_cast<std::uint64_t>(p); }

/// Visits every history of length <= depth below `prefix`, stepping
/// the state alongside, and checks both the stepped state and the fold
/// against the oracle at every node.
void check_subtree(const Case& c, BitString& prefix,
                   CollisionPolicy::State state, std::size_t depth) {
  const std::uint64_t expected = bits_of(c.oracle(prefix));
  ASSERT_EQ(bits_of(c.policy->probability_at(state)), expected)
      << c.label << " stepped, history length " << prefix.size();
  ASSERT_EQ(bits_of(c.policy->probability(prefix)), expected)
      << c.label << " folded, history length " << prefix.size();
  if (prefix.size() == depth) return;
  for (const bool collided : {false, true}) {
    prefix.push_back(collided);
    check_subtree(c, prefix, c.policy->next_state(state, collided), depth);
    prefix.pop_back();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PolicyState, EveryShortHistoryMatchesTheReplay) {
  for (const Case& c : all_cases()) {
    BitString prefix;
    check_subtree(c, prefix, c.policy->initial_state(), 12);
    if (HasFatalFailure()) return;
  }
}

TEST(PolicyState, LongRandomHistoriesMatchTheReplay) {
  // Depths up to 300 pass many class wraps and pass-mod-4 cycles of the
  // coded search (a window of m ranges empties within ceil(log2 m) + 1
  // rounds), many restarts of Willard's search, and the truncated
  // search's fallback attempts. Collision rates vary per history, so
  // some histories climb to the largest ranges and some stay low.
  std::mt19937_64 rng(22);
  for (const Case& c : all_cases()) {
    for (int trial = 0; trial < 2000; ++trial) {
      const std::size_t length = rng() % 301;
      const double collision_rate = static_cast<double>(rng() % 9 + 1) / 10.0;
      std::bernoulli_distribution collide(collision_rate);
      BitString history;
      CollisionPolicy::State state = c.policy->initial_state();
      for (std::size_t r = 0; r < length; ++r) {
        history.push_back(collide(rng));
        state = c.policy->next_state(state, history.back());
      }
      const std::uint64_t expected = bits_of(c.oracle(history));
      ASSERT_EQ(bits_of(c.policy->probability_at(state)), expected)
          << c.label << " stepped, trial " << trial << ", length " << length;
      ASSERT_EQ(bits_of(c.policy->probability(history)), expected)
          << c.label << " folded, trial " << trial << ", length " << length;
    }
  }
}

TEST(PolicyState, WillardRejectsRepeatsItsStateCannotCount) {
  // The group-round counter has the bits from 17 to 62 of the state.
  EXPECT_THROW(baselines::WillardPolicy(1024, std::size_t{1} << 46),
               std::invalid_argument);
  EXPECT_NO_THROW(baselines::WillardPolicy(1024, (std::size_t{1} << 46) - 1));
}

TEST(PolicyState, StatesStayBelowTheWrapperBit) {
  // protocol.h reserves the top bit so a wrapper can add states.
  std::mt19937_64 rng(23);
  for (const Case& c : all_cases()) {
    CollisionPolicy::State state = c.policy->initial_state();
    for (int r = 0; r < 5000; ++r) {
      ASSERT_LT(state, std::uint64_t{1} << 63) << c.label << " round " << r;
      state = c.policy->next_state(state, (rng() & 1) != 0);
    }
  }
}

}  // namespace
}  // namespace crp
