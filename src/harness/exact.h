// Exact (non-Monte-Carlo) analysis of uniform algorithms.
//
// For a fixed participant count k, a no-CD schedule induces independent
// per-round success probabilities s_r = k p_r (1 - p_r)^{k-1}; the
// distribution of the solving round is then computable in closed form.
// For CD policies the execution is a Markov chain over collision
// histories, which we enumerate exactly down to a depth with pruning.
//
// These provide ground truth for the simulator (tests cross-validate
// the two paths) and let the benches evaluate success profiles without
// sampling noise.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "channel/protocol.h"

namespace crp::harness {

/// Per-round probability that exactly one of k players transmits when
/// each transmits independently with probability p.
double success_probability(std::size_t k, double p);

/// Probability that 0 / exactly 1 / >= 2 of k players transmit.
struct RoundOutcomeProbabilities {
  double silence = 0.0;
  double success = 0.0;
  double collision = 0.0;
};
RoundOutcomeProbabilities round_outcome_probabilities(std::size_t k,
                                                      double p);

/// round_outcome_probabilities(k, p) for one k, memoized by p. Policies
/// draw their probabilities from a handful of values (powers of two
/// for the paper's), and a hit returns the very result the call would,
/// so callers stay bit-identical; past kCapacity distinct values it
/// computes uncached. A p is found through a small open-addressed index
/// keyed by its bit pattern (so +0.0 and -0.0 are two keys with equal
/// results): the first probe almost always decides, where a scan of
/// the entries exits at an unpredictable position. operator()
/// memoizes and is not thread-safe (one per expansion); lookup() only
/// reads, so a filled cache (a HistoryTree's) can be shared by any
/// number of threads.
class OutcomeCache {
 public:
  /// Distinct probabilities cached; later ones are computed uncached.
  static constexpr std::size_t kCapacity = 64;
  /// Index slots: twice the capacity, so probe runs stay short.
  static constexpr std::size_t kSlots = 2 * kCapacity;

  explicit OutcomeCache(std::size_t k) : k_(k) {}

  RoundOutcomeProbabilities operator()(double p) {
    std::size_t slot = 0;
    if (const auto* hit = find(p, slot)) return *hit;
    const auto outcome = round_outcome_probabilities(k_, p);
    if (entries_.size() < kCapacity) {
      entries_.push_back({std::bit_cast<std::uint64_t>(p), outcome});
      index_[slot] = static_cast<std::uint8_t>(entries_.size());
    }
    return outcome;
  }

  /// The cached result for p, or the direct call's when p was never
  /// cached; memoizes nothing.
  RoundOutcomeProbabilities lookup(double p) const {
    std::size_t slot = 0;
    if (const auto* hit = find(p, slot)) return *hit;
    return round_outcome_probabilities(k_, p);
  }

  /// The index slot p's probe starts at (exposed for tests): a
  /// Fibonacci hash of its bits folded in half, so keys that differ
  /// only in the exponent (powers of two) spread.
  static std::size_t home_slot(double p) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(p);
    return static_cast<std::size_t>(
        ((bits ^ (bits >> 32)) * 0x9E3779B97F4A7C15ULL) >>
        (64 - std::bit_width(kSlots - 1)));
  }

 private:
  struct Entry {
    std::uint64_t bits = 0;
    RoundOutcomeProbabilities outcome;
  };

  /// The entry keyed by p's bits, probing linearly from its home
  /// slot; on a miss, null with `slot` at the empty slot that ends the
  /// run.
  const RoundOutcomeProbabilities* find(double p, std::size_t& slot) const {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(p);
    for (slot = home_slot(p); index_[slot] != 0; slot = (slot + 1) % kSlots) {
      const Entry& entry = entries_[index_[slot] - 1];
      if (entry.bits == bits) return &entry.outcome;
    }
    return nullptr;
  }

  std::size_t k_;
  /// 1 + the entry index of each occupied slot; 0 marks an empty one.
  std::array<std::uint8_t, kSlots> index_{};
  std::vector<Entry> entries_;
};

/// Exact no-CD profile over the first `horizon` rounds.
struct ExactProfile {
  /// solve_by[r] = Pr(solved within the first r rounds), r in
  /// [0, horizon] (solve_by[0] = 0).
  std::vector<double> solve_by;
  /// Expected solving round conditioned on solving within the horizon,
  /// plus the unresolved tail mass charged at horizon + 1 — an upper
  /// bound proxy; exact when tail_mass is ~0.
  double truncated_expectation = 0.0;
  /// Pr(not solved within the horizon).
  double tail_mass = 0.0;
};

ExactProfile exact_profile_no_cd(const channel::ProbabilitySchedule& schedule,
                                 std::size_t k, std::size_t horizon);

/// Exact expected solving round of a no-CD schedule, computed by
/// extending the horizon until the tail mass falls below `tail_bound`
/// (throws std::runtime_error if `max_horizon` rounds cannot get the
/// tail that small — e.g. a schedule that cannot solve this k).
double exact_expected_rounds_no_cd(
    const channel::ProbabilitySchedule& schedule, std::size_t k,
    double tail_bound = 1e-9, std::size_t max_horizon = 1 << 22);

/// Exact CD profile: enumerates the history tree to depth `horizon`,
/// pruning branches whose reach probability drops below `prune_below`
/// (their mass is accounted in tail_mass, so solve_by stays a valid
/// lower bound and solve_by + tail an upper bound). The enumeration
/// is the shared expansion of harness/history_tree.h, run on the
/// calling thread.
ExactProfile exact_profile_cd(const channel::CollisionPolicy& policy,
                              std::size_t k, std::size_t horizon,
                              double prune_below = 1e-12);

}  // namespace crp::harness
