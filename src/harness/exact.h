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

#include <cstddef>
#include <utility>
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
/// computes uncached. operator() memoizes and is not thread-safe (one
/// per expansion); lookup() only reads, so a filled cache (a
/// HistoryTree's) can be shared by any number of threads.
class OutcomeCache {
 public:
  explicit OutcomeCache(std::size_t k) : k_(k) {}

  RoundOutcomeProbabilities operator()(double p) {
    if (const auto* hit = find(p)) return *hit;
    const auto outcome = round_outcome_probabilities(k_, p);
    if (entries_.size() < kCapacity) entries_.emplace_back(p, outcome);
    return outcome;
  }

  /// The cached result for p, or the direct call's when p was never
  /// cached; memoizes nothing.
  RoundOutcomeProbabilities lookup(double p) const {
    if (const auto* hit = find(p)) return *hit;
    return round_outcome_probabilities(k_, p);
  }

 private:
  const RoundOutcomeProbabilities* find(double p) const {
    for (const auto& [key, outcome] : entries_) {
      if (key == p) return &outcome;
    }
    return nullptr;
  }

  static constexpr std::size_t kCapacity = 64;
  std::size_t k_;
  std::vector<std::pair<double, RoundOutcomeProbabilities>> entries_;
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
