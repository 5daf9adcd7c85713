#include "harness/exact.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "harness/history_tree.h"

namespace crp::harness {

double success_probability(std::size_t k, double p) {
  if (!(p >= 0.0 && p <= 1.0)) {  // NaN fails both tests
    throw std::invalid_argument("probability outside [0, 1]");
  }
  if (k == 0 || p == 0.0) return 0.0;
  if (p == 1.0) return k == 1 ? 1.0 : 0.0;
  // k p (1-p)^{k-1}, computed in log space for large k.
  const double log_value = std::log(static_cast<double>(k)) + std::log(p) +
                           static_cast<double>(k - 1) * std::log1p(-p);
  return std::exp(log_value);
}

RoundOutcomeProbabilities round_outcome_probabilities(std::size_t k,
                                                      double p) {
  if (!(p >= 0.0 && p <= 1.0)) {  // NaN fails both tests
    throw std::invalid_argument("probability outside [0, 1]");
  }
  RoundOutcomeProbabilities out;
  if (k == 0 || p == 0.0) {
    out.silence = 1.0;
    return out;
  }
  out.silence =
      p == 1.0 ? 0.0
               : std::exp(static_cast<double>(k) * std::log1p(-p));
  out.success = success_probability(k, p);
  out.collision = std::max(0.0, 1.0 - out.silence - out.success);
  return out;
}

ExactProfile exact_profile_no_cd(const channel::ProbabilitySchedule& schedule,
                                 std::size_t k, std::size_t horizon) {
  ExactProfile profile;
  profile.solve_by.assign(horizon + 1, 0.0);
  double alive = 1.0;       // Pr(not solved before round r)
  double expectation = 0.0;
  for (std::size_t r = 0; r < horizon; ++r) {
    const double s = success_probability(k, schedule.probability(r));
    const double solve_here = alive * s;
    expectation += solve_here * static_cast<double>(r + 1);
    alive *= (1.0 - s);
    profile.solve_by[r + 1] = 1.0 - alive;
  }
  profile.tail_mass = alive;
  profile.truncated_expectation =
      expectation + alive * static_cast<double>(horizon + 1);
  return profile;
}

double exact_expected_rounds_no_cd(
    const channel::ProbabilitySchedule& schedule, std::size_t k,
    double tail_bound, std::size_t max_horizon) {
  double alive = 1.0;
  double expectation = 0.0;
  for (std::size_t r = 0; r < max_horizon; ++r) {
    const double s = success_probability(k, schedule.probability(r));
    expectation += alive * s * static_cast<double>(r + 1);
    alive *= (1.0 - s);
    if (alive < tail_bound) return expectation / (1.0 - alive);
  }
  throw std::runtime_error(
      "tail mass did not fall below the bound within max_horizon; "
      "the schedule may be unable to solve this participant count");
}

ExactProfile exact_profile_cd(const channel::CollisionPolicy& policy,
                              std::size_t k, std::size_t horizon,
                              double prune_below) {
  // The enumeration itself lives in harness/history_tree.h (shared
  // with the sampling engine); a profile only needs the per-round
  // masses, so leaf recording is skipped and no node cap applies.
  HistoryTreeOptions options;
  options.horizon = horizon;
  options.prune_below = prune_below;
  options.record_leaves = false;
  options.max_nodes = ~std::size_t{0};
  const HistoryTree tree = expand_history_tree(policy, k, options);

  ExactProfile profile;
  profile.solve_by.assign(horizon + 1, 0.0);
  double expectation = 0.0;
  for (std::size_t r = 0; r < horizon; ++r) {
    expectation += tree.solve_at[r] * static_cast<double>(r + 1);
    profile.solve_by[r + 1] = tree.solve_cdf()[r];
  }
  // Pruned and frontier mass both land in the tail by construction.
  profile.tail_mass = std::max(0.0, 1.0 - tree.solved_mass());
  profile.truncated_expectation =
      expectation + profile.tail_mass * static_cast<double>(horizon + 1);
  return profile;
}

}  // namespace crp::harness
