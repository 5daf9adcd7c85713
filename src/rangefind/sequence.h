// The sequence form of the range finding game (Section 2.3) and the
// RF-Construction transform (Algorithm 1) that turns a uniform
// no-collision-detection contention-resolution algorithm into a range
// finding sequence. This is the machinery behind the Theorem 2.4 lower
// bound; the library implements it so the bound's moving parts can be
// validated empirically (tests) and measured (repro/coding.cpp).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "channel/protocol.h"
#include "info/distribution.h"

namespace crp::rangefind {

/// A range finding strategy: a sequence of guesses from L(n). The
/// (n, f(n))-range finding problem for target v is solved at the first
/// 1-based position t with |S[t] - v| <= f(n).
class RangeFindingSequence {
 public:
  /// `guesses` are 1-based range values.
  explicit RangeFindingSequence(std::vector<std::size_t> guesses);

  std::size_t size() const { return guesses_.size(); }
  const std::vector<std::size_t>& guesses() const { return guesses_; }

  /// First 1-based step solving the game for `target` within `radius`,
  /// or nullopt if the sequence never gets close enough.
  std::optional<std::size_t> solve(std::size_t target,
                                   double radius) const;

  /// Expected solving step when targets are drawn from `targets`
  /// (a condensed distribution over L(n)). Targets the sequence never
  /// solves contribute `penalty` steps (defaults to |S| + 1).
  double expected_time(const info::CondensedDistribution& targets,
                       double radius,
                       std::optional<double> penalty = std::nullopt) const;

  /// True iff every range in [1, num_ranges] is solvable within radius.
  bool covers(std::size_t num_ranges, double radius) const;

 private:
  std::vector<std::size_t> guesses_;
};

/// Algorithm 1 (RF-Construction): interleaves (a) the range guess
/// ceil(log2(1 / p_i)) implied by each probability of the uniform
/// algorithm `schedule` with (b) a rotating sweep of every range in
/// L(n), so each range also appears within any window of 2 |L(n)|
/// steps. Guesses are clamped to [1, |L(n)|]. `rounds` is the prefix of
/// the schedule to transform (the paper's z).
///
/// Note: the arXiv pseudocode's interleaved value prints as "2 j"; from
/// the surrounding proof (Case 2 of Lemma 2.7 requires every range to
/// appear among the first 2 log n entries) it is the rotating range
/// value j itself, which is what we implement.
RangeFindingSequence rf_construction(
    const channel::ProbabilitySchedule& schedule, std::size_t rounds,
    std::size_t n);

}  // namespace crp::rangefind
