// Randomized advice-augmented protocols (Section 3.3).
//
// The advice (RangeGroupAdvice) names which of the 2^b contiguous
// groups of geometric ranges contains the true range ceil(log2 k):
//  * no collision detection: run decay truncated to the advised group's
//    ranges -> Theta(log n / 2^b) expected rounds (Theorem 3.6);
//  * collision detection: run Willard's binary search truncated to the
//    advised group -> Theta(log log n - b) expected rounds, O(1) once
//    b >= log log n (Theorem 3.7).
//
// Both protocols accept an optional *fallback* range set (normally all
// of L(n)). With a fallback, one sweep/search of the fallback is
// interleaved after every three passes over the advised group, so a
// faulty advisor (wrong group) degrades the expected time to the b = 0
// bound instead of destroying correctness. With correct advice the
// fallback changes the constants only.
#pragma once

#include <cstddef>
#include <vector>

#include "channel/protocol.h"

namespace crp::core {

/// Decay restricted to an advised set of ranges.
class TruncatedDecaySchedule final : public channel::ProbabilitySchedule {
 public:
  /// `ranges` are the 1-based geometric ranges of the advised group
  /// (ascending; from RangeGroupAdvice::ranges_in_group). `fallback`,
  /// if non-empty, is swept once after every three group sweeps.
  explicit TruncatedDecaySchedule(std::vector<std::size_t> ranges,
                                  std::vector<std::size_t> fallback = {});

  double probability(std::size_t round) const override;
  std::size_t period() const override { return period_; }
  std::string name() const override { return "truncated-decay"; }

  std::size_t sweep_length() const { return ranges_.size(); }

  /// The range probed in 0-based round `round` (exposed for tests).
  std::size_t range_for_round(std::size_t round) const;

 private:
  std::vector<std::size_t> ranges_;
  std::vector<std::size_t> fallback_;
  std::size_t period_;
};

/// Willard's search restricted to an advised set of ranges; restarts
/// within the group when the search window empties, interleaving a
/// search of the fallback set (if provided) every fourth attempt.
class TruncatedWillardPolicy final : public channel::CollisionPolicy {
 public:
  explicit TruncatedWillardPolicy(std::vector<std::size_t> ranges,
                                  std::vector<std::size_t> fallback = {});

  State initial_state() const override;
  State next_state(State state, bool collided) const override;
  double probability_at(State state) const override;
  std::string name() const override { return "truncated-willard"; }

 private:
  std::vector<std::size_t> ranges_;
  std::vector<std::size_t> fallback_;
  /// 2^-r for every range r of ranges_ and of fallback_, index for
  /// index.
  std::vector<double> range_probabilities_;
  std::vector<double> fallback_probabilities_;
};

}  // namespace crp::core
