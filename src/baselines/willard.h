// Willard's log-logarithmic selection protocol [22] for channels with
// collision detection: binary-search the ceil(log2 n) geometric
// network-size guesses, transmitting with probability 2^-mid and using
// collision (guess too small) vs silence (guess too large) to steer.
// Solves contention resolution in O(log log n) expected rounds.
#pragma once

#include <cstddef>
#include <vector>

#include "channel/protocol.h"

namespace crp::baselines {

class WillardPolicy final : public channel::CollisionPolicy {
 public:
  /// `n` is the maximum possible network size (>= 2). `repeats` > 1
  /// re-tries each probe that many rounds before acting on feedback
  /// (collision in any repeat steers toward larger guesses), trading
  /// rounds for a lower per-step error probability as in [22].
  explicit WillardPolicy(std::size_t n, std::size_t repeats = 1);

  State initial_state() const override;
  State next_state(State state, bool collided) const override;
  double probability_at(State state) const override;
  std::string name() const override { return "willard"; }

  std::size_t num_ranges() const { return num_ranges_; }

 private:
  std::size_t num_ranges_;
  std::size_t repeats_;
  /// probabilities_[r] = 2^-r for the probed range index r in
  /// [1, num_ranges_] (index 0 unused).
  std::vector<double> probabilities_;
};

}  // namespace crp::baselines
