// The paper's footnote-4 prelude: every bound assumes k >= 2 "without
// loss of generality [as] all algorithms can eliminate the n = 1
// possibility in an additional early round in which all players
// transmit with probability 1". These adapters make that WLOG step
// executable: they prepend the all-transmit probe to any schedule or
// collision policy, so the composed algorithm is correct for every
// k >= 1.
#pragma once

#include <memory>

#include "channel/protocol.h"

namespace crp::core {

/// Wraps a no-CD schedule with a round-0 all-transmit probe. If k = 1
/// the probe solves the problem immediately; otherwise it collides
/// (invisibly, without collision detection) and the wrapped schedule
/// proceeds shifted by one round.
class WithAllTransmitPrelude final : public channel::ProbabilitySchedule {
 public:
  explicit WithAllTransmitPrelude(
      std::shared_ptr<const channel::ProbabilitySchedule> inner);

  double probability(std::size_t round) const override;
  std::string name() const override;

 private:
  std::shared_ptr<const channel::ProbabilitySchedule> inner_;
};

/// CD version: the probe's feedback (success / collision) is consumed;
/// the wrapped policy never sees the probe's collision bit, so it
/// behaves exactly as if it had started at round 1. State 0 is the
/// probe round; every later state is the inner policy's state plus one
/// (the started flag).
class WithAllTransmitPreludeCd final : public channel::CollisionPolicy {
 public:
  explicit WithAllTransmitPreludeCd(
      std::shared_ptr<const channel::CollisionPolicy> inner);

  State initial_state() const override { return 0; }
  State next_state(State state, bool collided) const override;
  double probability_at(State state) const override;
  std::string name() const override;

 private:
  std::shared_ptr<const channel::CollisionPolicy> inner_;
};

}  // namespace crp::core
