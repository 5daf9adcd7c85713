#include "baselines/simple.h"

#include <stdexcept>

#include "channel/unit_interval.h"

namespace crp::baselines {

FixedProbabilitySchedule::FixedProbabilitySchedule(double probability)
    : p_(probability) {
  if (!channel::in_unit_interval(p_)) {
    throw std::invalid_argument("probability outside [0, 1]");
  }
}

FixedProbabilitySchedule FixedProbabilitySchedule::for_size_estimate(
    std::size_t k_hat) {
  if (k_hat == 0) throw std::invalid_argument("size estimate must be >= 1");
  return FixedProbabilitySchedule(1.0 / static_cast<double>(k_hat));
}

double FixedProbabilitySchedule::probability(std::size_t /*round*/) const {
  return p_;
}

RoundRobinProtocol::RoundRobinProtocol(std::size_t n) : n_(n) {
  if (n_ == 0) throw std::invalid_argument("network size must be >= 1");
}

bool RoundRobinProtocol::transmits(
    std::size_t player_id, const channel::BitString& /*advice*/,
    std::size_t round,
    std::span<const channel::Feedback> /*history*/) const {
  return player_id == round % n_;
}

TreeDescentProtocol::TreeDescentProtocol(std::size_t n) : n_(n) {
  if (n_ == 0) throw std::invalid_argument("network size must be >= 1");
}

bool TreeDescentProtocol::transmits(
    std::size_t player_id, const channel::BitString& /*advice*/,
    std::size_t /*round*/,
    std::span<const channel::Feedback> history) const {
  // Replay the interval state from the collision/silence history. The
  // candidate interval [lo, hi) always contains at least one active
  // player: a collision proves >= 2 actives in the probed left half,
  // and silence proves all actives sit in the right half.
  std::size_t lo = 0;
  std::size_t hi = n_;
  for (channel::Feedback feedback : history) {
    if (hi - lo == 1) {
      // A size-1 probe can only miss if the invariant was broken by a
      // malformed history; restart defensively.
      lo = 0;
      hi = n_;
      continue;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    if (feedback == channel::Feedback::kCollision) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  if (hi - lo == 1) return player_id == lo;
  const std::size_t mid = lo + (hi - lo) / 2;
  return player_id >= lo && player_id < mid;
}

}  // namespace crp::baselines
