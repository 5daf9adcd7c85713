// The decay strategy of Bar-Yehuda, Goldreich, and Itai [2]: cycle
// through the ceil(log2 n) + 1 geometrically decreasing probabilities
// 1, 1/2, 1/4, ..., 1/2^ceil(log2 n). Some sweep hits p = Theta(1/k)
// and succeeds with constant probability, giving O(log n) expected
// rounds on a channel without collision detection -- the worst-case
// optimum the paper's predictions improve on.
#pragma once

#include <cstddef>

#include "channel/protocol.h"

namespace crp::baselines {

class DecaySchedule final : public channel::ProbabilitySchedule {
 public:
  /// `n` is the maximum possible network size (>= 2).
  explicit DecaySchedule(std::size_t n);

  double probability(std::size_t round) const override;
  std::size_t period() const override { return sweep_length_; }
  std::string name() const override { return "decay"; }

  /// Rounds per sweep: ceil(log2 n) + 1.
  std::size_t sweep_length() const { return sweep_length_; }

 private:
  std::size_t sweep_length_;
};

/// Ablation variant: sweeps probabilities from small to large
/// (1/2^L, ..., 1/2, 1). Same asymptotics, different constants for
/// skewed size distributions; used by repro/baselines.cpp.
class ReverseDecaySchedule final : public channel::ProbabilitySchedule {
 public:
  explicit ReverseDecaySchedule(std::size_t n);

  double probability(std::size_t round) const override;
  std::size_t period() const override { return sweep_length_; }
  std::string name() const override { return "reverse-decay"; }

 private:
  std::size_t sweep_length_;
};

}  // namespace crp::baselines
