// Network-size estimation over the shared channel.
//
// Section 1.1: "many of the standard optimal worst-case algorithms
// operate by efficiently trying to find a good estimate of this size"
// — decay cycles geometric guesses, Willard binary-searches them. This
// module makes that substrate explicit: protocols that *return an
// estimate* k-hat with k-hat = Theta(k), which can then seed the O(1)
// fixed-probability transmitter or be folded into a prediction
// distribution for the Section 2 algorithms.
#pragma once

#include <cstddef>
#include <optional>

#include "channel/protocol.h"
#include "channel/rng.h"
#include "channel/simulator.h"

namespace crp::estimate {

struct EstimateResult {
  /// The produced size estimate (a power of two); nullopt if the round
  /// budget expired first.
  std::optional<std::size_t> estimate;
  /// Channel rounds consumed.
  std::size_t rounds = 0;
  /// Total transmissions (energy proxy).
  std::size_t transmissions = 0;
};

/// No-collision-detection estimator: sweep probes p = 2^-i, repeating
/// each probe `repeats` times, and report the first guess that draws a
/// lone transmission. A lone success at p ~ 1/k is the most likely
/// outcome, giving k-hat = Theta(k) with constant probability per
/// sweep; sweeps repeat until success. O(log n) expected rounds.
EstimateResult estimate_size_no_cd(std::size_t k, std::size_t n,
                                   channel::Rng& rng,
                                   std::size_t repeats = 1,
                                   const channel::SimOptions& options = {});

/// Collision-detection estimator: Willard-style binary search over the
/// geometric guesses; a collision means the guess is too small, silence
/// too large, and the search returns the bracketing guess when the
/// window closes (or immediately on a lone transmission). Each probe is
/// repeated `repeats` times with majority feedback. O(log log n)
/// expected rounds.
EstimateResult estimate_size_cd(std::size_t k, std::size_t n,
                                channel::Rng& rng,
                                std::size_t repeats = 1,
                                const channel::SimOptions& options = {});

/// Quality check helper: true iff the estimate is within a factor
/// 2^slack_ranges of the true size (estimates are range-aligned, so
/// slack is measured in geometric ranges).
bool estimate_within(std::size_t estimate, std::size_t k,
                     std::size_t slack_ranges);

}  // namespace crp::estimate
