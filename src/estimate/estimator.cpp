#include "estimate/estimator.h"

#include <cmath>
#include <stdexcept>

#include "info/distribution.h"

namespace crp::estimate {

namespace {

struct ProbeResult {
  channel::Feedback feedback = channel::Feedback::kSilence;
  std::size_t transmitters = 0;
};

ProbeResult probe(std::size_t k, double p, channel::Rng& rng,
                  const channel::SimOptions& options) {
  const std::size_t transmitters = channel::sample_transmitters(k, p, rng);
  if (options.trace != nullptr) {
    options.trace->push_back(channel::RoundRecord{
        p, transmitters, channel::feedback_for(transmitters)});
  }
  return {channel::feedback_for(transmitters), transmitters};
}

}  // namespace

bool estimate_within(std::size_t estimate, std::size_t k,
                     std::size_t slack_ranges) {
  if (estimate < 2 || k < 2) return false;
  const auto a = static_cast<long long>(info::range_of_size(estimate));
  const auto b = static_cast<long long>(info::range_of_size(k));
  return std::llabs(a - b) <= static_cast<long long>(slack_ranges);
}

EstimateResult estimate_size_no_cd(std::size_t k, std::size_t n,
                                   channel::Rng& rng,
                                   std::size_t repeats,
                                   const channel::SimOptions& options) {
  if (k == 0) throw std::invalid_argument("need at least one participant");
  if (repeats == 0) throw std::invalid_argument("repeats must be >= 1");
  const std::size_t ranges = info::num_ranges(n);
  EstimateResult result;
  while (result.rounds < options.max_rounds) {
    for (std::size_t i = 1; i <= ranges; ++i) {
      for (std::size_t rep = 0; rep < repeats; ++rep) {
        if (result.rounds >= options.max_rounds) return result;
        const auto outcome =
            probe(k, std::exp2(-static_cast<double>(i)), rng, options);
        ++result.rounds;
        result.transmissions += outcome.transmitters;
        if (outcome.feedback == channel::Feedback::kSuccess) {
          result.estimate = std::size_t{1} << i;
          return result;
        }
      }
    }
  }
  return result;
}

EstimateResult estimate_size_cd(std::size_t k, std::size_t n,
                                channel::Rng& rng, std::size_t repeats,
                                const channel::SimOptions& options) {
  if (k == 0) throw std::invalid_argument("need at least one participant");
  if (repeats == 0) throw std::invalid_argument("repeats must be >= 1");
  const std::size_t ranges = info::num_ranges(n);
  EstimateResult result;
  while (result.rounds < options.max_rounds) {
    std::size_t lo = 1;
    std::size_t hi = ranges;
    while (lo <= hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      // Majority feedback over `repeats` probes of p = 2^-mid; a lone
      // transmission anywhere ends estimation immediately.
      std::size_t collisions = 0;
      bool lone = false;
      for (std::size_t rep = 0; rep < repeats; ++rep) {
        if (result.rounds >= options.max_rounds) return result;
        const auto outcome =
            probe(k, std::exp2(-static_cast<double>(mid)), rng, options);
        ++result.rounds;
        result.transmissions += outcome.transmitters;
        if (outcome.feedback == channel::Feedback::kSuccess) {
          lone = true;
          break;
        }
        if (outcome.feedback == channel::Feedback::kCollision) {
          ++collisions;
        }
      }
      if (lone) {
        result.estimate = std::size_t{1} << mid;
        return result;
      }
      if (2 * collisions >= repeats) {
        lo = mid + 1;  // guess too small
      } else {
        if (mid == 1) {
          // The window closed at the smallest guess: call it range 1.
          result.estimate = std::size_t{1} << 1;
          return result;
        }
        hi = mid - 1;  // guess too large
      }
      if (lo > hi) {
        // Window closed between guesses: the crossover point is the
        // estimate.
        result.estimate = std::size_t{1}
                          << std::min<std::size_t>(lo, ranges);
        return result;
      }
    }
  }
  return result;
}

}  // namespace crp::estimate
