#include "baselines/aloha.h"

#include <random>
#include <stdexcept>
#include <vector>

namespace crp::baselines {

namespace {

/// Simulates one window; returns the 0-based slot solving it (exactly
/// one transmitter), or window size if none. Appends trace records for
/// the slots actually elapsed.
std::size_t simulate_window(std::size_t k, std::size_t window,
                            channel::Rng& rng,
                            const channel::SimOptions& options,
                            std::size_t rounds_used) {
  std::uniform_int_distribution<std::size_t> pick(0, window - 1);
  std::vector<std::size_t> occupancy(window, 0);
  for (std::size_t player = 0; player < k; ++player) {
    ++occupancy[pick(rng)];
  }
  for (std::size_t slot = 0; slot < window; ++slot) {
    if (rounds_used + slot >= options.max_rounds) return window;
    if (options.trace != nullptr) {
      options.trace->push_back(channel::RoundRecord{
          1.0 / static_cast<double>(window), occupancy[slot],
          channel::feedback_for(occupancy[slot])});
    }
    if (occupancy[slot] == 1) return slot;
  }
  return window;
}

}  // namespace

channel::RunResult run_slotted_aloha(std::size_t k, std::size_t window,
                                     channel::Rng& rng,
                                     const channel::SimOptions& options) {
  if (k == 0) throw std::invalid_argument("need at least one participant");
  if (window == 0) throw std::invalid_argument("window must be >= 1");
  std::size_t rounds = 0;
  while (rounds < options.max_rounds) {
    const std::size_t slot =
        simulate_window(k, window, rng, options, rounds);
    if (slot < window) {
      return channel::RunResult{true, rounds + slot + 1, std::nullopt};
    }
    rounds += window;
  }
  return channel::RunResult{false, options.max_rounds, std::nullopt};
}

channel::RunResult run_backoff_aloha(std::size_t k,
                                     std::size_t initial_window,
                                     std::size_t max_window,
                                     channel::Rng& rng,
                                     const channel::SimOptions& options) {
  if (k == 0) throw std::invalid_argument("need at least one participant");
  if (initial_window == 0 || max_window < initial_window) {
    throw std::invalid_argument("need 1 <= initial_window <= max_window");
  }
  std::size_t rounds = 0;
  std::size_t window = initial_window;
  while (rounds < options.max_rounds) {
    const std::size_t slot =
        simulate_window(k, window, rng, options, rounds);
    if (slot < window) {
      return channel::RunResult{true, rounds + slot + 1, std::nullopt};
    }
    rounds += window;
    window = std::min(2 * window, max_window);
  }
  return channel::RunResult{false, options.max_rounds, std::nullopt};
}

}  // namespace crp::baselines
