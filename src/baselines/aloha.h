// Slotted-ALOHA style contention: each participant independently picks
// one slot in a window of W rounds and transmits only there; windows
// repeat until some slot holds exactly one transmitter. This is the
// classic per-player randomized strategy that is NOT a uniform
// algorithm (players act on private coins tied to identity-free slot
// choices, not on a shared probability), so it exercises the simulator
// beyond the paper's uniform class and anchors the baseline comparison
// in repro/baselines.cpp.
//
// With window W and k participants the per-window success probability
// is maximized near W ~ k; like the fixed 1/k strategy it needs a good
// size estimate to be competitive.
#pragma once

#include <cstddef>

#include "channel/rng.h"
#include "channel/simulator.h"

namespace crp::baselines {

/// Simulates slotted ALOHA with a fixed window of `window` slots.
/// Returns rounds counted in individual slots (not windows), so results
/// are comparable with the round counts of the other protocols.
channel::RunResult run_slotted_aloha(std::size_t k, std::size_t window,
                                     channel::Rng& rng,
                                     const channel::SimOptions& options = {});

/// Binary-exponential-backoff ALOHA: the window starts at
/// `initial_window` and doubles after every unsuccessful window (capped
/// at `max_window`), the textbook strategy deployed when no size
/// estimate is available.
channel::RunResult run_backoff_aloha(std::size_t k,
                                     std::size_t initial_window,
                                     std::size_t max_window,
                                     channel::Rng& rng,
                                     const channel::SimOptions& options = {});

}  // namespace crp::baselines
