// Exact adversarial analysis of deterministic advice protocols.
//
// The Section 3 bounds are worst-case over the adversary's choice of
// participant set P. `worst_case_deterministic_rounds` (measure.h)
// approximates that maximum by sampling; this module computes it
// EXACTLY by enumerating every k-subset of [n] — exponential, so meant
// for the small-(n, k) regimes where it both validates the sampler and
// pins the Table 2 constants to the round.
#pragma once

#include <cstddef>
#include <vector>

#include "channel/protocol.h"
#include "core/advice.h"

namespace crp::harness {

struct ExactWorstCase {
  /// Maximum rounds over all participant sets of the given size.
  std::size_t rounds = 0;
  /// A witness set achieving the maximum.
  std::vector<std::size_t> witness;
  /// Number of participant sets enumerated.
  std::size_t sets_checked = 0;
  /// True iff every enumerated set was solved within the budget.
  bool all_solved = true;
};

/// Enumerates every k-subset of {0..n-1} and runs the protocol with the
/// advice function on each. Cost is C(n, k) full executions — keep
/// C(n, k) under ~10^6. The enumeration is embarrassingly parallel:
/// workers steal fixed blocks of combination ranks (the same block
/// scheduler as the Monte-Carlo harness), unrank the block's first set
/// via the combinatorial number system, and advance lexicographically
/// from there; the fold visits blocks in rank order, so the result —
/// witness included — is identical to the serial scan at any thread
/// count (`threads`: 0 = all hardware threads, 1 = serial).
ExactWorstCase exact_worst_case(const channel::DeterministicProtocol& protocol,
                                const core::AdviceFunction& advice,
                                std::size_t n, std::size_t k,
                                bool collision_detection,
                                std::size_t max_rounds = 1 << 16,
                                std::size_t threads = 0);

}  // namespace crp::harness
