// Shared history-tree expansion for collision-detection policies.
//
// A uniform CD execution is a Markov chain over collision histories:
// a round that starts in policy state s transmits with
// p = policy.probability_at(s), and ends in success (terminating),
// silence (state next_state(s, false)), or collision (next_state(s,
// true)) with the exact trichotomy probabilities of
// round_outcome_probabilities(k, p). Expanding that chain depth-first
// down to a horizon yields the exact distribution of the solving
// round — the enumeration harness/exact.h's exact_profile_cd has
// always performed, refactored here so exact profiling and the
// sampling engine (channel/history_engine.h) share one expansion.
// Every frame carries its policy state, so each expanded node costs
// one probability_at and a next_state per child, never a replay of
// its history.
//
// The expansion partitions probability mass exactly: per-round solve
// mass, plus the *leaves* — every branch dropped by prune_below and
// every branch still alive at the horizon — each with its packed
// history and the policy state that history folds to, its reach mass
// summed into a leaf CDF. A sampler answers solve mass by inverse CDF
// and continues a leaf by exact per-round simulation from the leaf's
// state, so the pruning threshold trades expansion size against
// continuation work but never moves the sampled distribution.
//
// Ownership: expand_history_tree returns a self-contained value; the
// policy is only dereferenced during the call and need not outlive the
// returned tree.
//
// Thread-safety: expansion runs on the calling thread; concurrent
// calls share nothing. The returned HistoryTree is immutable and safe
// to share across threads.
//
// Determinism: the expansion (per-round solve masses, the leaf arrays
// and the pruned/frontier accounting) is a pure function of (policy,
// k, options.horizon, options.prune_below, options.max_nodes). It
// runs in two phases split at kHistorySplitDepth, and that split fixes
// the leaf order and the order in which per-round masses are summed,
// so it is part of the output format (see kHistorySplitDepth).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "channel/protocol.h"
#include "harness/exact.h"

namespace crp::harness {

/// A collision history packed into one word: bit i holds round i's
/// feedback (1 = collision) and a sentinel 1 bit sits just above the
/// last round, so the depth is bit_width(word) - 1. Histories of up to
/// kMaxPackedDepth rounds fit.
using PackedHistory = std::uint64_t;
inline constexpr std::size_t kMaxPackedDepth = 63;

/// Packs `history` (at most kMaxPackedDepth rounds; throws
/// std::invalid_argument otherwise — a history is never truncated).
PackedHistory pack_history(const channel::BitString& history);
/// Replaces `out` with the history `packed` encodes.
void unpack_history(PackedHistory packed, channel::BitString& out);
/// Number of rounds `packed` encodes.
std::size_t packed_depth(PackedHistory packed);

/// Depth at which an expansion splits into subtrees: the prefix down
/// to this depth is expanded first, then each subtree alive there in
/// capture order, and the per-round masses are summed prefix first,
/// then subtree by subtree. The split therefore fixes the leaf order
/// and the floating-point summation order of solve_at. It is a format
/// decision, not a speed setting: the tree CSV goldens and the
/// resumable-journal pins depend on it, so it never changes.
inline constexpr std::size_t kHistorySplitDepth = 8;

/// Expansion knobs.
struct HistoryTreeOptions {
  /// Expansion depth: rounds [0, horizon) are enumerated; branches
  /// still alive at `horizon` contribute to frontier_mass.
  std::size_t horizon = 48;
  /// Branches whose reach probability drops below this are dropped and
  /// their mass accounted in pruned_mass (solve_at stays a valid lower
  /// bound, solve + pruned + frontier an exact partition of 1).
  double prune_below = 1e-12;
  /// Hard cap on expanded frames across the whole expansion (the
  /// prefix and every subtree share one budget). When hit, the tree is
  /// returned with `truncated == true` and must not be sampled from;
  /// callers fall back to per-round simulation. Guards policies whose
  /// trees grow as 2^horizon faster than pruning can cut them — the
  /// expanded node count is on the order of (surviving mass) /
  /// prune_below when the tree branches freely, which dwarfs any
  /// usable cache.
  std::size_t max_nodes = 1 << 21;
  /// When false, only the masses (solve_at, pruned, frontier) are
  /// computed and the leaf arrays stay empty — what exact_profile_cd
  /// needs. When true, horizon must be at most kMaxPackedDepth
  /// (std::invalid_argument otherwise).
  bool record_leaves = true;
};

/// One unresolved branch: pruned, or alive at the horizon. Its reach
/// mass lives only in HistoryTree::leaf_cdf, so a leaf stays 16 bytes.
struct HistoryLeaf {
  /// The policy state the branch's next round starts in: the state
  /// `history` folds to from initial_state(), one next_state step per
  /// round, as the expansion held it when it recorded the leaf.
  channel::CollisionPolicy::State state = 0;
  PackedHistory history = 1;  ///< the branch's collision history
};
static_assert(sizeof(HistoryLeaf) == 16);

/// The cached expansion of one (policy, k) pair down to a horizon.
struct HistoryTree {
  std::size_t k = 0;
  std::size_t horizon = 0;
  double prune_below = 0.0;

  /// Always empty: an expansion stores no nodes, only masses and
  /// leaves. Kept so callers that report nodes.size() (perfbench's
  /// layer replay) still compile.
  std::vector<std::uint8_t> nodes;

  /// solve_at[r] = Pr(execution succeeds in 1-based round r + 1),
  /// summed over every expanded branch; size horizon.
  std::vector<double> solve_at;
  /// The inverse-CDF sampling table, prepared for the lane upper-bound
  /// probe (channel/kernels): a 0.0 sentinel at [0], the prefix sums
  /// of solve_at at [1..horizon] (see solve_cdf()), then +inf padding
  /// up to a power of two.
  std::vector<double> padded_solve_cdf;

  /// Every pruned and frontier branch, in the expansion's order: the
  /// prefix's, then each subtree's in capture order (empty when the
  /// expansion ran with record_leaves == false).
  std::vector<HistoryLeaf> leaves;
  /// leaf_cdf[i] = the reach masses (Pr(an execution follows the
  /// leaf's history)) of leaves[0..i], summed in leaf order as the
  /// expansion records them: the table leaf_for() searches.
  std::vector<double> leaf_cdf;

  /// The outcome trichotomy of every distinct transmit probability the
  /// expansion met (up to the cache's capacity), each computed once per
  /// tree. Immutable once returned: a sampler continuing a leaf reads
  /// it with lookup(), which computes a probability it lacks directly.
  OutcomeCache outcomes{0};

  /// Mass dropped by prune_below (fate unknown within the horizon).
  double pruned_mass = 0.0;
  /// Mass still alive at exactly `horizon` rounds (unsolved so far).
  double frontier_mass = 0.0;
  /// True when max_nodes stopped the expansion; masses and leaves are
  /// then incomplete and the tree must not be used.
  bool truncated = false;

  /// Prefix sums of solve_at: solve_cdf()[r] = Pr(solved within r + 1
  /// rounds); size horizon. A view into padded_solve_cdf.
  std::span<const double> solve_cdf() const {
    return {padded_solve_cdf.data() + 1, horizon};
  }

  /// Total mass resolved as solved within the horizon.
  double solved_mass() const {
    return horizon == 0 ? 0.0 : padded_solve_cdf[horizon];
  }

  /// The leaf a sampler continues from when its draw lies `mass` past
  /// solved_mass(): the first leaf whose cumulative mass exceeds
  /// `mass`, exactly what std::upper_bound over leaf_cdf returns. Solved
  /// plus leaf mass is 1 only up to rounding, so a draw past the last
  /// leaf's cumulative mass lands on the last leaf. Requires a leaf.
  const HistoryLeaf& leaf_for(double mass) const {
    // Branch-free upper bound over leaf_cdf[0, size - 1): each step
    // halves the range with a conditional move, so the loop runs a
    // size-determined count of steps whatever `mass` is. Both entries
    // the next step may read are prefetched, since a cold table is
    // what a leaf search mostly meets.
    const double* base = leaf_cdf.data();
    std::size_t n = leaf_cdf.size() - 1;
    if (n == 0) return leaves[0];
    while (n > 1) {
      const std::size_t half = n / 2;
      __builtin_prefetch(base + half / 2);
      __builtin_prefetch(base + half + half / 2);
      base = mass < base[half] ? base : base + half;
      n -= half;
    }
    const auto index = static_cast<std::size_t>(base - leaf_cdf.data()) +
                       (mass < *base ? 0 : 1);
    return leaves[index];
  }
};

/// Expands the history tree of `policy` with k participants. See the
/// file comment for the determinism contract.
HistoryTree expand_history_tree(const channel::CollisionPolicy& policy,
                                std::size_t k,
                                const HistoryTreeOptions& options = {});

}  // namespace crp::harness
