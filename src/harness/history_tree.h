// Shared history-tree expansion for collision-detection policies.
//
// A uniform CD execution is a Markov chain over collision histories:
// after history h the policy transmits with p = policy.probability(h),
// and the round ends in success (terminating), silence (append 0), or
// collision (append 1) with the exact trichotomy probabilities of
// round_outcome_probabilities(k, p). Expanding that chain depth-first
// down to a horizon yields the exact distribution of the solving
// round — the enumeration harness/exact.h's exact_profile_cd has
// always performed, refactored here so exact profiling and the
// sampling engine (channel/history_engine.h) share one expansion.
//
// The expansion partitions probability mass exactly: per-round solve
// mass, plus the *leaves* — every branch dropped by prune_below and
// every branch still alive at the horizon — each with its reach mass
// and its packed history. A sampler answers solve mass by inverse CDF
// and continues a leaf by exact per-round simulation from its history,
// so the pruning threshold trades expansion size against continuation
// work but never moves the sampled distribution.
//
// Ownership: expand_history_tree returns a self-contained value; the
// policy is only dereferenced during the call and need not outlive the
// returned tree.
//
// Thread-safety: expansion may fan out over subtrees rooted at a fixed
// split depth (HistoryTreeOptions::threads), with per-shard solve
// masses and leaves merged in deterministic shard order. The returned
// HistoryTree is immutable and safe to share across threads.
//
// Determinism: the expansion (per-round solve masses, the leaf arrays
// and the pruned/frontier accounting) is a pure function of (policy,
// k, options.horizon, options.prune_below, options.split_depth,
// options.max_nodes) — bit-identical at every thread count, because the
// shard partition and the merge order never depend on scheduling
// (tests/harness_exact_test.cpp pins serial == parallel).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "channel/protocol.h"

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

/// Expansion knobs.
struct HistoryTreeOptions {
  /// Expansion depth: rounds [0, horizon) are enumerated; branches
  /// still alive at `horizon` contribute to frontier_mass.
  std::size_t horizon = 48;
  /// Branches whose reach probability drops below this are dropped and
  /// their mass accounted in pruned_mass (solve_at stays a valid lower
  /// bound, solve + pruned + frontier an exact partition of 1).
  double prune_below = 1e-12;
  /// Worker threads for the subtree fan-out (0 = all hardware threads,
  /// <= 1 = inline). The result is identical for every value.
  std::size_t threads = 1;
  /// Depth at which the expansion splits into independent subtree
  /// shards. Purely a parallelism granule: the output is the same for
  /// every value (the serial path runs the identical shard structure).
  std::size_t split_depth = 8;
  /// Hard cap on expanded frames across the whole expansion (all
  /// shards share one budget). When hit, the tree is returned with
  /// `truncated == true` and must not be sampled from; callers fall
  /// back to per-round simulation. Guards policies whose trees grow as
  /// 2^horizon faster than pruning can cut them — the expanded node
  /// count is on the order of (surviving mass) / prune_below when the
  /// tree branches freely, which dwarfs any usable cache.
  std::size_t max_nodes = 1 << 21;
  /// When false, only the masses (solve_at, pruned, frontier) are
  /// computed and the leaf arrays stay empty — what exact_profile_cd
  /// needs. When true, horizon must be at most kMaxPackedDepth
  /// (std::invalid_argument otherwise).
  bool record_leaves = true;
};

/// One unresolved branch: pruned, or alive at the horizon.
struct HistoryLeaf {
  double reach = 0.0;         ///< Pr(an execution follows this history)
  PackedHistory history = 1;  ///< the branch's collision history
};

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
  /// Prefix sums of solve_at: solve_cdf[r] = Pr(solved within r + 1
  /// rounds); size horizon. The inverse-CDF sampling table.
  std::vector<double> solve_cdf;
  /// solve_cdf prepared for the lane upper-bound probe
  /// (channel/kernels): a 0.0 sentinel at [0], solve_cdf at
  /// [1..horizon], then +inf padding up to a power of two.
  std::vector<double> padded_solve_cdf;

  /// Every pruned and frontier branch, in the expansion's shard order
  /// (empty when the expansion ran with record_leaves == false).
  std::vector<HistoryLeaf> leaves;
  /// Prefix sums of leaves[i].reach: the table a sampler searches with
  /// u - solved_mass() to pick the leaf it continues from.
  std::vector<double> leaf_cdf;

  /// Mass dropped by prune_below (fate unknown within the horizon).
  double pruned_mass = 0.0;
  /// Mass still alive at exactly `horizon` rounds (unsolved so far).
  double frontier_mass = 0.0;
  /// True when max_nodes stopped the expansion; masses and leaves are
  /// then incomplete and the tree must not be used.
  bool truncated = false;

  /// Total mass resolved as solved within the horizon.
  double solved_mass() const {
    return solve_cdf.empty() ? 0.0 : solve_cdf.back();
  }
};

/// Expands the history tree of `policy` with k participants. See the
/// file comment for the determinism contract.
HistoryTree expand_history_tree(const channel::CollisionPolicy& policy,
                                std::size_t k,
                                const HistoryTreeOptions& options = {});

}  // namespace crp::harness
