#include "harness/history_tree.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

#include "harness/exact.h"
#include "harness/parallel.h"

namespace crp::harness {

PackedHistory pack_history(const channel::BitString& history) {
  if (history.size() > kMaxPackedDepth) {
    throw std::invalid_argument("history longer than kMaxPackedDepth rounds");
  }
  PackedHistory packed = PackedHistory{1} << history.size();
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (history[i]) packed |= PackedHistory{1} << i;
  }
  return packed;
}

void unpack_history(PackedHistory packed, channel::BitString& out) {
  // Zero-fill, then set only the collision bits: element-wise
  // vector<bool> stores cost several times more.
  const std::size_t depth = std::bit_width(packed) - 1;
  out.assign(depth, false);
  for (PackedHistory bits = packed ^ (PackedHistory{1} << depth); bits != 0;
       bits &= bits - 1) {
    out[static_cast<std::size_t>(std::countr_zero(bits))] = true;
  }
}

namespace {

/// A pending history on the depth-first stack: its parent's history —
/// always a prefix of the expansion's shared path, because a node's
/// descendants only rewrite rounds at or past its own depth — plus the
/// feedback of round depth - 1.
struct Frame {
  double reach = 0.0;
  std::size_t depth = 0;
  bool collided = false;
};

/// A subtree root captured at the split depth, with its full history.
struct Root {
  channel::BitString history;
  double reach = 0.0;
};

/// Accumulators of one expansion unit (the pre-split prefix or one
/// subtree shard). solve_at is indexed by absolute round, so shards
/// merge by plain element-wise addition.
struct Shard {
  std::vector<HistoryLeaf> leaves;
  std::vector<double> solve_at;
  double pruned = 0.0;
  double frontier = 0.0;
  bool truncated = false;
};

/// Depth-first expansion of the subtree at `root` down to `cap`
/// rounds, keeping one shared path instead of a history per frame.
/// Frames alive at `cap` are captured into `roots_out` when provided
/// (the pre-split phase) and otherwise become frontier leaves (cap ==
/// horizon). The prune check runs at pop time — exactly the order the
/// historical exact_profile_cd enumeration used — so a frame at the cap
/// counts as frontier even when its reach is below the prune
/// threshold.
///
/// `budget` is the frame budget *shared by every shard of one
/// expansion*: whether the whole expansion needs more than max_nodes
/// frames is a deterministic property of (policy, k, options), so the
/// resulting `truncated` flag is scheduling-independent even though
/// which shard trips the budget first is not — a truncated tree's
/// partial contents are never consumed.
void expand_frames(const channel::CollisionPolicy& policy, std::size_t k,
                   const Root& root, std::size_t cap,
                   const HistoryTreeOptions& options,
                   std::atomic<std::size_t>& budget, Shard& shard,
                   std::vector<Root>* roots_out) {
  OutcomeCache outcomes(k);
  channel::BitString path = root.history;
  path.reserve(cap);
  const std::size_t base = path.size();
  // With leaves recorded, `bits` mirrors path's rounds as a word
  // (horizon <= kMaxPackedDepth), so a leaf packs in O(1).
  PackedHistory bits =
      options.record_leaves ? pack_history(path) ^ (PackedHistory{1} << base)
                            : 0;
  const auto leaf = [&](double reach, double& mass) {
    mass += reach;
    if (options.record_leaves) {
      shard.leaves.push_back({reach, bits | PackedHistory{1} << path.size()});
    }
  };
  std::vector<Frame> stack{{root.reach, base, false}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const std::size_t depth = frame.depth;
    if (depth > base) {
      path.resize(depth - 1);  // never grows: path holds the parent
      path.push_back(frame.collided);
      if (options.record_leaves) {
        const PackedHistory last = PackedHistory{1} << (depth - 1);
        bits = (bits & (last - 1)) | (frame.collided ? last : 0);
      }
    }
    if (depth >= cap) {
      if (roots_out != nullptr) {
        roots_out->push_back({path, frame.reach});
      } else {
        leaf(frame.reach, shard.frontier);
      }
      continue;
    }
    if (frame.reach < options.prune_below) {
      leaf(frame.reach, shard.pruned);
      continue;
    }
    if (budget.fetch_add(1, std::memory_order_relaxed) >=
        options.max_nodes) {
      shard.truncated = true;
      return;
    }

    const auto outcome = outcomes(policy.probability(path));
    shard.solve_at[depth] += frame.reach * outcome.success;
    if (outcome.silence > 0.0) {
      stack.push_back({frame.reach * outcome.silence, depth + 1, false});
    }
    if (outcome.collision > 0.0) {
      stack.push_back({frame.reach * outcome.collision, depth + 1, true});
    }
  }
}

}  // namespace

HistoryTree expand_history_tree(const channel::CollisionPolicy& policy,
                                std::size_t k,
                                const HistoryTreeOptions& options) {
  if (options.record_leaves && options.horizon > kMaxPackedDepth) {
    throw std::invalid_argument(
        "expand_history_tree: leaf histories deeper than kMaxPackedDepth "
        "rounds cannot be recorded");
  }
  HistoryTree tree;
  tree.k = k;
  tree.horizon = options.horizon;
  tree.prune_below = options.prune_below;

  // Phase 1: expand the prefix down to the split depth (or the whole
  // horizon when it is at most the split depth), capturing the frames
  // alive at the split as subtree roots.
  const bool split = options.split_depth < options.horizon;
  const std::size_t cap = split ? options.split_depth : options.horizon;
  std::atomic<std::size_t> budget{0};
  Shard prefix;
  prefix.solve_at.assign(options.horizon, 0.0);
  std::vector<Root> roots;
  expand_frames(policy, k, Root{{}, 1.0}, cap, options, budget, prefix,
                split ? &roots : nullptr);
  tree.leaves = std::move(prefix.leaves);
  tree.solve_at = std::move(prefix.solve_at);
  tree.pruned_mass = prefix.pruned;
  tree.frontier_mass = prefix.frontier;
  tree.truncated = prefix.truncated;

  // Phase 2: expand every captured subtree independently. Each shard
  // owns its accumulators, so workers never share mutable state; the
  // shard partition (one subtree per block) is fixed, making the fan-
  // out invisible to the result.
  std::vector<Shard> shards(roots.size());
  parallel_blocks(
      roots.size(), options.threads,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          shards[i].solve_at.assign(options.horizon, 0.0);
          expand_frames(policy, k, roots[i], options.horizon, options, budget,
                        shards[i], nullptr);
        }
      },
      /*block_size=*/1);

  // Phase 3: merge in subtree order — appended leaves, element-wise
  // sums for the masses. The order is a function of the phase-1
  // capture order only, so the merged tree is identical at every
  // thread count.
  for (Shard& shard : shards) {
    tree.leaves.insert(tree.leaves.end(), shard.leaves.begin(),
                       shard.leaves.end());
    for (std::size_t r = 0; r < options.horizon; ++r) {
      tree.solve_at[r] += shard.solve_at[r];
    }
    tree.pruned_mass += shard.pruned;
    tree.frontier_mass += shard.frontier;
    tree.truncated = tree.truncated || shard.truncated;
  }

  tree.solve_cdf.resize(options.horizon);
  double cumulative = 0.0;
  for (std::size_t r = 0; r < options.horizon; ++r) {
    cumulative += tree.solve_at[r];
    tree.solve_cdf[r] = cumulative;
  }
  tree.padded_solve_cdf.assign(std::bit_ceil(options.horizon + 1),
                               std::numeric_limits<double>::infinity());
  tree.padded_solve_cdf[0] = 0.0;  // sentinel <= every u in [0, 1)
  std::copy(tree.solve_cdf.begin(), tree.solve_cdf.end(),
            tree.padded_solve_cdf.begin() + 1);

  tree.leaf_cdf.resize(tree.leaves.size());
  cumulative = 0.0;
  for (std::size_t i = 0; i < tree.leaves.size(); ++i) {
    cumulative += tree.leaves[i].reach;
    tree.leaf_cdf[i] = cumulative;
  }
  return tree;
}

}  // namespace crp::harness
