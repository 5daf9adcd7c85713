#include "harness/history_tree.h"

#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

#include "harness/exact.h"

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
  const std::size_t depth = packed_depth(packed);
  out.assign(depth, false);
  for (PackedHistory bits = packed ^ (PackedHistory{1} << depth); bits != 0;
       bits &= bits - 1) {
    out[static_cast<std::size_t>(std::countr_zero(bits))] = true;
  }
}

std::size_t packed_depth(PackedHistory packed) {
  return static_cast<std::size_t>(std::bit_width(packed)) - 1;
}

namespace {

/// A pending history on the depth-first stack, or a subtree root
/// captured at the split depth: its reach mass, the policy state its
/// next round starts in, and — when leaves are recorded — its rounds
/// packed into a word without the sentinel bit.
struct Frame {
  double reach = 0.0;
  channel::CollisionPolicy::State state = 0;
  PackedHistory bits = 0;
  std::size_t depth = 0;
};

/// Mass accumulators of one expansion unit (the pre-split prefix or
/// one subtree). solve_at is indexed by absolute round, so subtrees
/// merge by plain element-wise addition.
struct Shard {
  std::vector<double> solve_at;
  double pruned = 0.0;
  double frontier = 0.0;
  bool truncated = false;
};

/// Depth-first expansion of the subtree at `root` down to `cap`
/// rounds. A child's state is one next_state step from its parent's,
/// so no history is ever replayed. Frames alive at `cap` are captured
/// into `roots_out` when provided (the pre-split phase) and otherwise
/// become frontier leaves (cap == horizon). The prune check runs when
/// a frame is taken, not when it is made — exactly the order the
/// historical exact_profile_cd enumeration used — so a frame at the
/// cap counts as frontier even when its reach is below the prune
/// threshold.
///
/// A frame's collision child is the next frame taken either way (it
/// would be pushed last), so the loop continues straight into it and
/// stacks only the silence child: the frames are visited, and leaves
/// recorded, in the order push-both-then-pop gives.
///
/// Every unit of one expansion shares `tree`: its outcome cache serves
/// every expanded round, so each distinct probability's trichotomy is
/// computed once per tree, and each unit appends its leaves to
/// tree.leaves and their running mass to tree.leaf_cdf, so they land
/// in expansion order.
/// `expanded` counts the frames of the prefix and all subtrees
/// together against options.max_nodes. `stack` is scratch, empty on
/// entry and on return.
void expand_frames(const channel::CollisionPolicy& policy, const Frame& root,
                   std::size_t cap, const HistoryTreeOptions& options,
                   std::size_t& expanded, std::vector<Frame>& stack,
                   HistoryTree& tree, Shard& shard,
                   std::vector<Frame>* roots_out) {
  const auto leaf = [&](const Frame& frame, double& mass) {
    mass += frame.reach;
    if (options.record_leaves) {
      // horizon <= kMaxPackedDepth, so the sentinel fits.
      tree.leaves.push_back(
          {frame.state, frame.bits | PackedHistory{1} << frame.depth});
      const double before = tree.leaf_cdf.empty() ? 0.0 : tree.leaf_cdf.back();
      tree.leaf_cdf.push_back(before + frame.reach);
    }
  };
  stack.push_back(root);
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    for (;;) {
      if (frame.depth >= cap) {
        if (roots_out != nullptr) {
          roots_out->push_back(frame);
        } else {
          leaf(frame, shard.frontier);
        }
        break;
      }
      if (frame.reach < options.prune_below) {
        leaf(frame, shard.pruned);
        break;
      }
      if (expanded++ >= options.max_nodes) {
        shard.truncated = true;
        stack.clear();
        return;
      }

      const auto outcome = tree.outcomes(policy.probability_at(frame.state));
      shard.solve_at[frame.depth] += frame.reach * outcome.success;
      const std::size_t depth = frame.depth + 1;
      if (outcome.silence > 0.0) {
        stack.push_back({frame.reach * outcome.silence,
                         policy.next_state(frame.state, false), frame.bits,
                         depth});
      }
      if (!(outcome.collision > 0.0)) break;
      const PackedHistory bit =
          options.record_leaves ? PackedHistory{1} << frame.depth : 0;
      frame = {frame.reach * outcome.collision,
               policy.next_state(frame.state, true), frame.bits | bit, depth};
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
  tree.outcomes = OutcomeCache(k);

  // Phase 1: expand the prefix down to the split depth (or the whole
  // horizon when it is at most the split depth), capturing the frames
  // alive at the split as subtree roots.
  const bool split = kHistorySplitDepth < options.horizon;
  const std::size_t cap = split ? kHistorySplitDepth : options.horizon;
  std::size_t expanded = 0;
  std::vector<Frame> stack;
  Shard prefix{std::vector<double>(options.horizon, 0.0)};
  std::vector<Frame> roots;
  expand_frames(policy, Frame{1.0, policy.initial_state(), 0, 0}, cap,
                options, expanded, stack, tree, prefix,
                split ? &roots : nullptr);
  tree.solve_at = std::move(prefix.solve_at);
  tree.pruned_mass = prefix.pruned;
  tree.frontier_mass = prefix.frontier;
  tree.truncated = prefix.truncated;

  // Phase 2: expand every captured subtree, in capture order, into its
  // own mass accumulators, and add them to the tree's as soon as it is
  // done — the summation order kHistorySplitDepth pins. Its leaves
  // went straight into tree.leaves and tree.leaf_cdf, after the
  // prefix's and the earlier subtrees'.
  for (const Frame& root : roots) {
    Shard subtree{std::vector<double>(options.horizon, 0.0)};
    expand_frames(policy, root, options.horizon, options, expanded, stack,
                  tree, subtree, nullptr);
    for (std::size_t r = 0; r < options.horizon; ++r) {
      tree.solve_at[r] += subtree.solve_at[r];
    }
    tree.pruned_mass += subtree.pruned;
    tree.frontier_mass += subtree.frontier;
    tree.truncated = tree.truncated || subtree.truncated;
  }
  // The cached tree carries no spare capacity.
  tree.leaves.shrink_to_fit();
  tree.leaf_cdf.shrink_to_fit();

  tree.padded_solve_cdf.assign(std::bit_ceil(options.horizon + 1),
                               std::numeric_limits<double>::infinity());
  tree.padded_solve_cdf[0] = 0.0;  // sentinel <= every u in [0, 1)
  double cumulative = 0.0;
  for (std::size_t r = 0; r < options.horizon; ++r) {
    cumulative += tree.solve_at[r];
    tree.padded_solve_cdf[r + 1] = cumulative;
  }
  return tree;
}

}  // namespace crp::harness
