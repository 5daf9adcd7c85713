#include "channel/history_engine.h"

#include <algorithm>
#include <mutex>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "channel/kernels/kernels.h"
#include "channel/rng.h"
#include "harness/exact.h"
#include "info/distribution.h"

namespace crp::channel {

namespace {

/// Continues one execution by exact per-round simulation from
/// `history`: the same Markov chain the per-round CD simulator runs,
/// sampled through the outcome trichotomy (a uniform CD policy only
/// ever observes the feedback, so the trichotomy is the whole round).
/// Returns the 1-based solve round, or 0 when the budget runs out.
std::size_t simulate_from(const CollisionPolicy& policy, std::size_t k,
                          BitString& history, std::size_t budget,
                          SplitMix64& rng,
                          std::uniform_real_distribution<double>& unit) {
  for (std::size_t round = history.size(); round < budget; ++round) {
    const auto outcome =
        harness::round_outcome_probabilities(k, policy.probability(history));
    const double u = unit(rng);
    if (u < outcome.success) return round + 1;
    history.push_back(u >= outcome.success + outcome.silence);
  }
  return 0;
}

}  // namespace

std::pair<std::shared_ptr<const harness::HistoryTree>,
          HistoryTreeEngine::Mode>
HistoryTreeEngine::tree_for(std::size_t k, std::size_t max_rounds) const {
  const std::size_t horizon = std::min(options_.depth_cap, max_rounds);
  const auto key = std::make_pair(k, horizon);
  std::shared_ptr<const harness::HistoryTree> tree;
  {
    std::shared_lock lock(mutex_);
    const auto it = trees_.find(key);
    if (it != trees_.end()) tree = it->second;
  }
  if (tree == nullptr) {
    // Expand outside the lock so a large expansion never serializes
    // cached reads or other keys' builds. Racing builders may expand
    // the same key concurrently — the expansion is deterministic, so
    // they produce identical trees and the first insert wins.
    harness::HistoryTreeOptions expand;
    expand.horizon = horizon;
    expand.prune_below = options_.prune_below;
    expand.threads = options_.expand_threads;
    expand.max_nodes = options_.max_nodes;
    auto built = std::make_shared<const harness::HistoryTree>(
        harness::expand_history_tree(policy_, k, expand));
    std::unique_lock lock(mutex_);
    auto& slot = trees_[key];
    if (slot == nullptr) slot = std::move(built);
    tree = slot;
  }

  if (tree->truncated) return {tree, Mode::kSimulate};
  // Frontier mass is exactly "unsolved at the budget" when the budget
  // equals the expansion horizon; it only becomes unresolved when the
  // execution would continue past the cap.
  const double unresolved =
      tree->pruned_mass + (max_rounds > horizon ? tree->frontier_mass : 0.0);
  return {tree,
          unresolved <= options_.resolve_epsilon ? Mode::kInverseCdf
                                                 : Mode::kWalk};
}

void HistoryTreeEngine::run_many(TrialBlock& block) const {
  validate_trial_block(block);
  const std::size_t count = block.size();
  const info::SizeDistribution* dist = block.sizes.distribution;
  const kernels::Ops& kops = kernels::ops();

  // One (tree, mode) fetch per distinct participant count per block —
  // the same snapshot discipline as the no-CD batch engine.
  using Entry = std::pair<std::shared_ptr<const harness::HistoryTree>, Mode>;
  std::vector<Entry> slots;
  std::vector<std::size_t> slot_k;
  if (dist != nullptr) {
    const auto sizes = dist->support_sizes();
    slots.assign(sizes.size(), {nullptr, Mode::kSimulate});
    slot_k.assign(sizes.begin(), sizes.end());
  } else {
    slots.assign(1, {nullptr, Mode::kSimulate});
    slot_k.assign(1, block.sizes.fixed_k);
  }

  std::span<const double> cum;
  if (dist != nullptr) cum = dist->support_cumulative();

  // Pass 1: the lane kernel derives every trial's first draw at once —
  // the participant-count draw when sizes are drawn — and the slots it
  // selects decide which (tree, mode) entries the block needs. The
  // solve-draw column is only materialized when some slot actually
  // answers by inverse CDF; walk/simulate trials have a variable draw
  // count and re-derive their stream scalar below, so for them the
  // columns would be pure overhead.
  std::vector<std::uint32_t> slot_of;
  std::vector<double> uk;
  if (dist != nullptr) {
    uk.resize(count);
    kops.pass1_uniform(block.seed, block.first_trial, count, uk.data());
    slot_of.resize(count);
    for (std::size_t t = 0; t < count; ++t) {
      slot_of[t] = static_cast<std::uint32_t>(
          std::lower_bound(cum.begin(), cum.end(), uk[t]) - cum.begin());
      Entry& entry = slots[slot_of[t]];
      if (entry.first == nullptr) {
        entry = tree_for(slot_k[slot_of[t]], block.max_rounds);
      }
    }
  } else if (count > 0) {
    slots[0] = tree_for(slot_k[0], block.max_rounds);
  }
  bool any_cdf = false;
  for (const Entry& entry : slots) {
    any_cdf |= entry.first != nullptr && entry.second == Mode::kInverseCdf;
  }

  // The solve-draw column (the second draw of each stream; the first
  // for fixed-k blocks) — bit for bit the unit(rng) value the scalar
  // loop would have drawn. uk is recomputed by the pair kernel, to the
  // identical values.
  std::vector<double> u;
  if (any_cdf) {
    u.resize(count);
    if (dist != nullptr) {
      kops.pass1_uniform_pair(block.seed, block.first_trial, count, uk.data(),
                              u.data());
    } else {
      kops.pass1_uniform(block.seed, block.first_trial, count, u.data());
    }
  }

  // Inverse-CDF trials, grouped per slot for the lane probe.
  std::vector<std::vector<std::uint32_t>> cdf_groups(slots.size());

  BitString path;  // scratch history for the walk / simulation modes
  path.reserve(64);
  for (std::size_t t = 0; t < count; ++t) {
    const std::size_t slot = dist != nullptr ? slot_of[t] : 0;
    const Entry& entry = slots[slot];
    const harness::HistoryTree& tree = *entry.first;
    const std::size_t k = slot_k[slot];

    if (entry.second == Mode::kInverseCdf) {
      cdf_groups[slot].push_back(static_cast<std::uint32_t>(t));
      continue;
    }

    // Walk / simulate: variable draw count — re-derive the per-trial
    // stream and discard the size draw the uk column already holds.
    SplitMix64 rng = derive_fast_rng(block.seed, block.first_trial + t);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    if (dist != nullptr) (void)unit(rng);

    std::size_t round = 0;  // 1-based solve round; 0 = unsolved
    switch (entry.second) {
      case Mode::kInverseCdf:
        break;  // handled above
      case Mode::kWalk: {
        path.clear();
        std::int64_t node = tree.nodes.empty()
                                ? harness::HistoryTreeNode::kNoChild
                                : 0;
        while (node != harness::HistoryTreeNode::kNoChild &&
               path.size() < block.max_rounds) {
          const auto& n = tree.nodes[static_cast<std::size_t>(node)];
          // Not the solve-draw column `u` above: the walk re-derives
          // its own per-trial stream draw by draw.
          const double draw = unit(rng);
          if (draw < n.cum_success) {
            round = path.size() + 1;
            break;
          }
          const bool collided = draw >= n.cum_no_collision;
          path.push_back(collided);
          node = collided ? n.collision : n.silence;
        }
        if (round == 0 && path.size() < block.max_rounds) {
          // Left the expansion (pruned branch or depth cap): continue
          // on the exact per-round simulation from the walked history.
          round = simulate_from(policy_, k, path, block.max_rounds, rng,
                                unit);
        }
        break;
      }
      case Mode::kSimulate: {
        path.clear();
        round = simulate_from(policy_, k, path, block.max_rounds, rng, unit);
        break;
      }
    }
    block.solved[t] = round != 0 ? 1 : 0;
    block.rounds[t] = round != 0 ? round : block.max_rounds;
  }

  // Pass 2: answer each slot's inverse-CDF trials with the lane
  // upper-bound probe over the tree's padded CDF — bit-identical to
  // the scalar std::upper_bound it replaces (ties included; pinned by
  // tests/kernel_test.cpp). The solved-mass gate stays outside the
  // kernel: u >= solved_mass means the budget ran out unsolved.
  std::vector<double> group_u;
  std::vector<std::uint64_t> group_idx;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const auto& group = cdf_groups[s];
    if (group.empty()) continue;
    const harness::HistoryTree& tree = *slots[s].first;
    const double solved_mass = tree.solved_mass();
    if (tree.padded_solve_cdf.empty()) {
      // Hand-assembled tree without the padded table: scalar fallback.
      for (const std::uint32_t t : group) {
        std::size_t round = 0;
        if (u[t] < solved_mass) {
          round = static_cast<std::size_t>(
                      std::upper_bound(tree.solve_cdf.begin(),
                                       tree.solve_cdf.end(), u[t]) -
                      tree.solve_cdf.begin()) +
                  1;
        }
        block.solved[t] = round != 0 ? 1 : 0;
        block.rounds[t] = round != 0 ? round : block.max_rounds;
      }
      continue;
    }
    const kernels::CdfTable table{tree.padded_solve_cdf.data(),
                                  tree.padded_solve_cdf.size(),
                                  tree.solve_cdf.size()};
    group_u.resize(group.size());
    group_idx.resize(group.size());
    for (std::size_t j = 0; j < group.size(); ++j) group_u[j] = u[group[j]];
    kops.probe_cdf(table, group_u.data(), group.size(), group_idx.data());
    for (std::size_t j = 0; j < group.size(); ++j) {
      const std::uint32_t t = group[j];
      const std::size_t round =
          group_u[j] < solved_mass
              ? static_cast<std::size_t>(group_idx[j]) + 1
              : 0;
      block.solved[t] = round != 0 ? 1 : 0;
      block.rounds[t] = round != 0 ? round : block.max_rounds;
    }
  }
}

std::shared_ptr<const HistoryTreeEngine> HistoryTreeCache::engine_for(
    const CollisionPolicy& policy) const {
  {
    std::shared_lock lock(mutex_);
    const auto it = engines_.find(&policy);
    if (it != engines_.end()) return it->second;
  }
  std::unique_lock lock(mutex_);
  auto& slot = engines_[&policy];
  if (slot == nullptr) {
    slot = std::make_shared<const HistoryTreeEngine>(policy, options_);
  }
  return slot;
}

std::size_t HistoryTreeCache::size() const {
  std::shared_lock lock(mutex_);
  return engines_.size();
}

}  // namespace crp::channel
