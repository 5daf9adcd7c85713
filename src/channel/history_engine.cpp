#include "channel/history_engine.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "channel/kernels/kernels.h"
#include "channel/rng.h"
#include "harness/exact.h"
#include "harness/history_tree.h"
#include "info/distribution.h"

namespace crp::channel {

namespace {

/// Continues one execution by exact per-round simulation from
/// `history`: the same Markov chain the per-round CD simulator runs,
/// sampled through the outcome trichotomy (a uniform CD policy only
/// ever observes the feedback, so the trichotomy is the whole round).
/// Returns the 1-based solve round, or 0 when the budget runs out.
std::size_t simulate_from(const CollisionPolicy& policy,
                          harness::OutcomeCache& outcomes, BitString& history,
                          std::size_t budget, SplitMix64& rng,
                          std::uniform_real_distribution<double>& unit) {
  for (std::size_t round = history.size(); round < budget; ++round) {
    const auto outcome = outcomes(policy.probability(history));
    const double u = unit(rng);
    if (u < outcome.success) return round + 1;
    history.push_back(u >= outcome.success + outcome.silence);
  }
  return 0;
}

}  // namespace

HistoryTreeEngine::HistoryTreeEngine(const CollisionPolicy& policy,
                                     Options options)
    : policy_(policy), options_(options) {
  if (options_.depth_cap > harness::kMaxPackedDepth) {
    throw std::invalid_argument(
        "HistoryTreeEngine: depth_cap exceeds harness::kMaxPackedDepth, the "
        "deepest leaf history a packed word encodes");
  }
}

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
  return {tree, tree->truncated ? Mode::kSimulate : Mode::kInverseCdf};
}

void HistoryTreeEngine::run_many(TrialBlock& block) const {
  validate_trial_block(block);
  const std::size_t count = block.size();
  if (count == 0) return;
  const info::SizeDistribution* dist = block.sizes.distribution;
  const kernels::Ops& kops = kernels::ops();

  // Pass 1: the lane kernel derives every trial's draws at once — the
  // participant-count draw when sizes are drawn, then the solve draw
  // u — bit for bit the unit(rng) values a scalar loop over
  // derive_fast_rng would draw. Drawn-size trials are then grouped by
  // support slot, so each (tree, mode) is fetched once per block.
  std::vector<double> u(count);
  SlotGroups groups;
  std::vector<std::size_t> slot_k;
  if (dist != nullptr) {
    std::vector<double> uk(count);
    kops.pass1_uniform_pair(block.seed, block.first_trial, count, uk.data(),
                            u.data());
    groups = group_by_slot(dist->support_cumulative(), uk);
    const auto sizes = dist->support_sizes();
    slot_k.assign(sizes.begin(), sizes.end());
  } else {
    kops.pass1_uniform(block.seed, block.first_trial, count, u.data());
    groups.order.resize(count);
    std::iota(groups.order.begin(), groups.order.end(), 0u);
    groups.start = {0, count};
    slot_k = {block.sizes.fixed_k};
  }
  const std::size_t pass1_draws = dist != nullptr ? 2 : 1;

  const auto finish = [&](std::size_t t, std::size_t round) {
    block.solved[t] = round != 0 ? 1 : 0;
    block.rounds[t] = round != 0 ? round : block.max_rounds;
  };
  BitString path;  // the history a simulated trial continues from
  path.reserve(64);
  // Simulates trial t onward from `path` on its own stream,
  // re-derived and advanced past its first `skip` draws.
  const auto simulate_trial = [&](std::size_t t,
                                  harness::OutcomeCache& outcomes,
                                  std::size_t skip) {
    SplitMix64 rng = derive_fast_rng(block.seed, block.first_trial + t);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (std::size_t d = 0; d < skip; ++d) (void)unit(rng);
    finish(t, simulate_from(policy_, outcomes, path, block.max_rounds, rng,
                            unit));
  };

  // Pass 2, per slot: the lane upper-bound probe answers every draw
  // over the tree's padded solve CDF — bit-identical to the scalar
  // std::upper_bound it replaces (ties included; pinned by
  // tests/kernel_test.cpp). A draw at or past the solved mass lands
  // on a leaf instead: u - solved_mass is searched in the leaf CDF, and
  // the trial continues from that leaf's history.
  std::vector<double> group_u;
  std::vector<std::uint64_t> group_idx;
  for (std::size_t s = 0; s < slot_k.size(); ++s) {
    const std::span<const std::uint32_t> group(
        groups.order.data() + groups.start[s],
        groups.start[s + 1] - groups.start[s]);
    if (group.empty()) continue;
    const std::size_t k = slot_k[s];
    const auto [tree, mode] = tree_for(k, block.max_rounds);
    harness::OutcomeCache outcomes(k);
    if (mode == Mode::kSimulate) {
      // Truncated expansion: simulate from the empty history, the
      // solve draw u serving as the first round's draw.
      for (const std::uint32_t t : group) {
        path.clear();
        simulate_trial(t, outcomes, pass1_draws - 1);
      }
      continue;
    }
    const double solved_mass = tree->solved_mass();
    const kernels::CdfTable table{tree->padded_solve_cdf.data(),
                                  tree->padded_solve_cdf.size(),
                                  tree->solve_cdf.size()};
    group_u.resize(group.size());
    group_idx.resize(group.size());
    for (std::size_t j = 0; j < group.size(); ++j) group_u[j] = u[group[j]];
    kops.probe_cdf(table, group_u.data(), group.size(), group_idx.data());
    for (std::size_t j = 0; j < group.size(); ++j) {
      const std::uint32_t t = group[j];
      if (group_u[j] < solved_mass) {
        finish(t, static_cast<std::size_t>(group_idx[j]) + 1);
        continue;
      }
      if (tree->leaves.empty()) {  // every branch solved, up to rounding
        finish(t, 0);
        continue;
      }
      // Solved plus leaf mass is 1 only up to rounding, so a draw past
      // the last leaf's cumulative mass belongs to the last leaf.
      const auto it = std::upper_bound(tree->leaf_cdf.begin(),
                                       tree->leaf_cdf.end() - 1,
                                       group_u[j] - solved_mass);
      harness::unpack_history(
          tree->leaves[static_cast<std::size_t>(it - tree->leaf_cdf.begin())]
              .history,
          path);
      simulate_trial(t, outcomes, pass1_draws);
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
