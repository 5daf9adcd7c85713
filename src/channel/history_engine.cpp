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

/// Continues one execution by exact per-round simulation from round
/// `round`, whose start the policy reaches in `state`: the same Markov
/// chain the per-round CD simulator runs, sampled through the outcome
/// trichotomy (a uniform CD policy only ever observes the feedback, so
/// the trichotomy is the whole round). Returns the 1-based solve
/// round, or 0 when the budget runs out.
std::size_t simulate_from(const CollisionPolicy& policy,
                          harness::OutcomeCache& outcomes,
                          CollisionPolicy::State state, std::size_t round,
                          std::size_t budget, SplitMix64& rng,
                          std::uniform_real_distribution<double>& unit) {
  for (; round < budget; ++round) {
    const auto outcome = outcomes(policy.probability_at(state));
    const double u = unit(rng);
    if (u < outcome.success) return round + 1;
    state = policy.next_state(state, u >= outcome.success + outcome.silence);
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

std::size_t HistoryTreeEngine::horizon_for(std::size_t max_rounds) const {
  return std::min(options_.depth_cap, max_rounds);
}

const harness::HistoryTree& HistoryTreeEngine::Entry::get() const {
  if (error) std::rethrow_exception(error);
  return *tree;
}

const HistoryTreeEngine::Entry* HistoryTreeEngine::lookup(
    std::size_t k, std::size_t horizon, bool wait) const {
  const auto key = std::make_pair(k, horizon);
  {
    std::shared_lock lock(mutex_);
    const auto it = trees_.find(key);
    if (it != trees_.end() && it->second.ready) return &it->second;
  }
  Entry* entry = nullptr;
  {
    std::unique_lock lock(mutex_);
    const auto [it, claimed] = trees_.try_emplace(key);
    entry = &it->second;
    if (!claimed) {
      if (!entry->ready && !wait) return nullptr;
      expanded_.wait(lock, [entry] { return entry->ready; });
      return entry;
    }
  }
  // This call claimed the key: expand it outside the lock, then
  // publish the tree, or the error, to every caller waiting for it.
  Entry done;
  done.ready = true;
  try {
    harness::HistoryTreeOptions expand;
    expand.horizon = horizon;
    expand.prune_below = options_.prune_below;
    expand.max_nodes = options_.max_nodes;
    done.tree = std::make_shared<const harness::HistoryTree>(
        harness::expand_history_tree(policy_, k, expand));
  } catch (...) {
    done.error = std::current_exception();
  }
  ++expansions_;
  {
    const std::unique_lock lock(mutex_);
    *entry = std::move(done);
  }
  expanded_.notify_all();
  return entry;
}

std::pair<std::shared_ptr<const harness::HistoryTree>,
          HistoryTreeEngine::Mode>
HistoryTreeEngine::tree_for(std::size_t k, std::size_t max_rounds) const {
  const Entry& entry = *lookup(k, horizon_for(max_rounds), /*wait=*/true);
  const Mode mode =
      entry.get().truncated ? Mode::kSimulate : Mode::kInverseCdf;
  return {entry.tree, mode};
}

void HistoryTreeEngine::run_many(TrialBlock& block) const {
  validate_trial_block(block);
  const std::size_t count = block.size();
  if (count == 0) return;
  const info::SizeDistribution* dist = block.sizes.distribution;
  const kernels::Ops& kops = kernels::ops();

  BlockScratch own;
  BlockScratch& scratch = block.scratch != nullptr ? *block.scratch : own;

  // Pass 1: the lane kernel derives every trial's draws at once — the
  // participant-count draw when sizes are drawn, then the solve draw
  // u — bit for bit the unit(rng) values a scalar loop over
  // derive_fast_rng would draw. Drawn-size trials are grouped by
  // support slot at once, their solve draws landing in slot order in
  // scratch.grouped, so each (tree, mode) is fetched once per block
  // and each slot's draws probe in place. A fixed k is one slot holding
  // every trial in order.
  if (dist != nullptr) {
    const auto uk = scratch_span(scratch.uk, count);
    const auto u = scratch_span(scratch.u, count);
    kops.pass1_uniform_pair(block.seed, block.first_trial, count, uk.data(),
                            u.data());
    group_by_slot(dist->support_cumulative(), uk, u, scratch);
  } else {
    kops.pass1_uniform(block.seed, block.first_trial, count,
                       scratch_span(scratch.grouped, count).data());
    const auto order = scratch_span(scratch.order, count);
    std::iota(order.begin(), order.end(), 0u);
    const auto start = scratch_span(scratch.start, 2);
    start[0] = 0;
    start[1] = count;
  }
  const std::span<const std::uint32_t> sizes =
      dist != nullptr ? dist->support_sizes()
                      : std::span<const std::uint32_t>();
  const std::size_t slots = dist != nullptr ? sizes.size() : 1;
  const auto k_of = [&](std::size_t s) -> std::size_t {
    return dist != nullptr ? sizes[s] : block.sizes.fixed_k;
  };
  const std::size_t pass1_draws = dist != nullptr ? 2 : 1;

  const auto finish = [&](std::size_t t, std::size_t round) {
    block.solved[t] = round != 0 ? 1 : 0;
    block.rounds[t] = round != 0 ? round : block.max_rounds;
  };
  // Simulates trial t onward from round `round`, started in `state`,
  // on its own stream, re-derived and advanced past its first `skip`
  // draws.
  const auto simulate_trial = [&](std::size_t t,
                                  harness::OutcomeCache& outcomes,
                                  CollisionPolicy::State state,
                                  std::size_t round, std::size_t skip) {
    SplitMix64 rng = derive_fast_rng(block.seed, block.first_trial + t);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (std::size_t d = 0; d < skip; ++d) (void)unit(rng);
    finish(t, simulate_from(policy_, outcomes, state, round, block.max_rounds,
                            rng, unit));
  };

  // Pass 2, per slot: the lane upper-bound probe answers every draw
  // over the tree's padded solve CDF — bit-identical to the scalar
  // std::upper_bound it replaces (ties included; pinned by
  // tests/kernel_test.cpp). A draw at or past the solved mass lands
  // on a leaf instead: u - solved_mass is searched in the leaf CDF, and
  // the trial continues from that leaf's history.
  const auto found = scratch_span(scratch.found, count);
  const auto sample_slot = [&](std::size_t s,
                               const harness::HistoryTree& tree) {
    const std::size_t begin = scratch.start[s];
    const std::size_t size = scratch.start[s + 1] - begin;
    const std::uint32_t* group = scratch.order.data() + begin;
    const double* u = scratch.grouped.data() + begin;
    harness::OutcomeCache outcomes(k_of(s));
    if (tree.truncated) {
      // Truncated expansion (Mode::kSimulate): simulate from the empty
      // history, the solve draw u serving as the first round's draw.
      for (std::size_t j = 0; j < size; ++j) {
        simulate_trial(group[j], outcomes, policy_.initial_state(), 0,
                       pass1_draws - 1);
      }
      return;
    }
    const double solved_mass = tree.solved_mass();
    const kernels::CdfTable table{tree.padded_solve_cdf.data(),
                                  tree.padded_solve_cdf.size(),
                                  tree.solve_cdf.size()};
    std::uint64_t* index = found.data() + begin;
    kops.probe_cdf(table, u, size, index);
    for (std::size_t j = 0; j < size; ++j) {
      const std::uint32_t t = group[j];
      if (u[j] < solved_mass) {
        finish(t, static_cast<std::size_t>(index[j]) + 1);
        continue;
      }
      if (tree.leaves.empty()) {  // every branch solved, up to rounding
        finish(t, 0);
        continue;
      }
      // Solved plus leaf mass is 1 only up to rounding, so a draw past
      // the last leaf's cumulative mass belongs to the last leaf.
      const auto it = std::upper_bound(tree.leaf_cdf.begin(),
                                       tree.leaf_cdf.end() - 1,
                                       u[j] - solved_mass);
      const harness::PackedHistory history =
          tree.leaves[static_cast<std::size_t>(it - tree.leaf_cdf.begin())]
              .history;
      simulate_trial(t, outcomes,
                     harness::fold_packed_history(policy_, history),
                     harness::packed_depth(history), pass1_draws);
    }
  };

  // Slots are independent (each trial writes only its own columns from
  // its own stream), so their order is free: sample every slot whose
  // tree is ready or claimable now, and wait only at the end for the
  // trees other workers are still expanding.
  const std::size_t horizon = horizon_for(block.max_rounds);
  scratch.deferred.clear();
  for (std::size_t s = 0; s < slots; ++s) {
    if (scratch.start[s] == scratch.start[s + 1]) continue;
    const Entry* entry = lookup(k_of(s), horizon, /*wait=*/false);
    if (entry == nullptr) {
      scratch.deferred.push_back(s);
    } else {
      sample_slot(s, entry->get());
    }
  }
  for (const std::size_t s : scratch.deferred) {
    sample_slot(s, lookup(k_of(s), horizon, /*wait=*/true)->get());
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
