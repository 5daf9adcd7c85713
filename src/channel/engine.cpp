#include "channel/engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "channel/kernels/kernels.h"
#include "channel/rng.h"
#include "channel/simulator.h"

namespace crp::channel {

void validate_trial_block(const TrialBlock& block) {
  if (block.rounds.size() != block.size()) {
    throw std::invalid_argument("trial block columns disagree on length");
  }
  if (block.sizes.distribution == nullptr && block.sizes.fixed_k == 0) {
    throw std::invalid_argument("need at least one participant");
  }
}

SlotGroups group_by_slot(std::span<const double> cumulative,
                         std::span<const double> uk) {
  const std::size_t padded_size = std::bit_ceil(cumulative.size());
  std::vector<double> padded(padded_size,
                             std::numeric_limits<double>::infinity());
  std::copy(cumulative.begin(), cumulative.end(), padded.begin());
  std::vector<std::uint32_t> slot(uk.size());
  SlotGroups groups;
  groups.start.assign(cumulative.size() + 1, 0);
  for (std::size_t t = 0; t < uk.size(); ++t) {
    slot[t] = static_cast<std::uint32_t>(
        kernels::lower_bound_padded(padded.data(), padded_size, uk[t]));
    ++groups.start[slot[t] + 1];
  }
  for (std::size_t s = 0; s + 1 < groups.start.size(); ++s) {
    groups.start[s + 1] += groups.start[s];
  }
  groups.order.resize(uk.size());
  std::vector<std::size_t> fill(groups.start.begin(), groups.start.end() - 1);
  for (std::size_t t = 0; t < uk.size(); ++t) {
    groups.order[fill[slot[t]]++] = static_cast<std::uint32_t>(t);
  }
  return groups;
}

namespace {

/// Shared body of the exact-simulator adapters: per trial, one derived
/// Rng stream feeding the k draw (when drawn) and then the
/// scalar run — the draw order of a hand-written loop over
/// derive_rng(seed, t), so results are bit-identical to one. The
/// streams are seeded kSeedLanes at a time (derive_rngs).
template <typename Run>
void run_scalar_adapter(TrialBlock& block, const Run& run) {
  validate_trial_block(block);
  const info::SizeDistribution* dist = block.sizes.distribution;
  const SimOptions options{.max_rounds = block.max_rounds};
  std::array<Rng, kSeedLanes> lanes;
  for (std::size_t base = 0; base < block.size(); base += kSeedLanes) {
    const std::size_t count = std::min(kSeedLanes, block.size() - base);
    derive_rngs(block.seed, block.first_trial + base,
                std::span(lanes).first(count));
    for (std::size_t lane = 0; lane < count; ++lane) {
      Rng& rng = lanes[lane];
      const std::size_t k = dist ? dist->sample(rng) : block.sizes.fixed_k;
      const RunResult result = run(k, rng, options);
      block.solved[base + lane] = result.solved ? 1 : 0;
      block.rounds[base + lane] = result.rounds;
    }
  }
}

}  // namespace

void AdapterEngine::run_many(TrialBlock& block) const {
  run_scalar_adapter(block, run_);
}

void BatchColumnarEngine::run_many(TrialBlock& block) const {
  validate_trial_block(block);
  const std::size_t count = block.size();
  if (count == 0) return;
  const info::SizeDistribution* dist = block.sizes.distribution;
  const kernels::Ops& kops = kernels::ops();

  // Pass 1: the dispatched lane kernel burns through the per-trial
  // SplitMix64 streams — one draw for the participant count (drawn
  // sizes only) and one for the solve round — producing the exact draw
  // sequence of the old per-trial derive_fast_rng +
  // uniform_real_distribution loop, distribution construction and all
  // hoisted into the kernel (tests/kernel_test.cpp pins the sequence).
  std::vector<double> u(count);
  SlotGroups groups;
  if (dist != nullptr) {
    std::vector<double> uk(count);
    kops.pass1_uniform_pair(block.seed, block.first_trial, count, uk.data(),
                            u.data());
    groups = group_by_slot(dist->support_cumulative(), uk);
  } else {
    kops.pass1_uniform(block.seed, block.first_trial, count, u.data());
  }

  // Pass 2a: the whole uniform column becomes log-survival targets in
  // one vectorized log1p map; u[t] holds the target from here on.
  kops.map_targets(u.data(), count);

  // Pass 2b: answer every target with the lane inverse-CDF probe over
  // a snapshot's padded period table — 8 (AVX2) / 16 (AVX-512) masked-
  // gather descents in flight instead of one conditional-move descent
  // per trial. One snapshot per support slot serves the whole block:
  // snapshotting at the block's *minimum* target (the deepest draw)
  // guarantees the table serves every trial in the group, and yields
  // the same rounds as per-trial extension would — the first crossing
  // index of a non-increasing prefix does not depend on how far past
  // the crossing the table extends, and a table that cannot cross
  // within max_rounds answers 0 either way.
  std::vector<std::uint64_t> rounds(count);
  if (dist != nullptr) {
    // Each slot's targets probe as one contiguous lane-parallel run.
    const auto sizes = dist->support_sizes();
    const auto& [order, start] = groups;
    std::vector<double> grouped(count);
    for (std::size_t j = 0; j < count; ++j) grouped[j] = u[order[j]];
    std::vector<std::uint64_t> grouped_rounds(count);
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      const std::size_t begin = start[s], end = start[s + 1];
      if (begin == end) continue;
      const double min_target =
          *std::min_element(grouped.begin() + begin, grouped.begin() + end);
      const auto table =
          sampler_.snapshot(sizes[s], min_target, block.max_rounds);
      kops.probe_rounds(sampler_.probe_view(*table, block.max_rounds),
                        grouped.data() + begin, end - begin,
                        grouped_rounds.data() + begin);
    }
    for (std::size_t j = 0; j < count; ++j) {
      rounds[order[j]] = grouped_rounds[j];
    }
  } else {
    const double min_target = *std::min_element(u.begin(), u.end());
    const auto table =
        sampler_.snapshot(block.sizes.fixed_k, min_target, block.max_rounds);
    kops.probe_rounds(sampler_.probe_view(*table, block.max_rounds), u.data(),
                      count, rounds.data());
  }

  for (std::size_t t = 0; t < count; ++t) {
    const std::uint64_t round = rounds[t];
    block.solved[t] = round != 0 ? 1 : 0;
    block.rounds[t] = round != 0 ? round : block.max_rounds;
  }
}

void BinomialColumnarEngine::run_many(TrialBlock& block) const {
  run_scalar_adapter(block, [this](std::size_t k, Rng& rng,
                                   const SimOptions& options) {
    return run_uniform_no_cd(schedule_, k, rng, options);
  });
}

void PerPlayerColumnarEngine::run_many(TrialBlock& block) const {
  run_scalar_adapter(block, [this](std::size_t k, Rng& rng,
                                   const SimOptions& options) {
    return run_uniform_no_cd_per_player(schedule_, k, rng, options);
  });
}

void CollisionPolicyColumnarEngine::run_many(TrialBlock& block) const {
  CdRunMemo memo(policy_);
  run_scalar_adapter(block, [&memo](std::size_t k, Rng& rng,
                                    const SimOptions& options) {
    return run_uniform_cd(memo, k, rng, options);
  });
}

}  // namespace crp::channel
