#include "channel/engine.h"

#include <algorithm>
#include <array>
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

void group_by_slot(std::span<const double> cumulative,
                   std::span<const double> uk, std::span<const double> u,
                   BlockScratch& scratch) {
  const std::size_t count = uk.size();
  const std::size_t slots = cumulative.size();
  const auto slot = scratch_span(scratch.slot, count);
  kernels::ops().slot_lookup(cumulative.data(), slots, uk.data(), count,
                             slot.data());

  // Count, then scatter, each slot's trials. On a short support
  // consecutive trials often share a slot, and a single counter per
  // slot would make each trial wait for the last one's store. So the
  // block is cut into kWays contiguous runs of trials, each with its
  // own counters, and the passes step through the runs in turn: run
  // w's trials of a slot land after those of runs before w, which
  // keeps every slot's trials in ascending order. Long supports repeat
  // rarely and would pay kWays times the zeroing, so they take one.
  constexpr std::size_t kWays = 4;
  const std::size_t ways = slots <= kernels::kShortTable ? kWays : 1;
  const std::size_t chunk = (count + ways - 1) / ways;
  std::array<std::size_t, kWays + 1> bound{};
  for (std::size_t w = 0; w <= ways; ++w) bound[w] = std::min(w * chunk, count);
  // Runs shrink with w, so the last one is the shortest.
  const std::size_t common = bound[ways] - bound[ways - 1];
  const auto for_each_trial = [&](const auto& visit) {
    for (std::size_t i = 0; i < common; ++i) {
      for (std::size_t w = 0; w < ways; ++w) visit(w, bound[w] + i);
    }
    for (std::size_t w = 0; w + 1 < ways; ++w) {
      for (std::size_t t = bound[w] + common; t < bound[w + 1]; ++t) {
        visit(w, t);
      }
    }
  };
  const auto fill = scratch_span(scratch.fill, ways * slots);
  std::fill(fill.begin(), fill.end(), 0u);
  for_each_trial([&](std::size_t w, std::size_t t) {
    ++fill[w * slots + slot[t]];
  });

  // Prefix sums: slot s's run starts at start[s], and each way's
  // counter now points where its first trial of the slot goes.
  const auto start = scratch_span(scratch.start, slots + 1);
  std::uint32_t next = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    start[s] = next;
    for (std::size_t w = 0; w < ways; ++w) {
      const std::uint32_t trials = fill[w * slots + s];
      fill[w * slots + s] = next;
      next += trials;
    }
  }
  start[slots] = next;

  // One stable scatter of the trial indices and their solve draws.
  const auto order = scratch_span(scratch.order, count);
  const auto grouped = scratch_span(scratch.grouped, count);
  for_each_trial([&](std::size_t w, std::size_t t) {
    const std::uint32_t at = fill[w * slots + slot[t]]++;
    order[at] = static_cast<std::uint32_t>(t);
    grouped[at] = u[t];
  });
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
  BlockScratch own;
  BlockScratch& scratch = block.scratch != nullptr ? *block.scratch : own;

  // Pass 1: the dispatched lane kernel burns through the per-trial
  // SplitMix64 streams — one draw for the participant count (drawn
  // sizes only) and one for the solve round — producing the exact draw
  // sequence of the old per-trial derive_fast_rng +
  // uniform_real_distribution loop, distribution construction and all
  // hoisted into the kernel (tests/kernel_test.cpp pins the sequence).
  // Drawn-size trials are grouped by support slot at once, their solve
  // draws landing in slot order in scratch.grouped.
  std::span<double> targets;
  if (dist != nullptr) {
    const auto uk = scratch_span(scratch.uk, count);
    const auto u = scratch_span(scratch.u, count);
    kops.pass1_uniform_pair(block.seed, block.first_trial, count, uk.data(),
                            u.data());
    group_by_slot(dist->support_cumulative(), uk, u, scratch);
    targets = std::span(scratch.grouped).first(count);
  } else {
    targets = scratch_span(scratch.u, count);
    kops.pass1_uniform(block.seed, block.first_trial, count, targets.data());
  }

  // Pass 2a: the whole uniform column becomes log-survival targets in
  // one vectorized log1p map, in place (an element-wise map, so slot
  // order does not matter).
  kops.map_targets(targets.data(), count);

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
  const auto probe = [&](std::size_t k, std::span<const double> run,
                         std::uint64_t* rounds) {
    const double min_target = *std::min_element(run.begin(), run.end());
    const auto table = sampler_.snapshot(k, min_target, block.max_rounds);
    kops.probe_rounds(sampler_.probe_view(*table, block.max_rounds),
                      run.data(), run.size(), rounds);
  };
  const auto finish = [&](std::size_t t, std::uint64_t round) {
    block.solved[t] = round != 0 ? 1 : 0;
    block.rounds[t] = round != 0 ? round : block.max_rounds;
  };
  if (dist != nullptr) {
    // Each slot's targets probe as one contiguous lane-parallel run,
    // and the rounds scatter from slot order straight into the block.
    const auto sizes = dist->support_sizes();
    const auto found = scratch_span(scratch.found, count);
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      const std::size_t begin = scratch.start[s], end = scratch.start[s + 1];
      if (begin == end) continue;
      probe(sizes[s], targets.subspan(begin, end - begin),
            found.data() + begin);
    }
    for (std::size_t j = 0; j < count; ++j) {
      finish(scratch.order[j], found[j]);
    }
  } else {
    probe(block.sizes.fixed_k, targets, block.rounds.data());
    for (std::size_t t = 0; t < count; ++t) finish(t, block.rounds[t]);
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
