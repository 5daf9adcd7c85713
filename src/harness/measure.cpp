#include "harness/measure.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>

#include "channel/engine.h"
#include "channel/history_engine.h"
#include "channel/rng.h"
#include "harness/parallel.h"

namespace crp::harness {

namespace {

/// A Measurement read entirely from a cell's merged round histogram.
Measurement measurement_from_histogram(RoundHistogram histogram) {
  Measurement result;
  result.trials = histogram.trials();
  result.success_rate = histogram.success_rate();
  result.rounds = histogram.summary();
  result.histogram = std::move(histogram);
  return result;
}

}  // namespace

std::shared_ptr<const channel::Engine> uniform_engine(
    const channel::ProbabilitySchedule& schedule,
    const MeasureOptions& options) {
  switch (options.engine) {
    case NoCdEngine::kBatch:
      return std::make_shared<const channel::BatchColumnarEngine>(schedule);
    case NoCdEngine::kPerPlayer:
      return std::make_shared<const channel::PerPlayerColumnarEngine>(
          schedule);
    case NoCdEngine::kBinomial:
    default:
      return std::make_shared<const channel::BinomialColumnarEngine>(
          schedule);
  }
}

std::shared_ptr<const channel::Engine> uniform_engine(
    const channel::CollisionPolicy& policy, const MeasureOptions& options) {
  if (options.cd_engine == CdEngine::kHistoryTree) {
    if (options.tree_cache != nullptr) {
      return options.tree_cache->engine_for(policy);
    }
    return std::make_shared<const channel::HistoryTreeEngine>(policy);
  }
  return std::make_shared<const channel::CollisionPolicyColumnarEngine>(
      policy);
}

std::vector<Measurement> measure_cells(
    std::span<const MeasureCell> cells, std::size_t threads,
    const std::function<void(std::size_t, const Measurement&)>& on_result) {
  // A cell's state lives from open to close. Each block folds into the
  // cell's round histogram, which is exact and order-free
  // (harness/accumulate.h), so memory is O(workers * (block size + max
  // observed round)) however many trials run: at most one cell per
  // worker is open.
  struct CellState {
    std::shared_ptr<const channel::Engine> engine;
    std::mutex fold;  ///< guards histogram
    RoundHistogram histogram;
  };
  struct Scratch {
    std::vector<std::uint8_t> solved;
    std::vector<std::uint64_t> rounds;
  };
  std::vector<std::size_t> totals(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) totals[c] = cells[c].trials;
  std::vector<CellState> states(cells.size());
  std::vector<Scratch> scratch(parallel_worker_count(totals, threads));
  std::vector<Measurement> results(cells.size());
  // The delivery cursor moves before each call and to the end on a throw.
  std::mutex delivery;
  std::vector<bool> closed(cells.size());
  std::size_t delivered = 0;

  const auto open = [&](std::size_t c) {
    states[c].engine = cells[c].engine();
  };
  const auto block = [&](std::size_t worker, std::size_t c, std::size_t begin,
                         std::size_t end) {
    const MeasureCell& cell = cells[c];
    CellState& state = states[c];
    Scratch& columns = scratch[worker];
    columns.solved.resize(end - begin);
    columns.rounds.resize(end - begin);
    channel::TrialBlock block{.seed = cell.seed,
                              .first_trial = begin,
                              .max_rounds = cell.max_rounds,
                              .sizes = cell.sizes,
                              .solved = columns.solved,
                              .rounds = columns.rounds};
    state.engine->run_many(block);
    const std::lock_guard lock(state.fold);
    state.histogram.add_columns(block.solved, block.rounds);
  };
  const auto close = [&](std::size_t c) {
    CellState& state = states[c];
    results[c] = measurement_from_histogram(std::move(state.histogram));
    // Drop the engine (and the tables it built) as the cell closes, so
    // only open cells hold one.
    state.engine.reset();
    if (!on_result) return;
    const std::lock_guard lock(delivery);
    closed[c] = true;
    while (delivered < cells.size() && closed[delivered]) {
      const std::size_t next = delivered++;
      try {
        on_result(next, results[next]);
      } catch (...) {
        delivered = cells.size();
        throw;
      }
    }
  };
  parallel_cells(totals, threads,
                 CellSteps{.open = open,
                           .block = block,
                           .close = close,
                           .first_block_alone = true});
  return results;
}

Measurement measure_blocks(const channel::Engine& engine,
                           const channel::SizeSource& sizes,
                           std::size_t trials, std::uint64_t seed,
                           const MeasureOptions& options) {
  // The caller owns the engine: hand the scheduler a non-owning handle.
  const std::shared_ptr<const channel::Engine> borrowed(
      std::shared_ptr<const channel::Engine>(), &engine);
  const MeasureCell cell{.engine = [&borrowed] { return borrowed; },
                         .sizes = sizes,
                         .trials = trials,
                         .seed = seed,
                         .max_rounds = options.max_rounds};
  return std::move(
      measure_cells(std::span<const MeasureCell>(&cell, 1), options.threads)
          .front());
}

double Measurement::solved_within(double budget) const {
  if (trials == 0) return 0.0;
  return static_cast<double>(histogram.solved_by(budget)) /
         static_cast<double>(trials);
}

Measurement measure_uniform_no_cd(const channel::ProbabilitySchedule& schedule,
                                  const info::SizeDistribution& actual,
                                  std::size_t trials, std::uint64_t seed,
                                  const MeasureOptions& options) {
  return measure_blocks(*uniform_engine(schedule, options),
                        channel::SizeSource{&actual, 0}, trials, seed,
                        options);
}

Measurement measure_uniform_cd(const channel::CollisionPolicy& policy,
                               const info::SizeDistribution& actual,
                               std::size_t trials, std::uint64_t seed,
                               const MeasureOptions& options) {
  return measure_blocks(*uniform_engine(policy, options),
                        channel::SizeSource{&actual, 0}, trials, seed,
                        options);
}

Measurement measure_uniform_no_cd_fixed_k(
    const channel::ProbabilitySchedule& schedule, std::size_t k,
    std::size_t trials, std::uint64_t seed, const MeasureOptions& options) {
  return measure_blocks(*uniform_engine(schedule, options),
                        channel::SizeSource{nullptr, k}, trials, seed,
                        options);
}

Measurement measure_uniform_cd_fixed_k(const channel::CollisionPolicy& policy,
                                       std::size_t k, std::size_t trials,
                                       std::uint64_t seed,
                                       const MeasureOptions& options) {
  return measure_blocks(*uniform_engine(policy, options),
                        channel::SizeSource{nullptr, k}, trials, seed,
                        options);
}

std::vector<std::size_t> random_participant_set(std::size_t n, std::size_t k,
                                                channel::Rng& rng) {
  if (k > n) throw std::invalid_argument("cannot pick k > n participants");
  // Partial Fisher-Yates over the id space.
  std::vector<std::size_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    std::uniform_int_distribution<std::size_t> pick(i, n - 1);
    std::swap(ids[i], ids[pick(rng)]);
  }
  ids.resize(k);
  return ids;
}

Measurement measure_deterministic_advice(
    const channel::DeterministicProtocol& protocol,
    const core::AdviceFunction& advice, const info::SizeDistribution& actual,
    std::size_t n, bool collision_detection, std::size_t trials,
    std::uint64_t seed, const MeasureOptions& options) {
  const channel::AdapterEngine engine(
      [&](std::size_t k, channel::Rng& rng,
          const channel::SimOptions& sim) {
        const auto participants = random_participant_set(n, k, rng);
        const auto bits = advice.advise(participants);
        return channel::run_deterministic(protocol, bits, participants,
                                          collision_detection, sim);
      });
  return measure_blocks(engine, channel::SizeSource{&actual, 0}, trials,
                        seed, options);
}

double worst_case_deterministic_rounds(
    const channel::DeterministicProtocol& protocol,
    const core::AdviceFunction& advice, std::size_t n, std::size_t k,
    bool collision_detection, std::size_t probes, std::uint64_t seed,
    const MeasureOptions& options) {
  if (k > n) throw std::invalid_argument("cannot pick k > n participants");
  const auto cost_of = [&](const std::vector<std::size_t>& participants) {
    const auto bits = advice.advise(participants);
    const auto result = channel::run_deterministic(
        protocol, bits, participants, collision_detection,
        {.max_rounds = options.max_rounds});
    return result.solved ? static_cast<double>(result.rounds)
                         : static_cast<double>(options.max_rounds);
  };

  // Random probes: independent (one derived stream each), so they fan
  // out over the block scheduler in small blocks, which keeps probes of
  // very different lengths load-balanced; the max-fold is order-free,
  // making the result thread-count invariant.
  constexpr std::size_t kProbeBlock = 32;
  std::vector<double> probe_cost(probes);
  parallel_blocks(
      probes, options.threads,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t p = begin; p < end; ++p) {
          auto rng = channel::derive_rng(seed, p);
          probe_cost[p] = cost_of(random_participant_set(n, k, rng));
        }
      },
      kProbeBlock);
  double worst = 0.0;
  for (const double cost : probe_cost) worst = std::max(worst, cost);

  // Crafted adversarial probes. "Tail": consecutive ids ending at the
  // highest id, which puts the minimum active id as deep as possible
  // into whatever subtree the advice names (worst for linear scans).
  // "Head": the first k ids, whose shared prefixes force a collision at
  // every level of a collision-detector descent (worst for tree
  // protocols).
  std::vector<std::size_t> crafted(k);
  for (std::size_t i = 0; i < k; ++i) crafted[i] = n - k + i;
  worst = std::max(worst, cost_of(crafted));
  for (std::size_t i = 0; i < k; ++i) crafted[i] = i;
  worst = std::max(worst, cost_of(crafted));
  return worst;
}

}  // namespace crp::harness
