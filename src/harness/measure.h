// Monte-Carlo measurement of contention-resolution round complexity.
//
// The execution stack is columnar: a channel::Engine fills
// structure-of-arrays result columns for whole blocks of trials
// (channel/engine.h), workers claim (cell, block) items
// (harness/parallel.h), and measure_cells() folds each block into its
// cell's exact counting histogram (harness/accumulate.h), one
// Measurement per cell — bit-identical at every thread count;
// measure_blocks() is its one-cell case. The merge is exact and
// order-free, so a cell's memory is O(max observed round) regardless
// of the trial count, and every statistic a Measurement reports is read
// from that histogram. The measure_* helpers below wire the common
// cases (a uniform algorithm against a network-size distribution, an
// advice protocol against sampled participant sets) onto that stack;
// any other per-trial simulation runs through measure_blocks with a
// channel::AdapterEngine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "channel/engine.h"
#include "channel/protocol.h"
#include "channel/rng.h"
#include "channel/simulator.h"
#include "core/advice.h"
#include "harness/accumulate.h"
#include "harness/stats.h"
#include "info/distribution.h"

namespace crp::channel {
class HistoryTreeCache;  // channel/history_engine.h
}  // namespace crp::channel

namespace crp::harness {

/// Aggregated outcome of a batch of trials.
struct Measurement {
  SummaryStats rounds;        ///< over *solved* trials
  double success_rate = 0.0;  ///< fraction solved within the budget
  std::size_t trials = 0;

  /// Fraction of trials solved within `budget` rounds (one-shot success
  /// probability at that budget), read from the histogram.
  double solved_within(double budget) const;

  /// Exact per-round counts of the solved trials: the cell's whole
  /// round distribution, from which every field above is derived.
  RoundHistogram histogram;
};

/// Which engine simulates a uniform no-CD trial.
enum class NoCdEngine {
  kBinomial,   ///< exact per-round loop, one binomial draw per round
  kPerPlayer,  ///< exact per-round loop, one coin per player per round
  kBatch,      ///< analytic inverse-CDF sampling (channel/batch.h)
};

/// Which engine runs a uniform CD trial. Both produce the same
/// distribution of (solved, rounds); the history-tree sampler consumes
/// randomness differently, so individual trials at a fixed seed differ
/// (tests/history_tree_engine_test.cpp cross-validates the two).
enum class CdEngine {
  kSimulate,     ///< exact per-round Markov simulation (the adapter)
  kHistoryTree,  ///< cached history-tree sampler (channel/history_engine.h)
};

/// Execution knobs for the measure_* helpers. The defaults select the
/// fast path: the analytic engine where one applies and every hardware
/// thread; the measured statistics are engine- and thread-count-
/// independent (up to Monte-Carlo noise for the engine choice, exactly
/// for the thread count).
struct MeasureOptions {
  std::size_t max_rounds = 1 << 20;
  /// Worker threads: 1 = serial, 0 = all hardware threads.
  std::size_t threads = 0;
  /// Engine used by the uniform no-CD helpers (others ignore it).
  NoCdEngine engine = NoCdEngine::kBatch;
  /// Engine used by the uniform CD helpers (others ignore it). The
  /// simulated default keeps every published fixed-seed golden stable;
  /// sweeps and benches opt into the history-tree sampler explicitly.
  CdEngine cd_engine = CdEngine::kSimulate;
  /// Shared history-tree engine cache for the CD helpers (used only
  /// when cd_engine is kHistoryTree). Null = construct a private
  /// engine per call, the non-sweep default; run_sweep passes one
  /// cache for the whole grid so cells sharing a policy expand each
  /// tree once, and declares each cell's use so a policy's trees are
  /// freed with its last cell. Results are identical either way.
  const channel::HistoryTreeCache* tree_cache = nullptr;
};

/// Runs `trials` trials through a columnar engine: the one-cell case of
/// measure_cells, with options.threads workers. The Measurement is
/// bit-identical at every thread count. This is the execution core
/// under every measure_* helper; call it directly to drive a custom
/// channel::Engine.
Measurement measure_blocks(const channel::Engine& engine,
                           const channel::SizeSource& sizes,
                           std::size_t trials, std::uint64_t seed,
                           const MeasureOptions& options);

/// One measurement for measure_cells: measure_blocks' arguments, with
/// the engine built when the cell opens and the round budget the only
/// option a cell carries (measure_cells takes the pool width).
struct MeasureCell {
  /// Builds the cell's engine. Called once, when the scheduler opens
  /// the cell; the engine is released when the cell's last block has
  /// folded, so only open cells hold one.
  std::function<std::shared_ptr<const channel::Engine>()> engine;
  channel::SizeSource sizes;
  std::size_t trials = 0;
  std::uint64_t seed = 0;
  std::size_t max_rounds = 1 << 20;
};

/// Measures every cell on one pool of `threads` workers (0 = all
/// hardware threads) that claim (cell, block) items
/// (harness/parallel.h, parallel_cells). At most `threads` cells are
/// open at once; a newly opened cell runs its first block alone, so
/// the batch tables its engine builds lazily are built once (history
/// trees are built once either way, their cache being single-flight;
/// the rule stays for the tables, and because the fanout tree grid ran
/// about a quarter slower without it), and then any idle worker may
/// claim its remaining blocks, lowest open cell first. Each block
/// folds into its cell's round histogram, an exact integer merge, so
/// every result is bit-identical to measure_blocks on that cell alone,
/// at any thread count. Results are in cell order; the first exception
/// any cell throws is rethrown after the pool drains. `on_result`,
/// when set, gets each Measurement in cell order, one call at a time
/// under one mutex, on whichever worker closed the gap; a closed cell
/// frees its engine at once and only its Measurement waits. After a
/// throw nothing more is delivered, and the exception is rethrown.
std::vector<Measurement> measure_cells(
    std::span<const MeasureCell> cells, std::size_t threads,
    const std::function<void(std::size_t, const Measurement&)>& on_result = {});

/// The engine the uniform measure_* helpers run: options.engine picks
/// the no-CD engine; options.cd_engine picks the CD engine, and a
/// history-tree engine comes from options.tree_cache when one is set.
std::shared_ptr<const channel::Engine> uniform_engine(
    const channel::ProbabilitySchedule& schedule,
    const MeasureOptions& options);
std::shared_ptr<const channel::Engine> uniform_engine(
    const channel::CollisionPolicy& policy, const MeasureOptions& options);

/// Uniform no-CD algorithm vs. sizes drawn from `actual`.
Measurement measure_uniform_no_cd(const channel::ProbabilitySchedule& schedule,
                                  const info::SizeDistribution& actual,
                                  std::size_t trials, std::uint64_t seed,
                                  const MeasureOptions& options = {});

/// Uniform CD algorithm vs. sizes drawn from `actual`.
Measurement measure_uniform_cd(const channel::CollisionPolicy& policy,
                               const info::SizeDistribution& actual,
                               std::size_t trials, std::uint64_t seed,
                               const MeasureOptions& options = {});

/// Uniform no-CD algorithm with the participant count fixed to k.
Measurement measure_uniform_no_cd_fixed_k(
    const channel::ProbabilitySchedule& schedule, std::size_t k,
    std::size_t trials, std::uint64_t seed, const MeasureOptions& options = {});

/// Uniform CD algorithm with the participant count fixed to k.
Measurement measure_uniform_cd_fixed_k(const channel::CollisionPolicy& policy,
                                       std::size_t k, std::size_t trials,
                                       std::uint64_t seed,
                                       const MeasureOptions& options = {});

/// Draws a uniformly random k-subset of {0, ..., n-1}.
std::vector<std::size_t> random_participant_set(std::size_t n, std::size_t k,
                                                channel::Rng& rng);

/// Deterministic advice protocol: per trial, draw k from `actual`, draw
/// a random participant set of that size, compute advice, run.
Measurement measure_deterministic_advice(
    const channel::DeterministicProtocol& protocol,
    const core::AdviceFunction& advice, const info::SizeDistribution& actual,
    std::size_t n, bool collision_detection, std::size_t trials,
    std::uint64_t seed, const MeasureOptions& options = {});

/// Worst-case (maximum over participant sets) round count of a
/// deterministic advice protocol at fixed k, approximated by `probes`
/// random sets plus the adversarial set concentrated at the tail of the
/// advised subtree. The probes are independent, so they fan out across
/// the block scheduler (options.threads); the result is thread-count
/// invariant. See harness/adversary.h for the exhaustive (exact)
/// counterpart.
double worst_case_deterministic_rounds(
    const channel::DeterministicProtocol& protocol,
    const core::AdviceFunction& advice, std::size_t n, std::size_t k,
    bool collision_detection, std::size_t probes, std::uint64_t seed,
    const MeasureOptions& options = {});

}  // namespace crp::harness
