// Streaming measurement accumulators: fold whole result columns into
// fixed-size state instead of growing per-trial sample vectors.
//
// Round counts of contention-resolution executions are small bounded
// integers (a solve round never exceeds the cell's max_rounds), so the
// full distribution of a 10^8-trial cell fits an *exact counting
// histogram* of O(max observed round) machine words — no quantile
// sketch, no approximation. Quantiles, means, and the one-shot success
// curve read off the histogram exactly; memory per sweep cell is flat
// in the trial count. This is the fold layer measure_blocks() and
// run_sweep() use by default (MeasureOptions::keep_samples restores
// the raw sample vector for consumers that need per-trial values).
//
/// Ownership: accumulators own their bins outright; merging copies
/// counts, never aliases.
///
/// Thread-safety: an accumulator is single-writer — the harness gives
/// each cell its own and adds one block at a time under the cell's
/// lock. merge() and the read accessors are safe on a quiescent
/// accumulator.
///
/// Determinism: every piece of accumulator state is *integral*
/// (uint64 bin counts, 128-bit moment sums), so add and merge are
/// exact and commutative — the folded result is bit-identical at any
/// thread count and any merge order. The harness relies on exactly
/// that: a cell's blocks add into its accumulators in whatever order
/// the pool finishes them. Derived floating-point statistics
/// (RoundHistogram::summary()) are computed once, from the merged
/// integer state, in ascending-bin order: counts, min/max, quantiles,
/// and means are bit-identical to the vector fold's summarize() (both
/// sides compute the same exact integers); stddev/ci95 agree to
/// floating-point rounding (the vector fold sums squared deviations in
/// trial order, the histogram per bin — tests/accumulator_test.cpp
/// pins both claims down).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "harness/stats.h"

namespace crp::harness {

/// Exact counting histogram over integer round counts, plus the
/// solved/unsolved tally of the trials it has seen. Bins grow lazily
/// (amortized doubling) to the largest solved round observed, which
/// the round budget bounds.
class RoundHistogram {
 public:
  /// Records a solved trial that finished in `round` rounds.
  void add_solved(std::uint64_t round);

  /// Records a trial that did not solve within the budget.
  void add_unsolved() { ++trials_; }

  /// Folds whole SoA result columns (`rounds[t]` consulted only where
  /// `solved[t]`, exactly like the vector fold). Column lengths must
  /// agree; throws std::invalid_argument otherwise.
  void add_columns(std::span<const std::uint8_t> solved,
                   std::span<const std::uint64_t> rounds);

  /// Adds another histogram's counts into this one. Exact integer
  /// addition, so any merge order yields identical state.
  void merge(const RoundHistogram& other);

  std::uint64_t trials() const { return trials_; }
  std::uint64_t solved() const { return solved_; }
  bool empty() const { return trials_ == 0; }
  double success_rate() const;

  /// Number of *solved* trials whose round count is <= budget (the
  /// numerator of Measurement::solved_within).
  std::uint64_t solved_by(double budget) const;

  /// Summary statistics over the solved rounds, read exactly from the
  /// bins — count, min, max, mean, and quantiles bit-identical to
  /// summarize() over the equivalent sample vector (see header note on
  /// stddev).
  SummaryStats summary() const { return summarize_counts(counts_); }

  /// counts()[r] = number of solved trials that finished in round r.
  std::span<const std::uint64_t> counts() const { return counts_; }

  /// Same trials, solved count, and per-round counts (trailing zero
  /// bins ignored — bin capacity is a growth artifact, not state).
  /// This is full-distribution equality, the streaming counterpart of
  /// comparing sample vectors element-wise.
  friend bool operator==(const RoundHistogram& a, const RoundHistogram& b);

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t trials_ = 0;
  std::uint64_t solved_ = 0;
};

/// Exact moment accumulator for integer-valued per-trial measures —
/// the transmission/energy column. Sums are 128-bit integers, so the
/// state stays exact (and merge order-free) far past any realistic
/// sweep; mean and sample stddev are derived on read.
class MomentAccumulator {
 public:
  void add(std::uint64_t value);
  void add_column(std::span<const std::uint64_t> values);
  void merge(const MomentAccumulator& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return count_ == 0 ? 0 : max_; }
  double mean() const;
  /// Sample standard deviation (0 for fewer than two values).
  double stddev() const;

 private:
  std::uint64_t count_ = 0;
  unsigned __int128 sum_ = 0;
  unsigned __int128 sum_sq_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace crp::harness
