// Analytic fast-path engine for uniform no-collision-detection runs.
//
// For a fixed participant count k the rounds of a no-CD schedule are
// independent: round r succeeds with probability
//     s_r = k p_r (1 - p_r)^{k-1},
// so the solving round has an explicit distribution with log-survival
//     LS(r) = sum_{j<r} log(1 - s_j),
// and one execution can be *sampled* — not simulated — by drawing
// u ~ Uniform(0, 1] and inverting the CDF: the solve round is the
// smallest r with LS(r) < log u. This replaces the per-round loop of
// channel/simulator.h (one virtual probability() call plus one binomial
// draw per round) with a single O(log) binary search per trial.
//
// The sampler tabulates each schedule once per configuration:
//  * probabilities p_r are fetched through the virtual interface once
//    and cached (for cycling schedules — see ProbabilitySchedule::
//    period() — only one period is stored and indexed modulo);
//  * per participant count k, the log-survival prefix sums are built
//    once and shared by every subsequent trial with that k.
// Caches are guarded by a shared mutex, so one sampler can serve the
// thread-pool harness (harness/parallel.h) concurrently.
//
// The engine is *statistically* identical to run_uniform_no_cd — same
// distribution of (solved, rounds) — but consumes randomness
// differently, so individual executions at a fixed seed differ.
// tests/batch_engine_test.cpp cross-validates the distributions against
// the binomial and per-player engines and the exact profiles of
// harness/exact.h.
//
/// Ownership: the sampler borrows its schedule (which must outlive
/// it) and owns every table it tabulates; snapshot() hands out
/// shared_ptrs that keep a table alive after the cache replaces it.
///
/// Thread-safety: one sampler serves any number of threads — the
/// schedule/table caches grow under a shared mutex, snapshots are
/// immutable, and search() is pure.
///
/// Determinism: sample() consumes one uniform draw per outcome from
/// the caller's generator and derives nothing else, so results are a
/// pure function of (schedule, k, generator state, max_rounds) — cache
/// state and tabulation order never affect a result, only its cost.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <random>
#include <shared_mutex>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "channel/kernels/kernels.h"
#include "channel/protocol.h"
#include "channel/rng.h"
#include "channel/simulator.h"

namespace crp::channel {

/// Samples uniform no-CD executions analytically. Bind one sampler per
/// schedule and reuse it across trials (and threads): the schedule and
/// per-k tables are tabulated once, on first use.
class BatchNoCdSampler {
 public:
  /// The schedule must outlive the sampler. Schedules advertising a
  /// positive period() get O(period) tables regardless of max_rounds;
  /// aperiodic schedules are tabulated lazily up to the largest round
  /// any trial has needed so far.
  explicit BatchNoCdSampler(const ProbabilitySchedule& schedule);

  BatchNoCdSampler(const BatchNoCdSampler&) = delete;
  BatchNoCdSampler& operator=(const BatchNoCdSampler&) = delete;

  /// Samples one execution outcome for k >= 1 participants: one
  /// Uniform[0, 1) draw from `rng` (channel::Rng or SplitMix64), then
  /// one inverse-CDF lookup. An execution that outlives `max_rounds`
  /// is reported unsolved at the budget. Thread-safe.
  template <class Generator>
  RunResult sample(std::size_t k, Generator& rng,
                   std::size_t max_rounds = 1 << 20) const {
    if (k == 0) throw std::invalid_argument("need at least one participant");
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const std::size_t round = solve_round(k, unit(rng), max_rounds);
    RunResult result;
    result.solved = round != 0;
    result.rounds = result.solved ? round : max_rounds;
    return result;
  }

  /// Inverse-CDF core of sample(): the 1-based solve round for the
  /// uniform draw u in [0, 1), or 0 when the execution outlives
  /// `max_rounds`. Exposed for tests.
  std::size_t solve_round(std::size_t k, double u,
                          std::size_t max_rounds) const;

  // ---- columnar interface (channel/engine.h) ----
  //
  // A columnar caller fetches one table snapshot per distinct k and
  // then answers every draw with that k through search() — no lock,
  // hash lookup, or refcount traffic on the per-trial path. The
  // snapshot stays valid however the shared cache grows concurrently.

  /// Immutable once built: log_survival[r] = LS(r) over rounds [0, r),
  /// non-increasing, log_survival[0] = 0. For periodic schedules the
  /// table spans exactly one period; aperiodic tables span the rounds
  /// tabulated so far and are replaced by extended copies on growth.
  /// `padded` is log_survival padded with -inf to the next power of
  /// two — the flat probe array the branchless inverse-CDF search
  /// walks (built once per snapshot by finalize_probe_table).
  struct SolveTable {
    std::vector<double> log_survival;
    std::vector<double> padded;
  };

  /// Builds (or rebuilds) a table's padded probe array from its
  /// log_survival prefix. Every snapshot the sampler publishes is
  /// already finalized; exposed so tests can assemble tables directly.
  static void finalize_probe_table(SolveTable& table);

  /// Branchless inverse-CDF probe: the smallest 1-based index i with
  /// log_survival[i] < target, or log_survival.size() when no
  /// tabulated round reaches the target. Identical, comparison for
  /// comparison, to std::partition_point over log_survival[1..) with
  /// the predicate v >= target — but the fixed-trip-count descent over
  /// the padded power-of-two array compiles to conditional moves
  /// instead of an unpredictable branch per level
  /// (tests/accumulator_test.cpp pins the equivalence on randomized
  /// snapshots). This is the per-draw hot path of the columnar
  /// engine's pass 2.
  static std::size_t probe_first_below(const SolveTable& table,
                                       double target) {
    // A hand-assembled table that skipped finalize_probe_table would
    // otherwise return round 1 for every target, silently.
    assert(table.padded.size() >= table.log_survival.size());
    return kernels::probe_first_below_padded(table.padded.data(),
                                             table.padded.size(),
                                             table.log_survival.size(), target);
  }

  /// The log-survival target log(1 - u) a uniform draw has to reach.
  /// Evaluated by the kernel layer's own log1p (kernels::log1p_neg) —
  /// within 1 ulp of libm but vectorizable and bit-stable across libc
  /// versions — so the scalar sample() path and the lane kernels
  /// provably agree draw for draw.
  static double target_for(double u);

  /// The kernel-layer view of a snapshot: the borrowed ProbeTable the
  /// lane probe (kernels::Ops::probe_rounds) descends. Valid while the
  /// snapshot lives.
  kernels::ProbeTable probe_view(const SolveTable& table,
                                 std::size_t max_rounds) const {
    return {table.padded.data(), table.padded.size(),
            table.log_survival.size(), period_ > 0,
            table.log_survival.back(), max_rounds};
  }

  /// The schedule's cycle length (0 = aperiodic) — mirrors
  /// ProbabilitySchedule::period(), cached at construction.
  std::size_t period() const { return period_; }

  /// Fetches (building or extending under the shared lock if needed)
  /// the table snapshot serving (k, target) within `max_rounds`.
  std::shared_ptr<const SolveTable> snapshot(std::size_t k, double target,
                                             std::size_t max_rounds) const;

  /// True when `table` can answer `target` without extension — always
  /// for periodic schedules, for aperiodic ones when the tabulated
  /// prefix already crosses the target or exhausts the round budget.
  bool serves(const SolveTable& table, double target,
              std::size_t max_rounds) const {
    return period_ > 0 || table.log_survival.back() < target ||
           table.log_survival.size() > max_rounds;
  }

  /// Inverse-CDF search in a snapshot: the 1-based solve round for
  /// `target`, or 0 when the execution outlives `max_rounds`. Pure —
  /// the per-trial columnar hot path.
  std::size_t search(const SolveTable& table, double target,
                     std::size_t max_rounds) const;

 private:
  const ProbabilitySchedule& schedule_;
  const std::size_t period_;  // 0 = aperiodic

  mutable std::shared_mutex mutex_;
  // p_r for rounds [0, period_) (immutable after construction) or for
  // the tabulated prefix of an aperiodic schedule (grows under mutex_).
  mutable std::vector<double> probabilities_;
  mutable std::unordered_map<std::size_t, std::shared_ptr<const SolveTable>>
      tables_;  // keyed by participant count k
};

}  // namespace crp::channel
