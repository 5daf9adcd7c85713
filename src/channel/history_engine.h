// Cached history-tree sampler for collision-detection policies: the
// analytic fast path CD runs were missing.
//
// CD executions are history-dependent Markov chains, so — unlike the
// no-CD batch engine — a single inverse-CDF over per-round success
// probabilities does not exist in closed form. But the chain over
// collision histories can be *expanded once* per (policy, k, horizon)
// (harness/history_tree.h, the same enumeration exact_profile_cd runs)
// and trials then *sampled from the expansion* instead of simulated.
// The expansion partitions all probability mass into per-round solve
// mass and leaves (pruned branches and the frontier at the depth cap),
// so every trial takes one path:
//
//  * draw one uniform u. If u < solved mass, the dispatched probe_cdf
//    kernel answers the solve round over the padded solve CDF —
//    O(log horizon) per trial, the shape of the no-CD batch engine;
//  * otherwise u - solved mass picks a leaf by a scalar upper_bound
//    over the leaf CDF (mass order), and the trial folds that leaf's
//    packed history into the policy state once (at most
//    harness::kMaxPackedDepth next_state steps) and *continues* it by
//    the exact per-round simulation the CollisionPolicyColumnarEngine
//    adapter runs — one probability_at and one next_state per round —
//    on the rest of its own stream. A frontier leaf under a budget
//    equal to the horizon continues for zero rounds: unsolved at the
//    budget.
//
// Conditioned on reaching a leaf, the continuation is the exact chain
// from that history, so the sampled distribution of (solved, rounds)
// is exact whatever prune_below and depth_cap are; they only move work
// between the one-off expansion and per-trial continuation.
// tests/distributional_gate_test.cpp holds every configuration to the
// exact law, including a coarse prune where continuation carries real
// mass. A policy whose tree exceeds the node cap (expansion truncated)
// is delegated entirely to per-round simulation (Mode::kSimulate), so
// the engine never costs more than a bounded expansion attempt over
// the adapter it replaces.
//
// Ownership: the engine borrows the policy (it must outlive the
// engine) and owns its tree cache.
//
// Thread-safety: run_many is safe to call concurrently on disjoint
// blocks. The per-(k, horizon) tree cache is single-flight: the first
// caller to need a key claims it and expands it outside the lock (so
// an expansion never serializes cached reads or other keys' builds),
// and no other caller ever expands that key. Ready trees are read
// under a shared lock. A block samples every slot whose tree is ready
// or that it can claim, defers the slots whose trees another worker
// is still expanding, and waits for those only at the end. An
// expansion that throws is cached too: every later lookup of the key
// rethrows it.
//
// Determinism: trial t draws only from the SplitMix64 stream derived
// from (block.seed, block.first_trial + t): the size draw when sizes
// are drawn, then u, then the continuation's draws. The sampling mode
// is a pure function of (policy, k, budget, options), never of
// scheduling, so results are independent of block partition and
// thread count — but, like the no-CD batch engine, the engine
// consumes randomness differently from the simulated path, so
// individual trials at a fixed seed differ from
// CollisionPolicyColumnarEngine while the distributions agree.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <shared_mutex>
#include <utility>

#include "channel/engine.h"
#include "channel/protocol.h"
#include "harness/history_tree.h"

namespace crp::channel {

/// Analytic/sampling engine for uniform CD policies. Bind one per
/// policy and reuse it across blocks (and threads) so the per-(k,
/// budget) expansions amortize.
class HistoryTreeEngine final : public Engine {
 public:
  struct Options {
    /// Expansion depth cap: trees are expanded to
    /// min(depth_cap, block.max_rounds) rounds; trials alive at the
    /// cap continue by simulation. Leaf histories are packed into one
    /// word, so at most harness::kMaxPackedDepth (63); the constructor
    /// throws std::invalid_argument above that.
    std::size_t depth_cap = 48;
    /// Reach-probability prune threshold for the expansion — a speed
    /// setting only: the sampled distribution is exact for every
    /// value. A freely branching tree expands on the order of
    /// (surviving mass) / prune_below nodes, so a finer threshold
    /// costs expansion time and memory, a coarser one sends more
    /// trials through per-round continuation. The default was chosen
    /// by measurement on the Table 1 and fanout grids (CHANGES.md).
    double prune_below = 3e-5;
    /// Node cap per expansion; a truncated expansion delegates the
    /// (k, budget) key to per-round simulation.
    std::size_t max_nodes = 1 << 20;
  };

  /// The policy must outlive the engine. (Two overloads rather than a
  /// defaulted argument: a nested aggregate's member initializers are
  /// not usable as a default argument inside the enclosing class.)
  /// Throws std::invalid_argument when options.depth_cap exceeds
  /// harness::kMaxPackedDepth.
  HistoryTreeEngine(const CollisionPolicy& policy, Options options);
  explicit HistoryTreeEngine(const CollisionPolicy& policy)
      : HistoryTreeEngine(policy, Options()) {}

  void run_many(TrialBlock& block) const override;

  /// How a (k, budget) key is sampled (exposed for tests).
  enum class Mode {
    kInverseCdf,  ///< solve CDF, else leaf CDF + continuation
    kWalk,        ///< never returned; kept for callers that switch on it
    kSimulate,    ///< expansion truncated: pure per-round simulation
  };

  /// The cached expansion (building it if needed) and the sampling
  /// mode for `k` under `max_rounds` (exposed for tests; run_many uses
  /// the same lookup). Waits while another caller is expanding the
  /// key, and rethrows the error of an expansion that threw.
  std::pair<std::shared_ptr<const harness::HistoryTree>, Mode> tree_for(
      std::size_t k, std::size_t max_rounds) const;

  /// The number of expansions this engine has run: one per distinct
  /// (k, horizon) it was asked for, whatever the thread count.
  std::size_t expansions() const { return expansions_.load(); }

 private:
  /// A cache entry: claimed (not ready) while its expansion runs, then
  /// ready, and never changed again, with a tree or the expansion's
  /// error.
  struct Entry {
    bool ready = false;
    std::shared_ptr<const harness::HistoryTree> tree;
    std::exception_ptr error;

    /// The tree; rethrows the expansion's error instead.
    const harness::HistoryTree& get() const;
  };

  /// The ready entry for (k, horizon), expanding the key first when
  /// this call is the one to claim it. A key another caller is still
  /// expanding is waited for when `wait` is set, and otherwise answered
  /// with null. Entries are never erased, so the pointer stays valid
  /// for the engine's lifetime and needs no lock to read.
  const Entry* lookup(std::size_t k, std::size_t horizon, bool wait) const;
  std::size_t horizon_for(std::size_t max_rounds) const;

  const CollisionPolicy& policy_;
  Options options_;

  mutable std::shared_mutex mutex_;
  /// Notified each time a claimed entry is made ready (under mutex_).
  mutable std::condition_variable_any expanded_;
  /// Keyed by (k, expansion horizon); trees for budgets above the
  /// depth cap share one expansion.
  mutable std::map<std::pair<std::size_t, std::size_t>, Entry> trees_;
  mutable std::atomic<std::size_t> expansions_{0};
};

/// Sweep-scoped engine cache: one shared HistoryTreeEngine per
/// *policy identity* (the CollisionPolicy address), each engine in
/// turn caching its expansions per (k, horizon) — so a grid whose
/// cells share a CD policy expands every (policy, k, horizon) tree
/// exactly once for the whole sweep instead of once per cell.
/// run_sweep() holds one cache per call, journaled shards included,
/// and threads it to the CD helpers via MeasureOptions::tree_cache;
/// per-call construction stays the non-sweep default (null tree_cache).
///
/// Ownership: the cache borrows its policies (a keyed policy must
/// outlive the cache, which sweep cells guarantee — SweepAlgorithm
/// already borrows) and owns its engines; engine_for hands out
/// shared_ptrs that outlive the cache.
///
/// Thread-safety: engine_for is safe from any number of concurrent
/// sweep cells (shared mutex; double-checked insert), and the engines
/// it returns are themselves concurrency-safe per their contract.
///
/// Determinism: an engine's measurements are a pure function of
/// (policy, options, seeds) — never of cache hits — so cached and
/// per-call engines produce bit-identical results
/// (tests/history_tree_engine_test.cpp pins this).
class HistoryTreeCache {
 public:
  explicit HistoryTreeCache(HistoryTreeEngine::Options options)
      : options_(options) {}
  HistoryTreeCache() : HistoryTreeCache(HistoryTreeEngine::Options()) {}

  /// The shared engine for `policy`, constructing it on first use.
  std::shared_ptr<const HistoryTreeEngine> engine_for(
      const CollisionPolicy& policy) const;

  /// Number of distinct policies cached so far.
  std::size_t size() const;

 private:
  HistoryTreeEngine::Options options_;
  mutable std::shared_mutex mutex_;
  mutable std::map<const CollisionPolicy*,
                   std::shared_ptr<const HistoryTreeEngine>>
      engines_;
};

}  // namespace crp::channel
