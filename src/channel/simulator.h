// Discrete-round simulation engines for the shared channel.
//
// Two engines are provided:
//  * the *binomial* engine, exact for uniform algorithms: when k
//    participants each transmit i.i.d. with probability p, the number
//    of transmitters is Binomial(k, p), so one binomial draw simulates
//    the whole round in O(1);
//  * the *per-player* engine, which tracks individual identities and is
//    required for the deterministic advice protocols of Section 3.
// tests/channel_test.cpp cross-validates the two engines statistically.
//
// The collision-detection loop (run_uniform_cd) steps the policy's
// state once per round (channel/protocol.h) and takes a CdRunMemo:
// work that a block of trials of one policy can share without moving a
// single draw — the precomputed Binomial constants per (k, p). A fresh
// memo per call is the plain per-round simulation.
#pragma once

#include <optional>
#include <random>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "channel/protocol.h"
#include "channel/rng.h"

namespace crp::channel {

/// Outcome of simulating one contention-resolution execution.
struct RunResult {
  /// True iff some round had exactly one transmitter within the budget.
  bool solved = false;
  /// 1-based round of success; equals the round budget when unsolved.
  std::size_t rounds = 0;
  /// Winning player's id (per-player engine only; nullopt otherwise).
  std::optional<std::size_t> winner;
};

/// Per-round record for diagnostics and the example programs.
struct RoundRecord {
  double probability = 0.0;        ///< uniform engines; 0 for deterministic
  std::size_t transmitters = 0;
  Feedback feedback = Feedback::kSilence;
};

using ExecutionTrace = std::vector<RoundRecord>;

/// Simulation knobs shared by all engines.
struct SimOptions {
  /// Hard stop: executions longer than this are reported unsolved.
  std::size_t max_rounds = 1 << 20;
  /// When non-null, each simulated round is appended here.
  ExecutionTrace* trace = nullptr;
};

/// Runs a uniform no-collision-detection algorithm with k participants.
/// Requires k >= 1 (with k == 1 every positive-probability round can
/// succeed immediately, matching the "extra all-transmit round" the
/// paper uses to dispose of k = 1).
RunResult run_uniform_no_cd(const ProbabilitySchedule& schedule,
                            std::size_t k, Rng& rng,
                            const SimOptions& options = {});

/// Runs a uniform collision-detection algorithm with k participants,
/// stepping the policy's state with each round's collision bit. Same
/// as the CdRunMemo overload with a fresh memo.
RunResult run_uniform_cd(const CollisionPolicy& policy, std::size_t k,
                         Rng& rng,
                         const SimOptions& options = {});

class CdRunMemo;

/// The one CD round loop: runs the memo's policy with k participants,
/// reusing and extending the memo. Every draw, result and trace record
/// is the one a fresh memo gives.
RunResult run_uniform_cd(CdRunMemo& memo, std::size_t k, Rng& rng,
                         const SimOptions& options = {});

/// Runs a deterministic protocol over an explicit participant set.
/// `collision_detection` selects what the players observe: with it off,
/// players are fed kSilence for every past round (the information-less
/// setting the Theorem 3.4 simulation argument relies on); with it on,
/// they see silence vs collision truthfully.
RunResult run_deterministic(const DeterministicProtocol& protocol,
                            const BitString& advice,
                            std::span<const std::size_t> participants,
                            bool collision_detection,
                            const SimOptions& options = {});

/// Per-player engine for *uniform* algorithms: every participant flips
/// its own coin. Statistically identical to the binomial engine; used
/// to cross-validate it and by examples that want per-player traces.
RunResult run_uniform_no_cd_per_player(const ProbabilitySchedule& schedule,
                                       std::size_t k, Rng& rng,
                                       const SimOptions& options = {});

/// Throws std::invalid_argument unless p lies in [0, 1]. The one
/// validation path shared by every engine (binomial, per-player, and
/// the analytic fast path in channel/batch.h).
void validate_probability(double p);

/// Samples the number of transmitters among k players transmitting
/// independently with probability p (exposed for tests). Validates p
/// and constructs a fresh distribution on every call; the simulation
/// loops use TransmitterSampler instead.
std::size_t sample_transmitters(std::size_t k, double p,
                                Rng& rng);

using Binomial = std::binomial_distribution<std::size_t>;

/// The precomputed constants of Binomial(k, p) per (k, p): building a
/// Binomial's param_type costs about 100 ns of logarithms and square
/// roots, a copy of it a few. A Binomial built from a cached param_type
/// equals a freshly constructed one (std keeps no other state but the
/// normal sampler's saved draw, which starts empty either way).
class BinomialParamCache {
 public:
  /// Entries kept; past this many, distribution() builds each one
  /// fresh.
  static constexpr std::size_t kMaxEntries = 1 << 10;

  /// A fresh Binomial(k, p); p must lie in (0, 1).
  Binomial distribution(std::size_t k, double p);

  std::size_t size() const { return params_.size(); }

 private:
  struct KeyHash {
    std::size_t operator()(const std::pair<std::size_t, double>& key) const;
  };
  std::unordered_map<std::pair<std::size_t, double>, Binomial::param_type,
                     KeyHash>
      params_;
};

/// Binomial(k, p) transmitter counts for a fixed k, reusing the
/// configured Binomial across calls with the same p. Cycling schedules
/// revisit a small set of probabilities, so the per-round distribution
/// construction (and re-validation of p) is paid once per distinct
/// probability instead of once per round. After reset() with a
/// BinomialParamCache the construction itself copies cached constants.
class TransmitterSampler {
 public:
  explicit TransmitterSampler(std::size_t k) : k_(k) {}

  /// Number of transmitters among the k players when each transmits
  /// independently with probability p.
  std::size_t operator()(double p, Rng& rng);

  /// Starts over with k participants, drawing exactly as a fresh
  /// sampler would, and keeps the storage of the distributions it
  /// drops. `params` (optional) must outlive the next reset.
  void reset(std::size_t k, BinomialParamCache* params) {
    k_ = k;
    params_ = params;
    cache_.clear();
  }

 private:
  /// Adversarial CD policies may emit unboundedly many distinct
  /// probabilities; past this many the sampler stops caching.
  static constexpr std::size_t kMaxCachedProbabilities = 64;

  Binomial make(double p) const {
    return params_ != nullptr ? params_->distribution(k_, p)
                              : Binomial(k_, p);
  }

  std::size_t k_;
  BinomialParamCache* params_ = nullptr;
  std::vector<std::pair<double, Binomial>> cache_;
};

/// What run_uniform_cd can share across the trials of one policy — in
/// the columnar engine, across one block (never across blocks, so no
/// result depends on the block partition). Not thread-safe: one memo
/// per block, on the block's worker.
///  * A BinomialParamCache, bounded by its kMaxEntries.
///  * The per-trial TransmitterSampler, whose storage trials reuse.
/// The cache pays off only across trials, so a memo's first trial runs
/// without it: a fresh memo per call does the plain loop's work (one
/// Binomial built per distinct p).
class CdRunMemo {
 public:
  /// The policy must outlive the memo.
  explicit CdRunMemo(const CollisionPolicy& policy)
      : policy_(policy), sample_(0) {}

  CdRunMemo(const CdRunMemo&) = delete;  // sample_ points into params_
  CdRunMemo& operator=(const CdRunMemo&) = delete;

  /// Cached Binomial parameter sets.
  std::size_t binomial_params() const { return params_.size(); }

 private:
  friend RunResult run_uniform_cd(CdRunMemo& memo, std::size_t k, Rng& rng,
                                  const SimOptions& options);

  /// Starts a trial with k participants: resets the sampler, without
  /// the parameter cache on the memo's first trial.
  void begin_trial(std::size_t k);

  const CollisionPolicy& policy_;
  bool warm_ = false;  // a trial has run
  BinomialParamCache params_;
  TransmitterSampler sample_;
};

/// Maps a transmitter count to channel feedback.
Feedback feedback_for(std::size_t transmitters);

}  // namespace crp::channel
