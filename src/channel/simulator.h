// Discrete-round simulation engines for the shared channel.
//
// Two engines are provided:
//  * the *binomial* engine, exact for uniform algorithms: when k
//    participants each transmit i.i.d. with probability p, the number
//    of transmitters is Binomial(k, p), so one binomial draw simulates
//    the whole round in O(1);
//  * the *per-player* engine, which tracks individual identities and is
//    required for the deterministic advice protocols of Section 3.
// tests/channel_test.cc cross-validates the two engines statistically.
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <span>
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
  /// Total transmissions across all rounds — the energy proxy used by
  /// the duty-cycled examples (each transmission costs one radio-on).
  std::size_t transmissions = 0;
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

/// Runs a uniform collision-detection algorithm with k participants.
/// The policy sees the growing collision history (bit = collision?).
RunResult run_uniform_cd(const CollisionPolicy& policy, std::size_t k,
                         Rng& rng,
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

/// Binomial(k, p) transmitter counts for a fixed k, reusing the
/// configured std::binomial_distribution across calls with the same p.
/// Cycling schedules revisit a small set of probabilities, so the
/// per-round distribution construction (and re-validation of p) is paid
/// once per distinct probability instead of once per round.
class TransmitterSampler {
 public:
  explicit TransmitterSampler(std::size_t k) : k_(k) {}

  /// Number of transmitters among the k players when each transmits
  /// independently with probability p.
  std::size_t operator()(double p, Rng& rng);

 private:
  /// Adversarial CD policies may emit unboundedly many distinct
  /// probabilities; past this many the sampler stops caching.
  static constexpr std::size_t kMaxCachedProbabilities = 64;

  std::size_t k_;
  std::vector<std::pair<double, std::binomial_distribution<std::size_t>>>
      cache_;
};

/// Maps a transmitter count to channel feedback.
Feedback feedback_for(std::size_t transmitters);

}  // namespace crp::channel
