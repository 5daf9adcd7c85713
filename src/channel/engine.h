// Columnar execution layer: engines that simulate (or analytically
// sample) a whole block of trials at once into structure-of-arrays
// result columns.
//
// The scalar simulators (channel/simulator.h, channel/batch.h) price a
// trial well below a microsecond, so per-trial dispatch — a
// std::function call, an RNG construction, a lock acquisition, a
// 40-byte RunResult — dominates Monte-Carlo sweeps. An Engine removes
// all of it: the harness hands run_many() a TrialBlock (seed, global
// trial range, size source, output columns) and the engine fills the
// columns in one pass. The batch engine draws its N uniforms first and
// then inverse-CDF searches them over the shared prefix-sum tables of
// BatchNoCdSampler, fetching one table snapshot per distinct
// participant count instead of taking the sampler's shared lock per
// trial; the exact simulators get adapter engines so every engine is
// driven through the same block interface.
//
/// Ownership: engines borrow their schedule/policy (which must outlive
/// them; BatchColumnarEngine owns its sampler) and never own a block's
/// columns — TrialBlock spans are caller-owned views.
///
/// Thread-safety: every Engine must be safe to call concurrently on
/// disjoint blocks; the engines here are (the analytic engine's table
/// cache is internally synchronized, the adapters keep no state between
/// calls — the CD adapter's memo lives for one run_many call).
///
/// Determinism: an engine derives trial t's randomness only from
/// (block.seed, block.first_trial + t) — derive_rng (seeded kSeedLanes
/// streams at a time by derive_rngs), or derive_fast_rng for the
/// analytic engine — so results are independent of block partition,
/// execution order, and thread count, and each engine matches its
/// scalar simulator called on that stream, trial by trial
/// (tests/columnar_engine_test.cpp pins this down). Anything an engine
/// shares between trials must leave every draw unchanged and must not
/// outlive the block. This is the contract docs/ARCHITECTURE.md
/// requires of every future engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "channel/batch.h"
#include "channel/protocol.h"
#include "channel/rng.h"
#include "channel/simulator.h"
#include "info/distribution.h"

namespace crp::channel {

/// Where a block's participant counts come from: per-trial draws from a
/// size distribution (when non-null) or a fixed k.
struct SizeSource {
  const info::SizeDistribution* distribution = nullptr;
  std::size_t fixed_k = 0;
};

/// One block of trials: the inputs an engine needs plus the two result
/// columns it fills — exactly what a round histogram folds. Columns are
/// caller-owned views (the harness hands each worker reusable scratch
/// columns, so results land with no per-trial copies); every engine
/// overwrites all `size()` elements.
struct TrialBlock {
  std::uint64_t seed = 0;         ///< master experiment seed
  std::size_t first_trial = 0;    ///< global index of the first trial
  std::size_t max_rounds = 1 << 20;
  SizeSource sizes;
  std::span<std::uint8_t> solved;   ///< 1 iff solved within budget
  std::span<std::uint64_t> rounds;  ///< solve round; budget if not

  std::size_t size() const { return solved.size(); }
};

/// A columnar trial executor. Implementations must be safe to call
/// concurrently on disjoint blocks (the thread-pool harness does).
class Engine {
 public:
  virtual ~Engine() = default;

  /// Fills every result column of `block`.
  virtual void run_many(TrialBlock& block) const = 0;
};

/// Validates a block's column lengths and size source; throws
/// std::invalid_argument on inconsistency. Every run_many()
/// implementation in the library calls this first.
void validate_trial_block(const TrialBlock& block);

/// A drawn-size block's trials grouped by support slot (counting
/// sort): order[start[s] .. start[s + 1]) lists, ascending, the trials
/// whose size draw uk[t] selected support slot s of `cumulative`
/// (SizeDistribution::support_cumulative), so a columnar engine can
/// answer each slot's trials as one contiguous run.
struct SlotGroups {
  std::vector<std::uint32_t> order;
  std::vector<std::size_t> start;
};
SlotGroups group_by_slot(std::span<const double> cumulative,
                         std::span<const double> uk);

/// Adapter for any per-trial simulation: per trial, one derived Rng
/// stream (derive_rng's stream, seeded by derive_rngs kSeedLanes trials
/// at a time) feeds the k draw (when sizes are drawn) and then
/// `run(k, rng, options)`, with options.max_rounds = block.max_rounds.
/// This is the block form of a per-trial callback — protocols the
/// library has no dedicated engine for (the advice protocols, ALOHA,
/// estimate-then-transmit pipelines) run through measure_blocks with
/// it. The std::function indirection is per trial, which the exact
/// simulators dwarf. `run` must be safe to call concurrently.
class AdapterEngine final : public Engine {
 public:
  using Run = std::function<RunResult(std::size_t k, Rng& rng,
                                      const SimOptions& options)>;

  explicit AdapterEngine(Run run) : run_(std::move(run)) {}

  void run_many(TrialBlock& block) const override;

 private:
  Run run_;
};

/// Analytic no-CD engine (the default fast path): one SplitMix64
/// stream per trial — one draw for the participant count when drawn,
/// one for the solve round — then one vectorizable pass mapping the
/// uniform column to log-survival targets, and one pass of branchless
/// inverse-CDF probes over the sampler's padded prefix-sum tables
/// (BatchNoCdSampler::probe_first_below). Table snapshots are cached
/// per support slot for the span of a block, so the per-trial path
/// performs no locking, hashing, or shared_ptr traffic.
class BatchColumnarEngine final : public Engine {
 public:
  explicit BatchColumnarEngine(const ProbabilitySchedule& schedule)
      : sampler_(schedule) {}

  void run_many(TrialBlock& block) const override;

  /// The underlying sampler (exposed for scalar interop and tests).
  const BatchNoCdSampler& sampler() const { return sampler_; }

 private:
  BatchNoCdSampler sampler_;
};

/// Adapter: drives the exact binomial simulator trial by trial with
/// one derived Rng stream per trial — AdapterEngine's stream
/// contract, bit-identical to a hand-written per-trial loop.
class BinomialColumnarEngine final : public Engine {
 public:
  /// The schedule must outlive the engine.
  explicit BinomialColumnarEngine(const ProbabilitySchedule& schedule)
      : schedule_(schedule) {}

  void run_many(TrialBlock& block) const override;

 private:
  const ProbabilitySchedule& schedule_;
};

/// Adapter for the exact per-player simulator (one coin per player per
/// round); same stream contract as BinomialColumnarEngine.
class PerPlayerColumnarEngine final : public Engine {
 public:
  /// The schedule must outlive the engine.
  explicit PerPlayerColumnarEngine(const ProbabilitySchedule& schedule)
      : schedule_(schedule) {}

  void run_many(TrialBlock& block) const override;

 private:
  const ProbabilitySchedule& schedule_;
};

/// Adapter for uniform collision-detection policies: the exact
/// per-round Markov simulation, driven through the block interface.
/// Each run_many call runs its block's trials through one CdRunMemo
/// (channel/simulator.h): the policy is asked once per distinct history
/// the block reaches (up to CdRunMemo::kMaxHistoryNodes of them) and
/// each Binomial's constants are built once per (k, p) (up to
/// BinomialParamCache::kMaxEntries), with every draw the same as the
/// per-trial run_uniform_cd loop. The memo is dropped with the block.
/// The analytic counterpart is channel/history_engine.h's
/// HistoryTreeEngine, which samples from a cached expansion of the
/// same chain (and continues with this adapter's per-round semantics
/// from every leaf the expansion leaves unresolved).
class CollisionPolicyColumnarEngine final : public Engine {
 public:
  /// The policy must outlive the engine.
  explicit CollisionPolicyColumnarEngine(const CollisionPolicy& policy)
      : policy_(policy) {}

  void run_many(TrialBlock& block) const override;

 private:
  const CollisionPolicy& policy_;
};

}  // namespace crp::channel
