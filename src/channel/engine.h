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

/// An engine's working columns for one block, owned by the caller and
/// reused block after block, so a worker's blocks allocate nothing once
/// the vectors have grown to the block size. Engines size what they
/// use and overwrite it; nothing in here carries from one block to the
/// next, so results never depend on which blocks a scratch saw before.
struct BlockScratch {
  std::vector<double> u;              ///< pass-1 solve draws
  std::vector<double> uk;             ///< pass-1 size draws
  std::vector<std::uint32_t> slot;    ///< each trial's support slot
  std::vector<std::uint32_t> fill;    ///< counting-sort counters
  std::vector<std::uint32_t> order;   ///< trials in slot order
  std::vector<std::size_t> start;     ///< each slot's first order index
  std::vector<double> grouped;        ///< solve draws in slot order
  std::vector<std::uint64_t> found;   ///< probe results in slot order
  std::vector<std::size_t> deferred;  ///< slots waiting for a tree
};

/// The first `n` elements of a scratch vector, grown (never shrunk) to
/// hold them; their values are whatever the vector held.
template <typename T>
std::span<T> scratch_span(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return std::span<T>(v.data(), n);
}

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
  /// Working columns the engine may use (measure_cells passes one per
  /// worker); null makes the engine allocate its own for the call.
  BlockScratch* scratch = nullptr;

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

/// Groups a drawn-size block's trials by support slot in one counting
/// sort: the slot_lookup kernel maps each size draw uk[t] to its slot
/// of `cumulative` (SizeDistribution::support_cumulative), and then
/// scratch.order[start[s] .. start[s + 1]) lists, ascending, the
/// trials of slot s, and scratch.grouped[j] = u[order[j]] carries each
/// trial's solve draw into slot order, so a columnar engine answers
/// each slot's draws as one contiguous run. Fills scratch.slot, fill,
/// order, start (cumulative.size() + 1 entries) and grouped.
void group_by_slot(std::span<const double> cumulative,
                   std::span<const double> uk, std::span<const double> u,
                   BlockScratch& scratch);

/// Adapter for any per-trial simulation: per trial, one derived Rng
/// stream (derive_rng's stream, seeded by derive_rngs kSeedLanes trials
/// at a time) feeds the k draw (when sizes are drawn) and then
/// `run(k, rng, options)`, with options.max_rounds = block.max_rounds.
/// This is the block form of a per-trial callback — protocols the
/// library has no dedicated engine for (the advice protocols, ALOHA,
/// binary exponential backoff) run through measure_blocks with it. The std::function indirection is per trial, which the exact
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
/// Each trial steps the policy's state once per round, and each
/// run_many call runs its block's trials through one CdRunMemo
/// (channel/simulator.h), so each Binomial's constants are built once
/// per (k, p) (up to BinomialParamCache::kMaxEntries), with every draw
/// the same as the per-trial run_uniform_cd loop. The memo is dropped
/// with the block.
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
