// Protocol interfaces for the synchronous multiple-access channel model
// of the paper (Section 1.1 / 2.1).
//
// Uniform algorithms -- the class all of Section 2 studies -- are either
// a fixed probability schedule (no collision detection) or a map from
// collision histories to probabilities (collision detection). Section 3
// additionally studies deterministic algorithms whose behaviour depends
// on player identity and on b bits of advice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace crp::channel {

/// What the channel reports for one round.
enum class Feedback {
  kSilence,    ///< zero transmitters
  kSuccess,    ///< exactly one transmitter: contention resolved
  kCollision,  ///< two or more transmitters; message lost
};

/// Renders "silence" / "success" / "collision".
std::string to_string(Feedback feedback);

/// Advice strings and collision histories are raw bit vectors.
using BitString = std::vector<bool>;

/// A uniform algorithm for the no-collision-detection channel: a
/// predetermined sequence p_1, p_2, ... where in round r every
/// participant independently transmits with probability p_{r+1}
/// (rounds are 0-based in code, 1-based in the paper).
class ProbabilitySchedule {
 public:
  virtual ~ProbabilitySchedule() = default;

  /// Transmission probability for 0-based round index; must be in [0, 1].
  virtual double probability(std::size_t round) const = 0;

  /// Optional cycling hint: when positive, the schedule promises
  /// probability(r) == probability(r % period()) for every round r, so
  /// analysis engines (harness/exact.h, channel/batch.h) may tabulate a
  /// single period and index modulo instead of calling the virtual
  /// probability() once per round per execution. Zero (the default)
  /// promises no structure.
  virtual std::size_t period() const { return 0; }

  /// Diagnostic name, e.g. "decay" or "likelihood-ordered".
  virtual std::string name() const = 0;
};

/// A uniform algorithm for the collision-detection channel: a function
/// from the binary collision history (bit r = true iff round r had a
/// collision; successes terminate the execution so never appear) to the
/// probability every participant uses next round. This is exactly the
/// binary-tree-of-probabilities view used by the Section 2.4 lower
/// bound.
///
/// Every policy is a finite automaton over that history, and the
/// automaton is the interface: initial_state() is the state before
/// round 0, next_state(s, collided) the state after a round that
/// started in s, and probability_at(s) the probability used in a round
/// that starts in s. Each is O(1), so a consumer that follows one
/// execution (the simulator, the history-tree expansion and its leaf
/// continuation) steps its state once per round instead of handing the
/// policy a growing history. probability(history) folds next_state
/// over a whole history, for callers that only hold histories.
///
/// A State is an opaque word the policy packs its own fields into,
/// kept below 2^63 so a wrapper can add states of its own by shifting
/// the inner policy's.
///
/// Thread-safety: the three primitives are const and keep no hidden
/// state, so one policy serves any number of threads.
class CollisionPolicy {
 public:
  using State = std::uint64_t;

  virtual ~CollisionPolicy() = default;

  /// The state before round 0 (the empty history).
  virtual State initial_state() const = 0;
  /// The state after a round that started in `state` ended in silence
  /// (collided == false) or a collision (collided == true).
  virtual State next_state(State state, bool collided) const = 0;
  /// Probability for a round that starts in `state`; must be in [0, 1].
  virtual double probability_at(State state) const = 0;

  /// Probability for the round following `history`:
  /// probability_at of next_state folded over it from initial_state().
  double probability(const BitString& history) const;

  virtual std::string name() const = 0;
};

/// A deterministic algorithm (Section 3): each player decides from its
/// identity, the shared advice string, the round number, and the
/// feedback it has observed so far whether to transmit. On a channel
/// without collision detection the observable history is all-silence
/// until the execution ends, so implementations must not rely on it
/// there (the simulator enforces this by passing kSilence entries).
class DeterministicProtocol {
 public:
  virtual ~DeterministicProtocol() = default;

  /// True iff player `player_id` transmits in 0-based `round`.
  /// `history` holds per-round feedback for rounds [0, round).
  virtual bool transmits(std::size_t player_id, const BitString& advice,
                         std::size_t round,
                         std::span<const Feedback> history) const = 0;

  virtual std::string name() const = 0;
};

}  // namespace crp::channel
