// Discrete probability distributions over network sizes and their
// condensed (geometric-range) forms, as defined in Section 2.2 of
// "Contention Resolution with Predictions" (PODC 2021).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "channel/rng.h"

namespace crp::info {

/// Number of geometric ranges for a network of size `n`, i.e.
/// |L(n)| = ceil(log2 n). Requires n >= 2.
std::size_t num_ranges(std::size_t n);

/// The range index i in L(n) = {1, ..., ceil(log2 n)} associated with a
/// participant count k, where range i covers sizes (2^{i-1}, 2^i].
/// Requires 2 <= k. (k = 2 -> 1, k in {3,4} -> 2, k in {5..8} -> 3, ...)
std::size_t range_of_size(std::size_t k);

/// Smallest size covered by range i: 2^{i-1} + 1 (except range 1 -> 2).
std::size_t range_min_size(std::size_t i);

/// Largest size covered by range i: 2^i.
std::size_t range_max_size(std::size_t i);

class CondensedDistribution;

/// A probability distribution over the possible participant-set sizes
/// {2, ..., n} of a contention-resolution instance. This is the random
/// variable X (or the prediction Y) from the paper: the algorithm is
/// handed the full vector of size probabilities.
///
/// Invariant: probabilities are non-negative and sum to 1 (within
/// `kSumTolerance`); sizes 0 and 1 carry no mass (the paper assumes
/// k >= 2 WLOG, eliminating k = 1 with one extra all-transmit round).
class SizeDistribution {
 public:
  static constexpr double kSumTolerance = 1e-9;

  /// Constructs from `probs` where probs[k] = Pr(X = k). The vector is
  /// indexed by size, so probs.size() = n + 1 and probs[0] = probs[1] = 0.
  /// Throws std::invalid_argument on malformed input.
  explicit SizeDistribution(std::vector<double> probs);

  /// All probability mass on a single size k ("perfect prediction").
  static SizeDistribution point_mass(std::size_t n, std::size_t k);

  /// Uniform over {2, ..., n} ("no predictive power").
  static SizeDistribution uniform(std::size_t n);

  /// Maximum network size n.
  std::size_t n() const { return probs_.size() - 1; }

  /// Pr(X = k); zero for k outside [2, n].
  double prob(std::size_t k) const;

  /// Raw probability vector indexed by size (element k = Pr(X = k)).
  const std::vector<double>& probabilities() const { return probs_; }

  /// Shannon entropy H(X) in bits.
  double entropy() const;

  /// Condensed form c(X) over geometric ranges L(n) (Section 2.2).
  CondensedDistribution condense() const;

  /// Draws a size according to the distribution.
  std::size_t sample(channel::Rng& rng) const;

  /// Inverse-CDF sampling from an externally supplied uniform draw
  /// u in [0, 1) — lets callers bring their own engine (the batch
  /// measurement fast path uses channel::SplitMix64 streams).
  std::size_t sample_at(double u) const;

  /// Compact inverse-CDF view over the support only: parallel arrays of
  /// the positive-mass sizes (ascending) and their inclusive cumulative
  /// probabilities (last entry forced to 1.0 against float drift).
  /// sample_at(u) == support_sizes()[j] for the smallest j with
  /// support_cumulative()[j] >= u; columnar engines (channel/engine.h)
  /// search this table inline and cache per-support-slot state by j.
  std::span<const double> support_cumulative() const {
    return support_cum_;
  }
  std::span<const std::uint32_t> support_sizes() const {
    return support_sizes_;
  }

  /// Expected size E[X].
  double mean() const;

  /// Support size: number of sizes with positive probability.
  std::size_t support_size() const;

  /// Human-readable summary, e.g. "SizeDistribution(n=1024, H=3.21)".
  std::string describe() const;

 private:
  std::vector<double> probs_;  // probs_[k] = Pr(X = k)
  // Compact inverse-CDF table (see support_cumulative()): sampling
  // searches support_size() entries instead of n + 1, which keeps the
  // whole table cache-resident for the condensed/lifted distributions
  // the paper's sweeps use (~log n support points).
  std::vector<double> support_cum_;
  std::vector<std::uint32_t> support_sizes_;
};

/// The condensed random variable c(X) over the range alphabet
/// L(n) = {1, ..., ceil(log2 n)}: q_i = sum of Pr(X = j) over
/// j in (2^{i-1}, 2^i]. Knowing i such that k = Theta(2^i) is enough to
/// solve contention resolution in O(1) rounds, so all the paper's bounds
/// are stated against c(X) rather than X.
class CondensedDistribution {
 public:
  /// Constructs from range probabilities `q` (q[0] = Pr(range 1), ...).
  /// Throws std::invalid_argument unless q sums to 1 and is non-negative.
  explicit CondensedDistribution(std::vector<double> q);

  /// A condensed distribution putting all mass on range `i` (1-based).
  static CondensedDistribution point_mass(std::size_t num_ranges,
                                          std::size_t i);

  /// Uniform over all ranges — the maximum-entropy condensed source,
  /// for which the paper's bounds degrade to the classical worst case.
  static CondensedDistribution uniform(std::size_t num_ranges);

  /// Number of ranges |L(n)| = ceil(log2 n).
  std::size_t size() const { return q_.size(); }

  /// Pr(c(X) = i) for 1-based range index i in [1, size()].
  double prob(std::size_t i) const;

  /// Raw probabilities, 0-based (element j = Pr(c(X) = j + 1)).
  const std::vector<double>& probabilities() const { return q_; }

  /// Shannon entropy H(c(X)) in bits; this is the quantity all of the
  /// paper's prediction bounds are expressed in.
  double entropy() const;

  /// Kullback-Leibler divergence D_KL(*this || other) in bits. Returns
  /// +infinity if `other` lacks mass somewhere this distribution has it.
  /// Throws std::invalid_argument on alphabet-size mismatch.
  double kl_divergence(const CondensedDistribution& other) const;

  /// Ranges ordered by non-increasing probability (ties: smaller range
  /// first). This is the schedule ordering of the Section 2.5 algorithm.
  std::vector<std::size_t> ranges_by_likelihood() const;

  /// Draws a 1-based range index.
  std::size_t sample(channel::Rng& rng) const;

  std::string describe() const;

 private:
  std::vector<double> q_;          // q_[j] = Pr(c(X) = j + 1)
  std::vector<double> cumulative_;
};

}  // namespace crp::info
