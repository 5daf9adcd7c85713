#include "info/distribution.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>

#include "info/entropy.h"

namespace crp::info {

namespace {

void validate_probability_vector(std::span<const double> probs) {
  double sum = 0.0;
  for (double p : probs) {
    if (!(p >= 0.0) || !std::isfinite(p)) {
      throw std::invalid_argument("probabilities must be finite and >= 0");
    }
    sum += p;
  }
  if (std::abs(sum - 1.0) > SizeDistribution::kSumTolerance) {
    throw std::invalid_argument("probabilities must sum to 1, got " +
                                std::to_string(sum));
  }
}

std::vector<double> inclusive_prefix_sums(std::span<const double> probs) {
  std::vector<double> cumulative(probs.size());
  std::partial_sum(probs.begin(), probs.end(), cumulative.begin());
  if (!cumulative.empty()) cumulative.back() = 1.0;  // guard fp drift
  return cumulative;
}

std::size_t index_at(const std::vector<double>& cumulative, double u) {
  const auto it =
      std::lower_bound(cumulative.begin(), cumulative.end(), u);
  return static_cast<std::size_t>(std::distance(cumulative.begin(), it));
}

std::size_t sample_from_cumulative(const std::vector<double>& cumulative,
                                   channel::Rng& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  return index_at(cumulative, unit(rng));
}

}  // namespace

std::size_t num_ranges(std::size_t n) {
  if (n < 2) throw std::invalid_argument("network size must be >= 2");
  std::size_t ranges = 0;
  std::size_t top = 1;
  while (top < n) {
    top *= 2;
    ++ranges;
  }
  return std::max<std::size_t>(ranges, 1);
}

std::size_t range_of_size(std::size_t k) {
  if (k < 2) throw std::invalid_argument("participant count must be >= 2");
  std::size_t i = 1;
  std::size_t top = 2;  // range i covers (2^{i-1}, 2^i]
  while (top < k) {
    top *= 2;
    ++i;
  }
  return i;
}

std::size_t range_min_size(std::size_t i) {
  if (i == 0) throw std::invalid_argument("ranges are 1-based");
  return i == 1 ? 2 : (std::size_t{1} << (i - 1)) + 1;
}

std::size_t range_max_size(std::size_t i) {
  if (i == 0) throw std::invalid_argument("ranges are 1-based");
  return std::size_t{1} << i;
}

SizeDistribution::SizeDistribution(std::vector<double> probs)
    : probs_(std::move(probs)) {
  if (probs_.size() < 3) {
    throw std::invalid_argument("need probabilities for sizes up to n >= 2");
  }
  if (probs_[0] != 0.0 || probs_[1] != 0.0) {
    throw std::invalid_argument("sizes 0 and 1 must carry no mass (k >= 2)");
  }
  validate_probability_vector(probs_);
  // Compact inverse-CDF table: one (cumulative, size) entry per
  // positive-mass size. The running sum includes the zero entries, so
  // each stored cumulative equals the full-table prefix sum at that
  // size; the last entry is forced to 1.0 to absorb float drift.
  double sum = 0.0;
  for (std::size_t k = 2; k < probs_.size(); ++k) {
    if (probs_[k] > 0.0) {
      sum += probs_[k];
      support_cum_.push_back(sum);
      support_sizes_.push_back(static_cast<std::uint32_t>(k));
    }
  }
  support_cum_.back() = 1.0;
}

SizeDistribution SizeDistribution::point_mass(std::size_t n, std::size_t k) {
  if (k < 2 || k > n) throw std::invalid_argument("k must lie in [2, n]");
  std::vector<double> probs(n + 1, 0.0);
  probs[k] = 1.0;
  return SizeDistribution(std::move(probs));
}

SizeDistribution SizeDistribution::uniform(std::size_t n) {
  if (n < 2) throw std::invalid_argument("network size must be >= 2");
  std::vector<double> probs(n + 1, 0.0);
  const double p = 1.0 / static_cast<double>(n - 1);
  for (std::size_t k = 2; k <= n; ++k) probs[k] = p;
  return SizeDistribution(std::move(probs));
}

double SizeDistribution::prob(std::size_t k) const {
  return k < probs_.size() ? probs_[k] : 0.0;
}

double SizeDistribution::entropy() const { return shannon_entropy(probs_); }

CondensedDistribution SizeDistribution::condense() const {
  const std::size_t ranges = num_ranges(n());
  std::vector<double> q(ranges, 0.0);
  for (std::size_t k = 2; k < probs_.size(); ++k) {
    if (probs_[k] > 0.0) q[range_of_size(k) - 1] += probs_[k];
  }
  // Guard against floating-point drift: renormalize the tiny residue.
  const double sum = std::accumulate(q.begin(), q.end(), 0.0);
  for (double& v : q) v /= sum;
  return CondensedDistribution(std::move(q));
}

std::size_t SizeDistribution::sample(channel::Rng& rng) const {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  return sample_at(unit(rng));
}

std::size_t SizeDistribution::sample_at(double u) const {
  if (!(u >= 0.0 && u < 1.0)) {
    throw std::invalid_argument("uniform draw outside [0, 1)");
  }
  const std::size_t j = index_at(support_cum_, u);
  return support_sizes_[j];
}

double SizeDistribution::mean() const {
  double m = 0.0;
  for (std::size_t k = 2; k < probs_.size(); ++k) {
    m += static_cast<double>(k) * probs_[k];
  }
  return m;
}

std::size_t SizeDistribution::support_size() const {
  return static_cast<std::size_t>(
      std::count_if(probs_.begin(), probs_.end(),
                    [](double p) { return p > 0.0; }));
}

std::string SizeDistribution::describe() const {
  std::ostringstream out;
  out << "SizeDistribution(n=" << n() << ", support=" << support_size()
      << ", H=" << entropy() << ", H(c)=" << condense().entropy() << ")";
  return out.str();
}

CondensedDistribution::CondensedDistribution(std::vector<double> q)
    : q_(std::move(q)) {
  if (q_.empty()) {
    throw std::invalid_argument("condensed distribution needs >= 1 range");
  }
  validate_probability_vector(q_);
  cumulative_ = inclusive_prefix_sums(q_);
}

CondensedDistribution CondensedDistribution::point_mass(
    std::size_t num_ranges, std::size_t i) {
  if (i == 0 || i > num_ranges) {
    throw std::invalid_argument("range index out of bounds");
  }
  std::vector<double> q(num_ranges, 0.0);
  q[i - 1] = 1.0;
  return CondensedDistribution(std::move(q));
}

CondensedDistribution CondensedDistribution::uniform(std::size_t num_ranges) {
  if (num_ranges == 0) {
    throw std::invalid_argument("condensed distribution needs >= 1 range");
  }
  std::vector<double> q(num_ranges, 1.0 / static_cast<double>(num_ranges));
  return CondensedDistribution(std::move(q));
}

double CondensedDistribution::prob(std::size_t i) const {
  if (i == 0 || i > q_.size()) return 0.0;
  return q_[i - 1];
}

double CondensedDistribution::entropy() const { return shannon_entropy(q_); }

double CondensedDistribution::kl_divergence(
    const CondensedDistribution& other) const {
  return crp::info::kl_divergence(q_, other.q_);
}

std::vector<std::size_t> CondensedDistribution::ranges_by_likelihood() const {
  std::vector<std::size_t> order(q_.size());
  std::iota(order.begin(), order.end(), std::size_t{1});
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     if (q_[a - 1] != q_[b - 1]) return q_[a - 1] > q_[b - 1];
                     return a < b;
                   });
  return order;
}

std::size_t CondensedDistribution::sample(channel::Rng& rng) const {
  return sample_from_cumulative(cumulative_, rng) + 1;
}

std::string CondensedDistribution::describe() const {
  std::ostringstream out;
  out << "CondensedDistribution(ranges=" << size() << ", H=" << entropy()
      << ")";
  return out.str();
}

}  // namespace crp::info
