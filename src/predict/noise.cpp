#include "predict/noise.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>

#include "channel/unit_interval.h"

namespace crp::predict {

namespace {

info::CondensedDistribution normalized(std::vector<double> weights) {
  const double total =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) {
    throw std::invalid_argument("weights must have positive total mass");
  }
  for (double& w : weights) w /= total;
  return info::CondensedDistribution(std::move(weights));
}

}  // namespace

info::CondensedDistribution multiplicative_jitter(
    const info::CondensedDistribution& truth, double factor,
    channel::Rng& rng) {
  if (factor < 1.0) {
    throw std::invalid_argument("jitter factor must be >= 1");
  }
  std::uniform_real_distribution<double> unit(1.0 / factor, factor);
  std::vector<double> weights(truth.size());
  for (std::size_t j = 0; j < truth.size(); ++j) {
    weights[j] = truth.probabilities()[j] * unit(rng);
  }
  return normalized(std::move(weights));
}

info::CondensedDistribution smooth_with_uniform(
    const info::CondensedDistribution& truth, double eps) {
  if (!channel::in_unit_interval(eps)) {
    throw std::invalid_argument("eps must lie in [0, 1]");
  }
  const double u = 1.0 / static_cast<double>(truth.size());
  std::vector<double> weights(truth.size());
  for (std::size_t j = 0; j < truth.size(); ++j) {
    weights[j] = (1.0 - eps) * truth.probabilities()[j] + eps * u;
  }
  return info::CondensedDistribution(std::move(weights));
}

info::CondensedDistribution temperature_scale(
    const info::CondensedDistribution& truth, double gamma) {
  if (gamma <= 0.0) throw std::invalid_argument("gamma must be > 0");
  std::vector<double> weights(truth.size());
  for (std::size_t j = 0; j < truth.size(); ++j) {
    const double q = truth.probabilities()[j];
    weights[j] = q > 0.0 ? std::pow(q, gamma) : 0.0;
  }
  return normalized(std::move(weights));
}

info::CondensedDistribution reverse_ranges(
    const info::CondensedDistribution& truth) {
  std::vector<double> weights(truth.probabilities());
  std::reverse(weights.begin(), weights.end());
  return info::CondensedDistribution(std::move(weights));
}

info::CondensedDistribution shift_ranges(
    const info::CondensedDistribution& truth, std::size_t offset) {
  std::vector<double> weights(truth.size());
  for (std::size_t j = 0; j < truth.size(); ++j) {
    weights[(j + offset) % truth.size()] = truth.probabilities()[j];
  }
  return info::CondensedDistribution(std::move(weights));
}

info::CondensedDistribution empirical_predictor(
    const info::SizeDistribution& truth, std::size_t samples,
    double laplace_alpha, channel::Rng& rng) {
  if (laplace_alpha <= 0.0) {
    throw std::invalid_argument(
        "laplace_alpha must be > 0 so the prediction has full support");
  }
  const std::size_t ranges = info::num_ranges(truth.n());
  std::vector<double> counts(ranges, laplace_alpha);
  for (std::size_t s = 0; s < samples; ++s) {
    const std::size_t k = truth.sample(rng);
    counts[info::range_of_size(k) - 1] += 1.0;
  }
  return normalized(std::move(counts));
}

}  // namespace crp::predict
