#include "predict/families.h"

#include <cmath>
#include <numeric>
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

info::SizeDistribution lift(const info::CondensedDistribution& condensed,
                            std::size_t n, RangePlacement placement) {
  if (condensed.size() != info::num_ranges(n)) {
    throw std::invalid_argument("condensed alphabet does not match n");
  }
  std::vector<double> probs(n + 1, 0.0);
  for (std::size_t i = 1; i <= condensed.size(); ++i) {
    const double q = condensed.prob(i);
    if (q == 0.0) continue;
    const std::size_t lo = info::range_min_size(i);
    const std::size_t hi = std::min(info::range_max_size(i), n);
    if (lo > hi) {
      throw std::invalid_argument("range extends beyond the size space");
    }
    switch (placement) {
      case RangePlacement::kLowEndpoint:
        probs[lo] += q;
        break;
      case RangePlacement::kHighEndpoint:
        probs[hi] += q;
        break;
      case RangePlacement::kUniform: {
        const double share = q / static_cast<double>(hi - lo + 1);
        for (std::size_t k = lo; k <= hi; ++k) probs[k] += share;
        break;
      }
    }
  }
  return info::SizeDistribution(std::move(probs));
}

info::CondensedDistribution uniform_over_ranges(std::size_t num_ranges,
                                                std::size_t m) {
  if (m == 0 || m > num_ranges) {
    throw std::invalid_argument("m must lie in [1, num_ranges]");
  }
  std::vector<double> weights(num_ranges, 0.0);
  for (std::size_t i = 0; i < m; ++i) weights[i] = 1.0;
  return normalized(std::move(weights));
}

info::CondensedDistribution geometric_ranges(std::size_t num_ranges,
                                             double decay) {
  if (decay <= 0.0 || decay > 1.0) {
    throw std::invalid_argument("decay must lie in (0, 1]");
  }
  std::vector<double> weights(num_ranges);
  double w = 1.0;
  for (std::size_t i = 0; i < num_ranges; ++i) {
    weights[i] = w;
    w *= decay;
  }
  return normalized(std::move(weights));
}

info::CondensedDistribution zipf_ranges(std::size_t num_ranges, double s) {
  if (s < 0.0) throw std::invalid_argument("zipf exponent must be >= 0");
  std::vector<double> weights(num_ranges);
  for (std::size_t i = 0; i < num_ranges; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
  }
  return normalized(std::move(weights));
}

info::CondensedDistribution bimodal_ranges(std::size_t num_ranges,
                                           std::size_t range_a,
                                           std::size_t range_b,
                                           double eps) {
  if (range_a == 0 || range_a > num_ranges || range_b == 0 ||
      range_b > num_ranges) {
    throw std::invalid_argument("ranges outside L(n)");
  }
  if (!channel::in_unit_interval(eps)) {
    throw std::invalid_argument("eps must lie in [0, 1]");
  }
  std::vector<double> weights(num_ranges, 0.0);
  weights[range_a - 1] += 1.0 - eps;
  weights[range_b - 1] += eps;
  return info::CondensedDistribution(std::move(weights));
}

info::CondensedDistribution mix(const info::CondensedDistribution& a,
                                const info::CondensedDistribution& b,
                                double lambda) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("mixture components must share an alphabet");
  }
  if (!channel::in_unit_interval(lambda)) {
    throw std::invalid_argument("lambda must lie in [0, 1]");
  }
  std::vector<double> weights(a.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    weights[j] = lambda * a.probabilities()[j] +
                 (1.0 - lambda) * b.probabilities()[j];
  }
  return info::CondensedDistribution(std::move(weights));
}

info::CondensedDistribution spiked_uniform(std::size_t num_ranges,
                                           double spike_mass) {
  if (num_ranges < 2) {
    throw std::invalid_argument("spiked source needs >= 2 symbols");
  }
  if (spike_mass <= 0.0 || spike_mass >= 1.0) {
    throw std::invalid_argument("spike mass must lie in (0, 1)");
  }
  std::vector<double> weights(num_ranges,
                              (1.0 - spike_mass) /
                                  static_cast<double>(num_ranges - 1));
  weights[0] = spike_mass;
  return info::CondensedDistribution(std::move(weights));
}

double expected_guesswork(const info::CondensedDistribution& source) {
  const auto order = source.ranges_by_likelihood();
  double guesswork = 0.0;
  for (std::size_t position = 0; position < order.size(); ++position) {
    guesswork += source.prob(order[position]) *
                 static_cast<double>(position + 1);
  }
  return guesswork;
}

info::SizeDistribution zipf_sizes(std::size_t n, double s) {
  if (n < 2) throw std::invalid_argument("network size must be >= 2");
  std::vector<double> probs(n + 1, 0.0);
  double total = 0.0;
  for (std::size_t k = 2; k <= n; ++k) {
    probs[k] = 1.0 / std::pow(static_cast<double>(k), s);
    total += probs[k];
  }
  for (std::size_t k = 2; k <= n; ++k) probs[k] /= total;
  return info::SizeDistribution(std::move(probs));
}

info::SizeDistribution log_normal_sizes(std::size_t n, double mu,
                                        double sigma) {
  if (n < 2) throw std::invalid_argument("network size must be >= 2");
  if (sigma <= 0.0) throw std::invalid_argument("sigma must be > 0");
  std::vector<double> probs(n + 1, 0.0);
  double total = 0.0;
  for (std::size_t k = 2; k <= n; ++k) {
    const double x = (std::log(static_cast<double>(k)) - mu) / sigma;
    probs[k] = std::exp(-0.5 * x * x) / static_cast<double>(k);
    total += probs[k];
  }
  for (std::size_t k = 2; k <= n; ++k) probs[k] /= total;
  return info::SizeDistribution(std::move(probs));
}

}  // namespace crp::predict
