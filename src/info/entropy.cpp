#include "info/entropy.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "channel/unit_interval.h"

namespace crp::info {

double shannon_entropy(std::span<const double> p) {
  double h = 0.0;
  for (double pi : p) {
    if (pi > 0.0) h -= pi * std::log2(pi);
  }
  return h;
}

double kl_divergence(std::span<const double> p, std::span<const double> q) {
  if (p.size() != q.size()) {
    throw std::invalid_argument("KL divergence needs equal alphabet sizes");
  }
  double d = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] > 0.0) {
      if (q[i] <= 0.0) return std::numeric_limits<double>::infinity();
      d += p[i] * std::log2(p[i] / q[i]);
    }
  }
  // Floating-point cancellation can push a true-zero divergence slightly
  // negative; clamp so D_KL(p||p) == 0 holds exactly for callers.
  return d < 0.0 ? 0.0 : d;
}

double cross_entropy(std::span<const double> p, std::span<const double> q) {
  if (p.size() != q.size()) {
    throw std::invalid_argument("cross entropy needs equal alphabet sizes");
  }
  double h = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] > 0.0) {
      if (q[i] <= 0.0) return std::numeric_limits<double>::infinity();
      h -= p[i] * std::log2(q[i]);
    }
  }
  return h;
}

double binary_entropy(double x) {
  if (!channel::in_unit_interval(x)) {
    throw std::invalid_argument("binary entropy domain is [0, 1]");
  }
  double h = 0.0;
  if (x > 0.0) h -= x * std::log2(x);
  if (x < 1.0) h -= (1.0 - x) * std::log2(1.0 - x);
  return h;
}

}  // namespace crp::info
