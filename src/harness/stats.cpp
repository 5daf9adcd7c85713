#include "harness/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "channel/unit_interval.h"

namespace crp::harness {

namespace {

/// percentile() on already-sorted samples; summarize() sorts once and
/// reads every quantile from the same copy.
double percentile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (!channel::in_unit_interval(q)) {
    throw std::invalid_argument("percentile q must lie in [0, 1]");
  }
  const double position = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(position));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(position));
  const double frac = position - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// The value of the index-th order statistic of the multiset the
/// counts describe (index < total count).
double value_at_rank(std::span<const std::uint64_t> counts,
                     std::uint64_t index) {
  std::uint64_t cum = 0;
  for (std::size_t v = 0; v < counts.size(); ++v) {
    cum += counts[v];
    if (cum > index) return static_cast<double>(v);
  }
  return 0.0;  // unreachable for index < total
}

/// percentile() against bin counts: interpolates between the same two
/// order statistics, with the same arithmetic, as percentile_sorted —
/// so the result is bit-identical to the sorted-vector path.
double percentile_counts_total(std::span<const std::uint64_t> counts,
                               std::uint64_t total, double q) {
  if (total == 0) return 0.0;
  if (!channel::in_unit_interval(q)) {
    throw std::invalid_argument("percentile q must lie in [0, 1]");
  }
  const double position = q * static_cast<double>(total - 1);
  const auto lo = static_cast<std::uint64_t>(std::floor(position));
  const auto hi = static_cast<std::uint64_t>(std::ceil(position));
  const double frac = position - static_cast<double>(lo);
  return value_at_rank(counts, lo) * (1.0 - frac) +
         value_at_rank(counts, hi) * frac;
}

}  // namespace

double percentile(std::span<const double> samples, double q) {
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, q);
}

SummaryStats summarize(std::span<const double> samples) {
  SummaryStats stats;
  stats.count = samples.size();
  if (samples.empty()) return stats;

  double sum = 0.0;
  stats.min = samples[0];
  stats.max = samples[0];
  for (double x : samples) {
    sum += x;
    stats.min = std::min(stats.min, x);
    stats.max = std::max(stats.max, x);
  }
  stats.mean = sum / static_cast<double>(stats.count);

  double ss = 0.0;
  for (double x : samples) {
    const double d = x - stats.mean;
    ss += d * d;
  }
  if (stats.count > 1) {
    stats.stddev = std::sqrt(ss / static_cast<double>(stats.count - 1));
    stats.ci95 =
        1.96 * stats.stddev / std::sqrt(static_cast<double>(stats.count));
  }
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  stats.p50 = percentile_sorted(sorted, 0.50);
  stats.p90 = percentile_sorted(sorted, 0.90);
  stats.p99 = percentile_sorted(sorted, 0.99);
  return stats;
}

double percentile_counts(std::span<const std::uint64_t> counts, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  return percentile_counts_total(counts, total, q);
}

SummaryStats summarize_counts(std::span<const std::uint64_t> counts) {
  SummaryStats stats;
  std::uint64_t total = 0;
  // One ascending pass for count, extrema, and the mean. Bin values
  // and counts are exact integers, so the grouped sum equals the
  // trial-order sum of summarize() bit for bit (both are the exact
  // integer total as long as it stays below 2^53).
  double sum = 0.0;
  bool seen = false;
  for (std::size_t v = 0; v < counts.size(); ++v) {
    if (counts[v] == 0) continue;
    total += counts[v];
    sum += static_cast<double>(counts[v]) * static_cast<double>(v);
    if (!seen) {
      stats.min = static_cast<double>(v);
      seen = true;
    }
    stats.max = static_cast<double>(v);
  }
  stats.count = total;
  if (total == 0) return stats;
  stats.mean = sum / static_cast<double>(total);

  // Squared deviations per bin (mathematically exact; may differ from
  // the vector fold's trial-order sum in the last floating-point bits).
  double ss = 0.0;
  for (std::size_t v = 0; v < counts.size(); ++v) {
    if (counts[v] == 0) continue;
    const double d = static_cast<double>(v) - stats.mean;
    ss += static_cast<double>(counts[v]) * d * d;
  }
  if (total > 1) {
    stats.stddev = std::sqrt(ss / static_cast<double>(total - 1));
    stats.ci95 =
        1.96 * stats.stddev / std::sqrt(static_cast<double>(total));
  }
  stats.p50 = percentile_counts_total(counts, total, 0.50);
  stats.p90 = percentile_counts_total(counts, total, 0.90);
  stats.p99 = percentile_counts_total(counts, total, 0.99);
  return stats;
}

std::string SummaryStats::describe() const {
  std::ostringstream out;
  out << "mean=" << mean << " +/- " << ci95 << " (p50=" << p50
      << ", p90=" << p90 << ", max=" << max << ", n=" << count << ")";
  return out.str();
}

}  // namespace crp::harness
