#include "channel/batch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>

namespace crp::channel {

namespace {

/// log(1 - s) for s = k p (1-p)^{k-1}, the per-round log-survival term
/// (-inf when the round succeeds surely, 0 when it cannot succeed).
double log_survival_term(std::size_t k, double p) {
  if (k == 0 || p == 0.0) return 0.0;
  double s;
  if (p == 1.0) {
    s = k == 1 ? 1.0 : 0.0;
  } else {
    // k p (1-p)^{k-1} in log space, stable for large k.
    s = std::exp(std::log(static_cast<double>(k)) + std::log(p) +
                 static_cast<double>(k - 1) * std::log1p(-p));
  }
  if (s >= 1.0) return -std::numeric_limits<double>::infinity();
  return std::log1p(-s);
}

}  // namespace

void BatchNoCdSampler::finalize_probe_table(SolveTable& table) {
  // Pad to the next power of two with -inf (predicate-false under any
  // finite target) so the branchless descent has a fixed trip count
  // and never indexes past the array.
  const std::size_t size = std::bit_ceil(table.log_survival.size());
  table.padded.assign(size, -std::numeric_limits<double>::infinity());
  std::copy(table.log_survival.begin(), table.log_survival.end(),
            table.padded.begin());
}

BatchNoCdSampler::BatchNoCdSampler(const ProbabilitySchedule& schedule)
    : schedule_(schedule), period_(schedule.period()) {
  if (period_ > 0) {
    probabilities_.reserve(period_);
    for (std::size_t r = 0; r < period_; ++r) {
      const double p = schedule_.probability(r);
      validate_probability(p);
      probabilities_.push_back(p);
    }
  }
}

std::shared_ptr<const BatchNoCdSampler::SolveTable>
BatchNoCdSampler::snapshot(std::size_t k, double target,
                           std::size_t max_rounds) const {
  {
    std::shared_lock lock(mutex_);
    const auto it = tables_.find(k);
    if (it != tables_.end() && serves(*it->second, target, max_rounds)) {
      return it->second;
    }
  }
  std::unique_lock lock(mutex_);
  auto& slot = tables_[k];
  if (period_ > 0) {
    if (slot == nullptr) {
      auto table = std::make_shared<SolveTable>();
      table->log_survival.reserve(period_ + 1);
      table->log_survival.push_back(0.0);
      double ls = 0.0;
      for (std::size_t r = 0; r < period_; ++r) {
        ls += log_survival_term(k, probabilities_[r]);
        table->log_survival.push_back(ls);
      }
      finalize_probe_table(*table);
      slot = std::move(table);
    }
    return slot;
  }
  // Aperiodic: replace the table with an extended immutable copy
  // (readers hold shared_ptr snapshots, so in-flight searches stay
  // valid). Doubling growth amortizes the copies.
  std::size_t horizon = slot ? slot->log_survival.size() - 1 : 0;
  double ls = slot ? slot->log_survival.back() : 0.0;
  if (slot != nullptr && (ls < target || horizon >= max_rounds)) {
    return slot;  // another thread extended it meanwhile
  }
  auto table = std::make_shared<SolveTable>();
  table->log_survival =
      slot ? slot->log_survival : std::vector<double>{0.0};
  while (ls >= target && horizon < max_rounds) {
    const std::size_t grow =
        std::min(max_rounds - horizon, std::max<std::size_t>(64, horizon));
    for (std::size_t i = 0; i < grow; ++i) {
      const std::size_t r = horizon + i;
      if (r >= probabilities_.size()) {
        const double p = schedule_.probability(r);
        validate_probability(p);
        probabilities_.push_back(p);
      }
      ls += log_survival_term(k, probabilities_[r]);
      table->log_survival.push_back(ls);
    }
    horizon += grow;
  }
  finalize_probe_table(*table);
  slot = std::move(table);
  return slot;
}

std::size_t BatchNoCdSampler::solve_round(std::size_t k, double u,
                                          std::size_t max_rounds) const {
  // With u ~ Uniform[0, 1), u' = 1 - u ~ Uniform(0, 1] and the solve
  // round is the smallest r with LS(r) < log u'. The inequality is
  // strict so rounds with zero success probability are never chosen,
  // even at u' = 1.
  const double target = target_for(u);
  return search(*snapshot(k, target, max_rounds), target, max_rounds);
}

double BatchNoCdSampler::target_for(double u) {
  return kernels::log1p_neg(-u);
}

std::size_t BatchNoCdSampler::search(const SolveTable& table, double target,
                                     std::size_t max_rounds) const {
  // The full search (periodic skip + residual probe + budget clamp)
  // lives in the kernel layer as search_one — the scalar reference the
  // lane kernels are pinned against — so the per-trial sample() path
  // and the columnar probe_rounds pass share one implementation.
  return kernels::search_one(probe_view(table, max_rounds), target);
}

}  // namespace crp::channel
