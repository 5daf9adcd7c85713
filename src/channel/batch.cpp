#include "channel/batch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <random>
#include <stdexcept>

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

double BatchNoCdSampler::probability(std::size_t round) const {
  if (period_ > 0) return probabilities_[round % period_];
  {
    std::shared_lock lock(mutex_);
    if (round < probabilities_.size()) return probabilities_[round];
  }
  const double p = schedule_.probability(round);
  validate_probability(p);
  return p;
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
  // lane kernels are pinned against — so the per-trial sample() paths
  // and the columnar probe_rounds pass share one implementation.
  return kernels::search_one(probe_view(table, max_rounds), target);
}

RunResult BatchNoCdSampler::sample(std::size_t k, Rng& rng,
                                   const BatchOptions& options) const {
  if (k == 0) throw std::invalid_argument("need at least one participant");
  if (options.trace != nullptr) {
    // Traced runs need every round; use the exact per-round engine.
    return run_uniform_no_cd(
        schedule_, k, rng,
        {.max_rounds = options.max_rounds, .trace = options.trace});
  }
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::size_t round = solve_round(k, unit(rng), options.max_rounds);

  RunResult result;
  result.solved = round != 0;
  result.rounds = result.solved ? round : options.max_rounds;
  if (options.sample_transmissions) {
    // Conditional reconstruction of the energy proxy: every pre-success
    // round saw Binomial(k, p_j) transmitters conditioned on the round
    // not succeeding; the success round contributes exactly one.
    TransmitterSampler sampler(k);
    std::size_t energy = result.solved ? 1 : 0;
    const std::size_t pre_rounds =
        result.solved ? round - 1 : options.max_rounds;
    for (std::size_t r = 0; r < pre_rounds; ++r) {
      const double p = probability(r);
      std::size_t transmitters;
      do {
        transmitters = sampler(p, rng);
      } while (transmitters == 1);
      energy += transmitters;
    }
    result.transmissions = energy;
  }
  return result;
}

RunResult BatchNoCdSampler::sample(std::size_t k, SplitMix64& rng,
                                   std::size_t max_rounds) const {
  if (k == 0) throw std::invalid_argument("need at least one participant");
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::size_t round = solve_round(k, unit(rng), max_rounds);
  RunResult result;
  result.solved = round != 0;
  result.rounds = result.solved ? round : max_rounds;
  return result;
}

RunResult run_uniform_no_cd_batch(const ProbabilitySchedule& schedule,
                                  std::size_t k, Rng& rng,
                                  const BatchOptions& options) {
  return BatchNoCdSampler(schedule).sample(k, rng, options);
}

}  // namespace crp::channel
