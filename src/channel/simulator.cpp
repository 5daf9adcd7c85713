#include "channel/simulator.h"

#include <bit>
#include <stdexcept>

#include "channel/unit_interval.h"

namespace crp::channel {

std::string to_string(Feedback feedback) {
  switch (feedback) {
    case Feedback::kSilence:
      return "silence";
    case Feedback::kSuccess:
      return "success";
    case Feedback::kCollision:
      return "collision";
  }
  return "unknown";
}

double CollisionPolicy::probability(const BitString& history) const {
  State state = initial_state();
  for (const bool collided : history) state = next_state(state, collided);
  return probability_at(state);
}

Feedback feedback_for(std::size_t transmitters) {
  if (transmitters == 0) return Feedback::kSilence;
  if (transmitters == 1) return Feedback::kSuccess;
  return Feedback::kCollision;
}

void validate_probability(double p) {
  if (!in_unit_interval(p)) {
    throw std::invalid_argument("transmission probability outside [0, 1]");
  }
}

std::size_t sample_transmitters(std::size_t k, double p,
                                Rng& rng) {
  validate_probability(p);
  if (k == 0 || p == 0.0) return 0;
  if (p == 1.0) return k;
  std::binomial_distribution<std::size_t> binomial(k, p);
  return binomial(rng);
}

std::size_t BinomialParamCache::KeyHash::operator()(
    const std::pair<std::size_t, double>& key) const {
  return std::hash<std::uint64_t>{}(std::bit_cast<std::uint64_t>(key.second) ^
                                    (key.first * 0x9e3779b97f4a7c15ULL));
}

Binomial BinomialParamCache::distribution(std::size_t k, double p) {
  const auto found = params_.find({k, p});
  if (found != params_.end()) return Binomial(found->second);
  Binomial fresh(k, p);
  if (params_.size() < kMaxEntries) {
    params_.emplace(std::pair{k, p}, fresh.param());
  }
  return fresh;
}

std::size_t TransmitterSampler::operator()(double p, Rng& rng) {
  for (auto& [probability, binomial] : cache_) {
    if (probability == p) return binomial(rng);
  }
  validate_probability(p);
  if (k_ == 0 || p == 0.0) return 0;
  if (p == 1.0) return k_;
  if (cache_.size() == kMaxCachedProbabilities) {
    Binomial binomial = make(p);
    return binomial(rng);
  }
  cache_.emplace_back(p, make(p));
  return cache_.back().second(rng);
}

namespace {

void record(const SimOptions& options, double p, std::size_t transmitters) {
  if (options.trace != nullptr) {
    options.trace->push_back(
        RoundRecord{p, transmitters, feedback_for(transmitters)});
  }
}

}  // namespace

RunResult run_uniform_no_cd(const ProbabilitySchedule& schedule,
                            std::size_t k, Rng& rng,
                            const SimOptions& options) {
  if (k == 0) throw std::invalid_argument("need at least one participant");
  TransmitterSampler sample(k);
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    const double p = schedule.probability(round);
    const std::size_t transmitters = sample(p, rng);
    record(options, p, transmitters);
    if (transmitters == 1) {
      return RunResult{true, round + 1, std::nullopt};
    }
  }
  return RunResult{false, options.max_rounds, std::nullopt};
}

void CdRunMemo::begin_trial(std::size_t k) {
  if (!warm_) {
    warm_ = true;
    sample_.reset(k, nullptr);
    return;
  }
  sample_.reset(k, &params_);
}

RunResult run_uniform_cd(const CollisionPolicy& policy, std::size_t k,
                         Rng& rng, const SimOptions& options) {
  CdRunMemo memo(policy);
  return run_uniform_cd(memo, k, rng, options);
}

RunResult run_uniform_cd(CdRunMemo& memo, std::size_t k, Rng& rng,
                         const SimOptions& options) {
  if (k == 0) throw std::invalid_argument("need at least one participant");
  memo.begin_trial(k);
  const CollisionPolicy& policy = memo.policy_;
  TransmitterSampler& sample = memo.sample_;
  CollisionPolicy::State state = policy.initial_state();
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    const double p = policy.probability_at(state);
    const std::size_t transmitters = sample(p, rng);
    record(options, p, transmitters);
    if (transmitters == 1) {
      return RunResult{true, round + 1, std::nullopt};
    }
    state = policy.next_state(state, transmitters >= 2);
  }
  return RunResult{false, options.max_rounds, std::nullopt};
}

RunResult run_deterministic(const DeterministicProtocol& protocol,
                            const BitString& advice,
                            std::span<const std::size_t> participants,
                            bool collision_detection,
                            const SimOptions& options) {
  if (participants.empty()) {
    throw std::invalid_argument("need at least one participant");
  }
  std::vector<Feedback> history;
  history.reserve(64);
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    std::size_t transmitters = 0;
    std::optional<std::size_t> sole;
    for (std::size_t id : participants) {
      if (protocol.transmits(id, advice, round, history)) {
        ++transmitters;
        sole = id;
      }
    }
    record(options, 0.0, transmitters);
    if (transmitters == 1) {
      return RunResult{true, round + 1, sole};
    }
    // Without collision detection the players observe nothing that
    // distinguishes rounds, which we model as unconditional silence.
    history.push_back(collision_detection ? feedback_for(transmitters)
                                          : Feedback::kSilence);
  }
  return RunResult{false, options.max_rounds, std::nullopt};
}

RunResult run_uniform_no_cd_per_player(const ProbabilitySchedule& schedule,
                                       std::size_t k, Rng& rng,
                                       const SimOptions& options) {
  if (k == 0) throw std::invalid_argument("need at least one participant");
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    const double p = schedule.probability(round);
    validate_probability(p);
    std::size_t transmitters = 0;
    std::optional<std::size_t> sole;
    for (std::size_t id = 0; id < k; ++id) {
      if (unit(rng) < p) {
        ++transmitters;
        sole = id;
      }
    }
    record(options, p, transmitters);
    if (transmitters == 1) {
      return RunResult{true, round + 1, sole};
    }
  }
  return RunResult{false, options.max_rounds, std::nullopt};
}

}  // namespace crp::channel
