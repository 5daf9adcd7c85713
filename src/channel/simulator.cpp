#include "channel/simulator.h"

#include <stdexcept>

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

Feedback feedback_for(std::size_t transmitters) {
  if (transmitters == 0) return Feedback::kSilence;
  if (transmitters == 1) return Feedback::kSuccess;
  return Feedback::kCollision;
}

void validate_probability(double p) {
  if (!(p >= 0.0 && p <= 1.0)) {
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

std::size_t TransmitterSampler::operator()(double p, Rng& rng) {
  for (auto& [probability, binomial] : cache_) {
    if (probability == p) return binomial(rng);
  }
  validate_probability(p);
  if (k_ == 0 || p == 0.0) return 0;
  if (p == 1.0) return k_;
  if (cache_.size() == kMaxCachedProbabilities) {
    std::binomial_distribution<std::size_t> binomial(k_, p);
    return binomial(rng);
  }
  cache_.emplace_back(p, std::binomial_distribution<std::size_t>(k_, p));
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
  std::size_t energy = 0;
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    const double p = schedule.probability(round);
    const std::size_t transmitters = sample(p, rng);
    energy += transmitters;
    record(options, p, transmitters);
    if (transmitters == 1) {
      return RunResult{true, round + 1, std::nullopt, energy};
    }
  }
  return RunResult{false, options.max_rounds, std::nullopt, energy};
}

RunResult run_uniform_cd(const CollisionPolicy& policy, std::size_t k,
                         Rng& rng, const SimOptions& options) {
  if (k == 0) throw std::invalid_argument("need at least one participant");
  TransmitterSampler sample(k);
  BitString history;
  history.reserve(64);
  std::size_t energy = 0;
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    const double p = policy.probability(history);
    const std::size_t transmitters = sample(p, rng);
    energy += transmitters;
    record(options, p, transmitters);
    if (transmitters == 1) {
      return RunResult{true, round + 1, std::nullopt, energy};
    }
    history.push_back(transmitters >= 2);
  }
  return RunResult{false, options.max_rounds, std::nullopt, energy};
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
  std::size_t energy = 0;
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    std::size_t transmitters = 0;
    std::optional<std::size_t> sole;
    for (std::size_t id : participants) {
      if (protocol.transmits(id, advice, round, history)) {
        ++transmitters;
        sole = id;
      }
    }
    energy += transmitters;
    record(options, 0.0, transmitters);
    if (transmitters == 1) {
      return RunResult{true, round + 1, sole, energy};
    }
    // Without collision detection the players observe nothing that
    // distinguishes rounds, which we model as unconditional silence.
    history.push_back(collision_detection ? feedback_for(transmitters)
                                          : Feedback::kSilence);
  }
  return RunResult{false, options.max_rounds, std::nullopt, energy};
}

RunResult run_uniform_no_cd_per_player(const ProbabilitySchedule& schedule,
                                       std::size_t k, Rng& rng,
                                       const SimOptions& options) {
  if (k == 0) throw std::invalid_argument("need at least one participant");
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::size_t energy = 0;
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
    energy += transmitters;
    record(options, p, transmitters);
    if (transmitters == 1) {
      return RunResult{true, round + 1, sole, energy};
    }
  }
  return RunResult{false, options.max_rounds, std::nullopt, energy};
}

}  // namespace crp::channel
