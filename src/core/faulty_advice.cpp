#include "core/faulty_advice.h"

#include <random>
#include <stdexcept>

#include "channel/rng.h"
#include "channel/unit_interval.h"

namespace crp::core {

FaultyAdvice::FaultyAdvice(std::shared_ptr<const AdviceFunction> inner,
                           double flip_probability, std::uint64_t seed)
    : inner_(std::move(inner)),
      flip_probability_(flip_probability),
      seed_(seed) {
  if (!inner_) throw std::invalid_argument("inner advice is null");
  if (!channel::in_unit_interval(flip_probability_)) {
    throw std::invalid_argument("flip probability outside [0, 1]");
  }
}

channel::BitString FaultyAdvice::advise(
    std::span<const std::size_t> participants) const {
  channel::BitString bits = inner_->advise(participants);
  // Deterministic corruption: seed an engine from a hash of the
  // participant set so the same set is always corrupted the same way.
  std::uint64_t h = seed_ ^ 0x9e3779b97f4a7c15ULL;
  for (std::size_t id : participants) {
    h ^= (id + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  }
  channel::Rng rng(h);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (unit(rng) < flip_probability_) bits[i] = !bits[i];
  }
  return bits;
}

std::size_t FaultyAdvice::bits() const { return inner_->bits(); }

std::string FaultyAdvice::name() const {
  return inner_->name() + "+faulty";
}

}  // namespace crp::core
