#include "core/prelude.h"

#include <stdexcept>

namespace crp::core {

WithAllTransmitPrelude::WithAllTransmitPrelude(
    std::shared_ptr<const channel::ProbabilitySchedule> inner)
    : inner_(std::move(inner)) {
  if (!inner_) throw std::invalid_argument("inner schedule is null");
}

double WithAllTransmitPrelude::probability(std::size_t round) const {
  if (round == 0) return 1.0;
  return inner_->probability(round - 1);
}

std::string WithAllTransmitPrelude::name() const {
  return inner_->name() + "+prelude";
}

WithAllTransmitPreludeCd::WithAllTransmitPreludeCd(
    std::shared_ptr<const channel::CollisionPolicy> inner)
    : inner_(std::move(inner)) {
  if (!inner_) throw std::invalid_argument("inner policy is null");
}

WithAllTransmitPreludeCd::State WithAllTransmitPreludeCd::next_state(
    State state, bool collided) const {
  // The probe's feedback bit is dropped; with k >= 2 it is always a
  // collision, carrying no information the inner policy needs.
  if (state == 0) return inner_->initial_state() + 1;
  return inner_->next_state(state - 1, collided) + 1;
}

double WithAllTransmitPreludeCd::probability_at(State state) const {
  if (state == 0) return 1.0;
  return inner_->probability_at(state - 1);
}

std::string WithAllTransmitPreludeCd::name() const {
  return inner_->name() + "+prelude";
}

}  // namespace crp::core
