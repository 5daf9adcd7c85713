// Fixture: det-one-rng's one exempt file. The generator's home may
// name std::mt19937_64 (its oracle and documentation); nothing here
// may fire.
#pragma once

#include <random>

namespace crp::channel {

static_assert(sizeof(std::mt19937_64) > 0);

}  // namespace crp::channel
