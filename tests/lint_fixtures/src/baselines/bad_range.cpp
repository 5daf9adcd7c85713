// Fixture: nan-range-check — `x < 0 || x > 1` range checks, which NaN
// passes, with negative controls: the in_unit_interval spelling, the
// negated conjunction, other bounds and mismatched operands.
#include <stdexcept>
#include <vector>

#include "channel/unit_interval.h"

namespace crp::baselines {

struct Checks {
  double p_ = 0.5;
  std::vector<double> weights;

  void member(double q) {
    if (p_ < 0.0 || p_ > 1.0) throw std::invalid_argument("p");  // expect-lint: nan-range-check
    if (q > 1.0 || q < 0.0) throw std::invalid_argument("q");  // expect-lint: nan-range-check
    if (q < 0 || q > 1) throw std::invalid_argument("q");  // expect-lint: nan-range-check
    if (weights[0] < 0. || weights[0] > 1.) throw std::invalid_argument("w");  // expect-lint: nan-range-check
    const Checks* self = this;
    if (self->p_ < 0.0 || self->p_ > 1.0) throw std::invalid_argument("p");  // expect-lint: nan-range-check
  }

  void controls(double q, double r, int k) {
    if (!channel::in_unit_interval(q)) throw std::invalid_argument("q");
    if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("q");
    if (q < 0.0 || r > 1.0) throw std::invalid_argument("q, r");
    if (k < 0 || k > 10) throw std::invalid_argument("k");
    if (q < 0.0 || q > 1.5) throw std::invalid_argument("q");
    // A comment spelling q < 0.0 || q > 1.0 never fires.
  }
};

}  // namespace crp::baselines
