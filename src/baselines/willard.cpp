#include "baselines/willard.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "info/distribution.h"

namespace crp::baselines {

namespace {

/// A WillardPolicy state: the search window [lo, hi] over range
/// indices (8 bits each; num_ranges is at most 64), whether the
/// current probe group saw a collision, and the rounds of the group
/// played so far (from bit kGroupShift up, below bit 63).
struct Search {
  std::size_t lo = 0;
  std::size_t hi = 0;
  bool group_collision = false;
  std::size_t group_bits = 0;
};

constexpr unsigned kGroupShift = 17;
constexpr std::size_t kMaxRepeats = std::size_t{1} << (63 - kGroupShift);

std::uint64_t pack(const Search& search) {
  return search.lo | search.hi << 8 |
         std::uint64_t{search.group_collision} << 16 |
         std::uint64_t{search.group_bits} << kGroupShift;
}

Search unpack(std::uint64_t state) {
  return {state & 0xff, (state >> 8) & 0xff, ((state >> 16) & 1) != 0,
          state >> kGroupShift};
}

}  // namespace

WillardPolicy::WillardPolicy(std::size_t n, std::size_t repeats)
    : num_ranges_(info::num_ranges(n)), repeats_(repeats) {
  if (repeats_ == 0) throw std::invalid_argument("repeats must be >= 1");
  if (repeats_ >= kMaxRepeats) {
    throw std::invalid_argument("repeats must be below 2^46");
  }
  probabilities_.reserve(num_ranges_ + 1);
  for (std::size_t r = 0; r <= num_ranges_; ++r) {
    probabilities_.push_back(std::exp2(-static_cast<double>(r)));
  }
}

WillardPolicy::State WillardPolicy::initial_state() const {
  return pack({1, num_ranges_, false, 0});
}

WillardPolicy::State WillardPolicy::next_state(State state,
                                               bool collided) const {
  // The binary search runs over range indices [lo, hi]; each probe
  // occupies `repeats_` rounds, after which a collision anywhere in the
  // group means the size guess was too small (move right), and an
  // all-silent group means too large (move left). An exhausted search
  // restarts.
  Search search = unpack(state);
  search.group_collision = search.group_collision || collided;
  if (++search.group_bits < repeats_) return pack(search);
  const std::size_t mid = search.lo + (search.hi - search.lo) / 2;
  if (search.group_collision) {
    search.lo = mid + 1;
  } else {
    if (mid == 1) {
      search.hi = 0;  // force restart; avoids size_t underflow
    } else {
      search.hi = mid - 1;
    }
  }
  if (search.lo > search.hi || search.hi == 0 || search.hi > num_ranges_) {
    search.lo = 1;
    search.hi = num_ranges_;
  }
  search.group_bits = 0;
  search.group_collision = false;
  return pack(search);
}

double WillardPolicy::probability_at(State state) const {
  const Search search = unpack(state);
  return probabilities_[search.lo + (search.hi - search.lo) / 2];
}

}  // namespace crp::baselines
