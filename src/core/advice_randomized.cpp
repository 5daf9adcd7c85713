#include "core/advice_randomized.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace crp::core {

TruncatedDecaySchedule::TruncatedDecaySchedule(
    std::vector<std::size_t> ranges, std::vector<std::size_t> fallback)
    : ranges_(std::move(ranges)), fallback_(std::move(fallback)) {
  if (ranges_.empty()) {
    throw std::invalid_argument("advised group must be non-empty");
  }
  period_ = 3 * ranges_.size() + fallback_.size();
}

std::size_t TruncatedDecaySchedule::range_for_round(
    std::size_t round) const {
  if (fallback_.empty()) return ranges_[round % ranges_.size()];
  const std::size_t pos = round % period_;
  const std::size_t group_part = 3 * ranges_.size();
  if (pos < group_part) return ranges_[pos % ranges_.size()];
  return fallback_[pos - group_part];
}

double TruncatedDecaySchedule::probability(std::size_t round) const {
  return std::exp2(-static_cast<double>(range_for_round(round)));
}

namespace {

/// A TruncatedWillardPolicy state: the attempt number mod 4 (which
/// picks the active range set) and the search window [lo, hi) over
/// indices into that set, kWindowBits bits each.
struct Attempt {
  std::size_t attempt = 0;
  std::size_t lo = 0;
  std::size_t hi = 0;
};

constexpr unsigned kWindowBits = 30;
constexpr std::uint64_t kWindowMask = (std::uint64_t{1} << kWindowBits) - 1;

std::uint64_t pack(const Attempt& a) {
  return a.attempt | a.lo << 2 | a.hi << (2 + kWindowBits);
}

Attempt unpack(std::uint64_t state) {
  return {state & 3, (state >> 2) & kWindowMask,
          (state >> (2 + kWindowBits)) & kWindowMask};
}

std::vector<double> probabilities_of(const std::vector<std::size_t>& ranges) {
  if (ranges.size() > kWindowMask) {
    throw std::invalid_argument("truncated willard: too many ranges");
  }
  std::vector<double> probabilities;
  probabilities.reserve(ranges.size());
  for (const std::size_t r : ranges) {
    probabilities.push_back(std::exp2(-static_cast<double>(r)));
  }
  return probabilities;
}

}  // namespace

TruncatedWillardPolicy::TruncatedWillardPolicy(
    std::vector<std::size_t> ranges, std::vector<std::size_t> fallback)
    : ranges_(std::move(ranges)), fallback_(std::move(fallback)) {
  if (ranges_.empty()) {
    throw std::invalid_argument("advised group must be non-empty");
  }
  range_probabilities_ = probabilities_of(ranges_);
  fallback_probabilities_ = probabilities_of(fallback_);
}

TruncatedWillardPolicy::State TruncatedWillardPolicy::initial_state() const {
  return pack({0, 0, ranges_.size()});
}

TruncatedWillardPolicy::State TruncatedWillardPolicy::next_state(
    State state, bool collided) const {
  // Binary search over indices into the active range set (collision:
  // size guess too small, move to larger ranges; silence: too large).
  // When a search exhausts its window a new attempt begins; with a
  // fallback configured, every fourth attempt searches the fallback
  // set instead of the group.
  Attempt a = unpack(state);
  const std::size_t mid = a.lo + (a.hi - a.lo) / 2;
  if (collided) {
    a.lo = mid + 1;
  } else {
    a.hi = mid;
  }
  if (a.lo >= a.hi) {
    a.attempt = (a.attempt + 1) % 4;
    const bool use_fallback = !fallback_.empty() && a.attempt == 3;
    a.lo = 0;
    a.hi = use_fallback ? fallback_.size() : ranges_.size();
  }
  return pack(a);
}

double TruncatedWillardPolicy::probability_at(State state) const {
  const Attempt a = unpack(state);
  const bool use_fallback = !fallback_.empty() && a.attempt == 3;
  const std::vector<double>& active =
      use_fallback ? fallback_probabilities_ : range_probabilities_;
  return active[a.lo + (a.hi - a.lo) / 2];
}

}  // namespace crp::core
