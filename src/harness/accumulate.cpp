#include "harness/accumulate.h"

#include <algorithm>
#include <stdexcept>

namespace crp::harness {

void RoundHistogram::add_solved(std::uint64_t round) {
  if (round >= counts_.size()) {
    std::size_t size = std::max<std::size_t>(64, counts_.size());
    while (size <= round) size *= 2;
    counts_.resize(size);
  }
  ++counts_[round];
  ++trials_;
  ++solved_;
}

void RoundHistogram::add_columns(std::span<const std::uint8_t> solved,
                                 std::span<const std::uint64_t> rounds) {
  if (solved.size() != rounds.size()) {
    throw std::invalid_argument("result columns disagree on length");
  }
  for (std::size_t t = 0; t < solved.size(); ++t) {
    if (solved[t]) {
      add_solved(rounds[t]);
    } else {
      add_unsolved();
    }
  }
}

void RoundHistogram::merge(const RoundHistogram& other) {
  if (other.counts_.size() > counts_.size()) {
    counts_.resize(other.counts_.size());
  }
  for (std::size_t v = 0; v < other.counts_.size(); ++v) {
    counts_[v] += other.counts_[v];
  }
  trials_ += other.trials_;
  solved_ += other.solved_;
}

bool operator==(const RoundHistogram& a, const RoundHistogram& b) {
  if (a.trials_ != b.trials_ || a.solved_ != b.solved_) return false;
  const std::size_t shared = std::min(a.counts_.size(), b.counts_.size());
  if (!std::equal(a.counts_.begin(), a.counts_.begin() + shared,
                  b.counts_.begin())) {
    return false;
  }
  const auto& longer = a.counts_.size() > shared ? a.counts_ : b.counts_;
  return std::all_of(longer.begin() + shared, longer.end(),
                     [](std::uint64_t c) { return c == 0; });
}

double RoundHistogram::success_rate() const {
  return trials_ == 0 ? 0.0
                      : static_cast<double>(solved_) /
                            static_cast<double>(trials_);
}

std::uint64_t RoundHistogram::solved_by(double budget) const {
  std::uint64_t within = 0;
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    if (static_cast<double>(v) <= budget) within += counts_[v];
  }
  return within;
}

}  // namespace crp::harness
