#include "harness/accumulate.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace crp::harness {

namespace {

/// The bin count that holds `round`: at least 64, doubled from the
/// current size until the round fits (amortized growth).
std::size_t grown_size(std::size_t size, std::uint64_t round) {
  size = std::max<std::size_t>(64, size);
  while (size <= round) size *= 2;
  return size;
}

}  // namespace

void RoundHistogram::add_solved(std::uint64_t round) {
  if (round >= counts_.size()) {
    counts_.resize(grown_size(counts_.size(), round));
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
  const std::size_t count = solved.size();
  // The solved count and the largest solved round live in locals (the
  // members would alias the bins), so the bins grow once per block.
  // The OR of the solved rounds stands in for their maximum: it has
  // the same bit length, so it grows the bins to the same power of two,
  // and it needs no compare.
  std::uint64_t solved_here = 0, top = 0;
  for (std::size_t t = 0; t < count; ++t) {
    const std::uint64_t hit = solved[t] != 0 ? 1 : 0;
    solved_here += hit;
    top |= rounds[t] & (0 - hit);
  }
  if (solved_here != 0 && top >= counts_.size()) {
    counts_.resize(grown_size(counts_.size(), top));
  }
  // Then one bump per solved trial through a raw pointer, eight solved
  // flags read as one word: a word of all-solved trials (the common
  // case) bumps eight bins with no per-trial test, and an all-unsolved
  // word is skipped whole.
  constexpr std::uint64_t kAllSolved = 0x0101010101010101ULL;
  std::uint64_t* bins = counts_.data();
  std::size_t t = 0;
  for (; t + 8 <= count; t += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, solved.data() + t, sizeof word);
    if (word == kAllSolved) {
      for (std::size_t i = 0; i < 8; ++i) ++bins[rounds[t + i]];
    } else if (word != 0) {
      for (std::size_t i = 0; i < 8; ++i) {
        if (solved[t + i] != 0) ++bins[rounds[t + i]];
      }
    }
  }
  for (; t < count; ++t) {
    if (solved[t] != 0) ++bins[rounds[t]];
  }
  trials_ += count;
  solved_ += solved_here;
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
