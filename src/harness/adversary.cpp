#include "harness/adversary.h"

#include <limits>
#include <stdexcept>

#include "channel/simulator.h"
#include "harness/parallel.h"

namespace crp::harness {

namespace {

/// Combinations per enumeration block. Large enough to amortize the
/// block claim and the unranking of the block's first set, small
/// enough to load-balance the C(n, k) ~ 10^6 regimes the module is
/// meant for.
constexpr std::size_t kSetBlock = 4096;

/// C(n, k), saturating at SIZE_MAX on overflow. Callers must treat
/// SIZE_MAX as "too many to enumerate" — exact_worst_case refuses such
/// inputs rather than silently under-enumerating.
std::size_t binomial(std::size_t n, std::size_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::size_t c = 1;
  for (std::size_t i = 1; i <= k; ++i) {
    // c * (n - k + i) / i is exact at every step; guard the multiply.
    const std::size_t factor = n - k + i;
    if (c > std::numeric_limits<std::size_t>::max() / factor) {
      return std::numeric_limits<std::size_t>::max();
    }
    c = c * factor / i;
  }
  return c;
}

/// The `rank`-th (0-based) k-subset of {0..n-1} in lexicographic
/// order, via the combinatorial number system: position by position,
/// take the smallest candidate whose tail count covers the rank.
std::vector<std::size_t> unrank_combination(std::size_t n, std::size_t k,
                                            std::size_t rank) {
  std::vector<std::size_t> subset(k);
  std::size_t candidate = 0;
  for (std::size_t i = 0; i < k; ++i) {
    for (;; ++candidate) {
      const std::size_t tail = binomial(n - 1 - candidate, k - 1 - i);
      if (rank < tail) break;
      rank -= tail;
    }
    subset[i] = candidate++;
  }
  return subset;
}

/// Advances `subset` to its lexicographic successor; returns false at
/// the last combination.
bool next_combination(std::vector<std::size_t>& subset, std::size_t n) {
  const std::size_t k = subset.size();
  std::size_t i = k;
  while (i > 0) {
    --i;
    if (subset[i] < n - k + i) {
      ++subset[i];
      for (std::size_t j = i + 1; j < k; ++j) {
        subset[j] = subset[j - 1] + 1;
      }
      return true;
    }
  }
  return false;
}

}  // namespace

ExactWorstCase exact_worst_case(const channel::DeterministicProtocol& protocol,
                                const core::AdviceFunction& advice,
                                std::size_t n, std::size_t k,
                                bool collision_detection,
                                std::size_t max_rounds, std::size_t threads) {
  if (k == 0 || k > n) {
    throw std::invalid_argument("need 1 <= k <= n participants");
  }
  const std::size_t total = binomial(n, k);
  if (total == std::numeric_limits<std::size_t>::max()) {
    throw std::invalid_argument(
        "C(n, k) overflows 64 bits; exhaustive enumeration is infeasible");
  }

  // Each block folds its own worst case; blocks are then reduced in
  // rank order with a strict comparison, reproducing the serial
  // "first maximum wins" witness at any thread count.
  const std::size_t blocks = (total + kSetBlock - 1) / kSetBlock;
  std::vector<ExactWorstCase> partial(blocks);
  parallel_blocks(
      total, threads,
      [&](std::size_t begin, std::size_t end) {
        ExactWorstCase& out = partial[begin / kSetBlock];
        std::vector<std::size_t> subset = unrank_combination(n, k, begin);
        for (std::size_t rank = begin; rank < end; ++rank) {
          ++out.sets_checked;
          const auto bits = advice.advise(subset);
          const auto result = channel::run_deterministic(
              protocol, bits, subset, collision_detection,
              {.max_rounds = max_rounds});
          out.all_solved = out.all_solved && result.solved;
          const std::size_t cost = result.solved ? result.rounds : max_rounds;
          if (cost > out.rounds) {
            out.rounds = cost;
            out.witness = subset;
          }
          if (rank + 1 < end) next_combination(subset, n);
        }
      },
      kSetBlock);

  ExactWorstCase worst;
  for (const auto& block : partial) {
    worst.sets_checked += block.sets_checked;
    worst.all_solved = worst.all_solved && block.all_solved;
    if (block.rounds > worst.rounds) {
      worst.rounds = block.rounds;
      worst.witness = block.witness;
    }
  }
  return worst;
}

}  // namespace crp::harness
