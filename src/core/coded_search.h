// The Section 2.6 prediction-augmented algorithm for channels WITH
// collision detection.
//
// Build an optimal prefix code f for the condensed prediction c(Y).
// Group ranges into classes by codeword length; visit classes from
// shortest code to longest, and within each class run Willard's
// collision-detector-driven binary search over the class's ranges
// (sorted ascending). Theorem 2.16: with constant probability this
// solves contention resolution in O((H(c(X)) + D_KL(c(X)||c(Y)))^2)
// rounds; Corollary 2.18 gives O(H(c(X))^2) when Y = X.
#pragma once

#include <cstddef>
#include <vector>

#include "channel/protocol.h"
#include "info/distribution.h"

namespace crp::core {

/// Which optimal-code construction backs the class grouping; the
/// Huffman/Shannon-Fano choice is an ablation knob (repro/coding.cpp).
enum class CodeBackend { kHuffman, kShannonFano };

class CodedSearchPolicy final : public channel::CollisionPolicy {
 public:
  explicit CodedSearchPolicy(const info::CondensedDistribution& prediction,
                             CodeBackend backend = CodeBackend::kHuffman);

  double probability(const channel::BitString& history) const override;
  std::string name() const override { return "coded-search"; }

  /// The code-length classes in visiting order: classes_[c] holds the
  /// 1-based ranges whose codeword length is lengths_[c], ascending.
  const std::vector<std::vector<std::size_t>>& classes() const {
    return classes_;
  }
  const std::vector<std::size_t>& class_lengths() const { return lengths_; }

  /// Worst-case rounds in one full pass over every class (each class of
  /// size m costs at most ceil(log2 m) + 1 probes).
  std::size_t pass_length() const;

 private:
  /// (probability exponent) for the probe after `history`.
  std::size_t current_range(const channel::BitString& history) const;

  std::vector<std::vector<std::size_t>> classes_;
  std::vector<std::size_t> lengths_;
  std::vector<bool> positive_mass_;  // class has predicted mass > 0
};

}  // namespace crp::core
