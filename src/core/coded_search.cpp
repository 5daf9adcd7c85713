#include "core/coded_search.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>

#include "info/huffman.h"

namespace crp::core {

namespace {

/// A CodedSearchPolicy state: the binary-search window [lo, hi) inside
/// class `cls`, and the pass over all classes mod 4. Each field but
/// the pass takes kFieldBits bits of the word.
struct Search {
  std::size_t cls = 0;
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t pass = 0;
};

constexpr unsigned kFieldBits = 20;
constexpr std::uint64_t kFieldMask = (std::uint64_t{1} << kFieldBits) - 1;

std::uint64_t pack(const Search& search) {
  return search.pass | search.cls << 2 | search.lo << (2 + kFieldBits) |
         search.hi << (2 + 2 * kFieldBits);
}

Search unpack(std::uint64_t state) {
  return {(state >> 2) & kFieldMask, (state >> (2 + kFieldBits)) & kFieldMask,
          (state >> (2 + 2 * kFieldBits)) & kFieldMask, state & 3};
}

}  // namespace

CodedSearchPolicy::CodedSearchPolicy(
    const info::CondensedDistribution& prediction, CodeBackend backend) {
  const auto& q = prediction.probabilities();
  std::vector<std::size_t> lengths;
  switch (backend) {
    case CodeBackend::kHuffman:
      lengths = info::huffman_lengths(q);
      break;
    case CodeBackend::kShannonFano: {
      const info::PrefixCode code = info::shannon_fano_code(q);
      lengths.reserve(q.size());
      for (std::size_t s = 0; s < q.size(); ++s) {
        lengths.push_back(code.length(s));
      }
      break;
    }
  }
  // Group 1-based ranges by codeword length, shortest class first;
  // ranges inside a class are sorted ascending (std::map iteration and
  // insertion order give both properties).
  std::map<std::size_t, std::vector<std::size_t>> by_length;
  for (std::size_t j = 0; j < lengths.size(); ++j) {
    by_length[lengths[j]].push_back(j + 1);
  }
  for (auto& [len, ranges] : by_length) {
    lengths_.push_back(len);
    double mass = 0.0;
    for (std::size_t r : ranges) mass += prediction.prob(r);
    positive_mass_.push_back(mass > 0.0);
    classes_.push_back(std::move(ranges));
  }
  if (classes_.size() > kFieldMask) {
    throw std::invalid_argument("coded search: too many code-length classes");
  }
  for (const auto& cls : classes_) {
    if (cls.size() > kFieldMask) {
      throw std::invalid_argument("coded search: code-length class too large");
    }
    std::vector<double>& probabilities = probabilities_.emplace_back();
    for (const std::size_t r : cls) {
      probabilities.push_back(std::exp2(-static_cast<double>(r)));
    }
  }
  // Binary search inside the current class, advancing to the next class
  // when a search exhausts its window and wrapping around after the last
  // class so repeated attempts are well-defined. Classes whose ranges
  // carry no predicted mass exist only to keep the algorithm correct
  // when the prediction is infinitely diverged from reality, so they
  // are visited on every fourth pass only (pass 0 included): low-
  // entropy predictions keep an O(1)-per-pass revisit rate on their
  // likely classes, while a true range the predictor gave zero mass is
  // still searched infinitely often.
  for (std::size_t from = 0; from < classes_.size(); ++from) {
    for (std::size_t pass_mod_4 = 0; pass_mod_4 < 4; ++pass_mod_4) {
      std::size_t cls = from;
      std::size_t pass = pass_mod_4;
      do {
        if (cls + 1 == classes_.size()) {
          cls = 0;
          pass = (pass + 1) % 4;
        } else {
          ++cls;
        }
      } while (pass != 0 && !positive_mass_[cls]);
      advance_.push_back(pack({cls, 0, classes_[cls].size(), pass}));
    }
  }
}

std::size_t CodedSearchPolicy::pass_length() const {
  std::size_t total = 0;
  for (const auto& cls : classes_) {
    std::size_t probes = 1;
    std::size_t span = cls.size();
    while (span > 1) {
      span = (span + 1) / 2;
      ++probes;
    }
    total += probes;
  }
  return total;
}

CodedSearchPolicy::State CodedSearchPolicy::initial_state() const {
  return pack({0, 0, classes_[0].size(), 0});
}

CodedSearchPolicy::State CodedSearchPolicy::next_state(State state,
                                                       bool collided) const {
  Search search = unpack(state);
  const std::size_t mid = search.lo + (search.hi - search.lo) / 2;
  if (collided) {
    search.lo = mid + 1;  // probe range too small for k: larger ranges
  } else {
    search.hi = mid;  // silence: size guess too large
  }
  if (search.lo >= search.hi) return advance_[4 * search.cls + search.pass];
  return pack(search);
}

double CodedSearchPolicy::probability_at(State state) const {
  const Search search = unpack(state);
  return probabilities_[search.cls][search.lo + (search.hi - search.lo) / 2];
}

}  // namespace crp::core
