// Deterministic random number generation for reproducible experiments.
// Every simulation entry point takes an explicit engine; these helpers
// derive independent streams from a master seed so that parameter
// sweeps and Monte-Carlo repetitions are replayable bit-for-bit.
// Depends on the standard library only.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace crp::channel {

/// Splitmix64-finalizer mix of (seed, stream): the one seed-derivation
/// rule shared by derive_rng, derive_rngs, derive_fast_rng, and the
/// sweep scheduler's per-cell seeds (harness/sweep.h). Mixing avoids
/// correlated low-entropy seeds such as consecutive integers.
inline std::uint64_t derive_stream_seed(std::uint64_t seed,
                                        std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Streams derive_rngs seeds together: the key expansions of this many
/// independent streams run interleaved in one loop.
inline constexpr std::size_t kSeedLanes = 8;

/// The per-trial generator: for every seed and every number of draws
/// its outputs equal std::mt19937_64's (the standard's
/// mersenne_twister_engine with w=64, n=312, m=156, r=31,
/// f=6364136223846793005), so every std distribution fed from it draws
/// the same values — tests/rng_test.cpp holds that line with
/// std::mt19937_64 as the oracle.
///
/// The difference is cost. std::mt19937_64 runs its serial 312-word key
/// expansion in the constructor and a 312-word twist on the first draw.
/// Rng seeds in O(1) and runs both only as far as the draws taken so
/// far need: output j < 156 of the first twist reads expanded words
/// 0..j+1 and j+156, so the first draw expands 172 words and twists 16,
/// and each later extension doubles the twisted prefix until the first
/// twist is whole (six extensions up to draw 312). From then on it is
/// std::mt19937_64: one full twist every 312 draws, and the hot path
/// is one compare plus tempering. A per-trial stream that takes a
/// dozen draws (a simulated coded-search trial) pays for about half the
/// key expansion and none of the twist it never reads. derive_rngs
/// seeds kSeedLanes streams at once and runs their first-draw key
/// expansions interleaved, so the serial multiply chains overlap.
///
/// The twist is branch-free (see twist()): the matrix term is selected
/// by a mask of the word's low bit, which is random, so a jump on it
/// would mispredict on about half the twisted words. Measured with
/// bench_layers' BM_DerivedStreamDraws on a 4-core Xeon (avx512) VM,
/// GCC 12 -O3, a lane-seeded stream costs about 0.14 µs with one draw,
/// 0.17 µs with 16, 0.40 µs with 40 and 2.2 µs with 400 (one full
/// twist), against 0.20, 0.23, 0.65 and 4.4 µs with the branch.
///
/// Same size as std::mt19937_64. Satisfies
/// std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type default_seed = 5489u;

  Rng() : Rng(default_seed) {}
  explicit Rng(result_type seed) { x_[0] = seed; }

  // Copies move only the words computed so far (see x_).
  Rng(const Rng& other)
      : pos_(other.pos_), ready_(other.ready_), expanded_(other.expanded_) {
    std::copy_n(other.x_.begin(), expanded_, x_.begin());
  }
  Rng& operator=(const Rng& other) {
    if (this != &other) {
      pos_ = other.pos_;
      ready_ = other.ready_;
      expanded_ = other.expanded_;
      std::copy_n(other.x_.begin(), expanded_, x_.begin());
    }
    return *this;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= ready_) [[unlikely]] {
      refill();
    }
    result_type z = x_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// Advances by z draws, as z calls of operator() would.
  void discard(unsigned long long z) {
    while (z > static_cast<unsigned long long>(ready_ - pos_)) {
      z -= static_cast<unsigned long long>(ready_ - pos_);
      pos_ = ready_;
      refill();
    }
    pos_ = static_cast<std::uint16_t>(pos_ + z);
  }

  /// std semantics: equal iff the std::mt19937_64 states the two stand
  /// for are equal, however much lazy work each has done (a stream
  /// from derive_rngs has expanded words a fresh Rng(seed) has not).
  /// Two unstarted streams compare their seeds; otherwise both sides
  /// are compared as the 312 words std holds (std_state).
  friend bool operator==(const Rng& a, const Rng& b) {
    if (a.std_position() != b.std_position()) return false;
    if (a.ready_ == 0 && b.ready_ == 0) return a.x_[0] == b.x_[0];
    return a.std_state() == b.std_state();
  }

  friend void derive_rngs(std::uint64_t seed, std::uint64_t first_stream,
                          std::span<Rng> out);

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::uint16_t kFirstChunk = 16;
  /// Words the first draw expands: those the first chunk's twist reads.
  static constexpr std::uint16_t kFirstExpansion = kFirstChunk + kM;

  /// One word of the standard's twist. The matrix is selected by a
  /// mask, not a ternary: GCC turns the ternary into a jump on the
  /// word's low bit, which is random and so mispredicts on about half
  /// of the twisted words, while the mask keeps both twist loops
  /// straight-line (and lets them vectorize).
  static result_type twist(result_type hi, result_type lo) {
    constexpr result_type kUpper = ~result_type{0} << 31;
    const result_type y = (hi & kUpper) | (lo & ~kUpper);
    return (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9ULL);
  }

  /// Key expansion of words [expanded_, end), end >= expanded_. Word
  /// expanded_ - 1 still holds its expanded (untwisted) value: twisting
  /// never passes kN - kM while the expansion is unfinished.
  void expand_to(std::size_t end) {
    result_type v = x_[expanded_ - 1];
    for (std::size_t i = expanded_; i < end; ++i) {
      v = 6364136223846793005ULL * (v ^ (v >> 62)) + i;
      x_[i] = v;
    }
    expanded_ = static_cast<std::uint16_t>(end);
  }

  /// Words [begin, end) of the twist in progress, the standard's loop
  /// cut into pieces: words below `begin` are already twisted, words
  /// from `begin` on (and at least up to min(end, kN - kM) + kM) are
  /// still the previous state.
  void twist_range(std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < std::min(end, kN - kM); ++k) {
      x_[k] = x_[k + kM] ^ twist(x_[k], x_[k + 1]);
    }
    for (std::size_t k = std::max(begin, kN - kM); k < std::min(end, kN - 1);
         ++k) {
      x_[k] = x_[k + kM - kN] ^ twist(x_[k], x_[k + 1]);
    }
    if (end == kN) {
      x_[kN - 1] = x_[kM - 1] ^ twist(x_[kN - 1], x_[0]);
    }
  }

  /// The slow path of operator() and discard: extend the lazy first
  /// twist (doubling the twisted prefix), or run the next full twist.
  [[gnu::noinline]] void refill() {
    if (ready_ == kN) {
      twist_range(0, kN);
      pos_ = 0;
      return;
    }
    const std::size_t end = std::min<std::size_t>(
        kN, std::max<std::size_t>(kFirstChunk, 2 * ready_));
    expand_to(std::min(kN, end + kM));
    twist_range(ready_, end);
    ready_ = static_cast<std::uint16_t>(end);
  }

  /// std::mt19937_64's position: kN before the first draw, as after
  /// seeding; pos_ (at least 1) from the first draw on.
  std::size_t std_position() const { return ready_ == 0 ? kN : pos_; }

  /// The 312 words std::mt19937_64 holds in this state: the expanded
  /// key before the first draw, the whole first twist while it is still
  /// lazily in progress, and x_ itself after it.
  std::array<result_type, kN> std_state() const {
    Rng whole(*this);
    whole.expand_to(kN);
    if (whole.ready_ != 0 && whole.ready_ != kN) {
      whole.twist_range(whole.ready_, kN);
    }
    return whole.x_;
  }

  /// derive_rngs' body for `Lanes` consecutive streams: every lane's
  /// seed, then the kFirstExpansion-word key expansion with the lanes
  /// interleaved in the inner loop, so their multiply chains overlap.
  /// Out of line and unrolled so every lane's word stays in a register
  /// at -O2 as well as -O3 (a spilled lane puts a store-to-load round
  /// trip on its chain).
  template <std::size_t Lanes>
  [[gnu::noinline]] static void seed_lanes(std::uint64_t seed,
                                           std::uint64_t first_stream,
                                           Rng* out) {
    std::array<result_type, Lanes> v;
    for (std::size_t j = 0; j < Lanes; ++j) {
      v[j] = derive_stream_seed(seed, first_stream + j);
      out[j].x_[0] = v[j];
      out[j].pos_ = 0;
      out[j].ready_ = 0;
      out[j].expanded_ = kFirstExpansion;
    }
    for (std::size_t i = 1; i < kFirstExpansion; ++i) {
#pragma GCC unroll 8
      for (std::size_t j = 0; j < Lanes; ++j) {
        v[j] = 6364136223846793005ULL * (v[j] ^ (v[j] >> 62)) + i;
        out[j].x_[i] = v[j];
      }
    }
  }

  // Left uninitialized on purpose: zeroing it would write the 312 words
  // the lazy seeding exists to skip. Words from expanded_ on are never
  // read (expand_to writes them first; copies stop at expanded_, and
  // std_state expands a copy before reading them).
  std::array<result_type, kN> x_;  // words [0, expanded_) are valid
  std::uint16_t pos_ = 0;          // next word to temper and return
  std::uint16_t ready_ = 0;        // words [0, ready_) are twisted
  std::uint16_t expanded_ = 1;     // words [0, expanded_) are expanded
};

/// A seeded stream (std::mt19937_64's outputs for `seed`).
inline Rng make_rng(std::uint64_t seed) { return Rng{seed}; }

/// Derives an independent stream for stream `stream` of experiment
/// `seed`: the per-trial generator of every simulated measurement path
/// (channel/engine.h). Constructing it costs one word store; the
/// expansion and twist run as its draws need them (see Rng).
inline Rng derive_rng(std::uint64_t seed, std::uint64_t stream) {
  return Rng{derive_stream_seed(seed, stream)};
}

/// Sets out[j] to derive_rng(seed, first_stream + j) for every j — the
/// same streams, draw for draw and under == — with the key expansion
/// their first draws need already run, kSeedLanes streams at a time in
/// one interleaved loop (the serial expansion is most of a fresh
/// stream's cost). The per-trial adapters (channel/engine.h) seed
/// their streams this way.
inline void derive_rngs(std::uint64_t seed, std::uint64_t first_stream,
                        std::span<Rng> out) {
  std::size_t j = 0;
  for (; j + kSeedLanes <= out.size(); j += kSeedLanes) {
    Rng::seed_lanes<kSeedLanes>(seed, first_stream + j, out.data() + j);
  }
  for (; j < out.size(); ++j) {
    Rng::seed_lanes<1>(seed, first_stream + j, out.data() + j);
  }
}

/// A splitmix64 engine: one add and a three-stage mix per draw, and
/// free to seed. Measured on a 4-core Xeon (avx512) VM at -O3, a fresh
/// stream plus one draw costs about 4 ns for SplitMix64, 0.4 µs for a
/// lone Rng (whose first draw still runs 171 serial key-expansion
/// steps; about 0.14 µs when derive_rngs seeds it with seven others)
/// and 2.3–2.9 µs for std::mt19937_64 (312 steps plus a 312-word
/// twist).
/// Rng's cost is small beside a simulated trial but dominates once the
/// batch engine (channel/batch.h) prices a whole trial at two or three
/// draws, so the batch measurement paths derive one of these per trial
/// instead.
/// Satisfies std::uniform_random_bit_generator.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// The canonical [0, 1) uniform the batch paths build from one 64-bit
/// draw: bit-identical to std::uniform_real_distribution<double>(0, 1)
/// over a full-range 64-bit engine under libstdc++ (whose
/// generate_canonical computes double(bits) * 2^-64 and clamps the
/// rounded-up 1.0 back into range). Spelled out here so the lane
/// kernels (channel/kernels/) and the scalar engines provably share
/// one conversion — the per-trial draw sequence is part of the
/// bit-determinism contract and must not drift with the standard
/// library's implementation.
inline double canonical_unit(std::uint64_t bits) {
  const double u = static_cast<double>(bits) * 0x1p-64;
  return u >= 1.0 ? 0x1.fffffffffffffp-1 : u;
}

/// Counterpart of derive_rng for the lightweight engine: independent,
/// replayable stream per (seed, stream) pair. The stream index is
/// mixed through the splitmix64 finalizer before seeding — seeding
/// with `seed + gamma * stream` directly would make stream t a
/// one-draw-shifted copy of stream t + 1 (gamma is exactly the
/// engine's per-draw increment), serially correlating consecutive
/// trials.
inline SplitMix64 derive_fast_rng(std::uint64_t seed, std::uint64_t stream) {
  return SplitMix64(derive_stream_seed(seed, stream));
}

}  // namespace crp::channel
