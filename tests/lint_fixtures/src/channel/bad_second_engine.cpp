// Fixture: det-one-rng — a standard engine beside channel::Rng, under
// each of its names, plus negative controls that must NOT fire.
#include <random>

#include "channel/rng.h"

namespace crp::channel {

RunResult bad_signature(std::size_t k, std::mt19937_64& rng);  // expect-lint: det-one-rng

unsigned long bad_engines() {
  std::mt19937 narrow(1);  // expect-lint: det-one-rng
  std::minstd_rand lcg(2);  // expect-lint: det-one-rng
  std::minstd_rand0 lcg0(3);  // expect-lint: det-one-rng
  std::default_random_engine fallback;  // expect-lint: det-one-rng
  std::ranlux48 lux(4);  // expect-lint: det-one-rng
  std::knuth_b shuffled(5);  // expect-lint: det-one-rng
  return narrow() + lcg() + lcg0() + fallback() + lux() + shuffled();
}

using Spelled = std::mersenne_twister_engine<  // expect-lint: det-one-rng
    unsigned, 32, 624, 397, 31, 0x9908b0df, 11, 0xffffffff, 7, 0x9d2c5680,
    15, 0xefc60000, 18, 1812433253>;

using namespace std;
mt19937_64 unqualified(7);  // expect-lint: det-one-rng

// A line that must name the engine carries an allow pragma.
// crp-lint: allow(det-one-rng) -- fixture: the audited escape hatch
std::mt19937_64 allowed_oracle(8);

std::uint64_t fine_streams(std::uint64_t seed) {
  // Negative controls: the sanctioned generators, the names in
  // comments (std::mt19937_64) and strings, and identifiers that only
  // contain an engine's name.
  Rng rng = derive_rng(seed, 0);
  SplitMix64 fast = derive_fast_rng(seed, 1);
  const char* label = "std::mt19937_64";
  const std::size_t my_mt19937_64_draws = 3;
  return rng() ^ fast() ^ label[0] ^ my_mt19937_64_draws;
}

}  // namespace crp::channel
