// Scalar kernel backend — the reference implementation every vector
// tier must match bit for bit (see kernels.h for the contract). This
// TU is compiled for the portable ISA only; keep it free of anything
// target-specific so "what the scalar tier computes" never depends on
// the build host.

#include "channel/kernels/kernels.h"

#include <bit>
#include <cmath>

#include "channel/rng.h"

namespace crp::channel::kernels {

namespace {

// SplitMix64 per-draw increment and finalizer — the same constants as
// channel/rng.h's SplitMix64/derive_stream_seed. The kernels re-derive
// the streams arithmetically (stream t's n-th draw is
// mix(mix(seed + gamma*(t+1)) + n*gamma)) so a lane can sit at any
// (trial, draw) coordinate without per-trial object state.
constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void pass1_uniform_scalar(std::uint64_t seed, std::size_t first_trial,
                          std::size_t count, double* u) {
  for (std::size_t t = 0; t < count; ++t) {
    const std::uint64_t s0 =
        mix64(seed + kGamma * (static_cast<std::uint64_t>(first_trial + t) + 1));
    u[t] = canonical_unit(mix64(s0 + kGamma));
  }
}

void pass1_uniform_pair_scalar(std::uint64_t seed, std::size_t first_trial,
                               std::size_t count, double* uk, double* u) {
  for (std::size_t t = 0; t < count; ++t) {
    const std::uint64_t s0 =
        mix64(seed + kGamma * (static_cast<std::uint64_t>(first_trial + t) + 1));
    uk[t] = canonical_unit(mix64(s0 + kGamma));
    u[t] = canonical_unit(mix64(s0 + 2 * kGamma));
  }
}

void map_targets_scalar(double* u, std::size_t count) {
  for (std::size_t t = 0; t < count; ++t) {
    u[t] = log1p_neg(-u[t]);
  }
}

void probe_rounds_scalar(const ProbeTable& table, const double* targets,
                         std::size_t count, std::uint64_t* rounds) {
  for (std::size_t t = 0; t < count; ++t) {
    rounds[t] = search_one(table, targets[t]);
  }
}

void probe_cdf_scalar(const CdfTable& table, const double* u,
                      std::size_t count, std::uint64_t* index) {
  for (std::size_t t = 0; t < count; ++t) {
    index[t] = probe_cdf_one(table, u[t]);
  }
}

void slot_lookup_scalar(const double* cumulative, std::size_t entries,
                        const double* uk, std::size_t count,
                        std::uint32_t* slot) {
  for (std::size_t t = 0; t < count; ++t) {
    slot[t] = static_cast<std::uint32_t>(
        lower_bound_count(cumulative, entries, uk[t]));
  }
}

std::uint32_t hi32(double x) {
  return static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(x) >> 32);
}

double set_hi(double x, std::uint32_t hi) {
  std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  bits = (static_cast<std::uint64_t>(hi) << 32) | (bits & 0xffffffffULL);
  return std::bit_cast<double>(bits);
}

}  // namespace

// fdlibm-style log1p (Sun Microsystems' freely-distributable libm
// algorithm: argument reduction 1+x = 2^k (1+f) with |f| < sqrt(2)-1,
// a 7-term odd polynomial in f/(2+f), and an exactly-representable
// ln2_hi/ln2_lo split), specialized to the x in (-1, 0] domain the
// target map uses: the x >= 1 reduction branch and the NaN/-1 guards
// are dropped, everything else is kept verbatim so the result stays
// within 1 ulp of a correctly-rounded log1p across the domain.
double log1p_neg(double x) {
  static const double ln2_hi = 6.93147180369123816490e-01;
  static const double ln2_lo = 1.90821492927058770002e-10;
  static const double Lp1 = 6.666666666666735130e-01,
                      Lp2 = 3.999999999940941908e-01,
                      Lp3 = 2.857142874366239149e-01,
                      Lp4 = 2.222219843214978396e-01,
                      Lp5 = 1.818357216161805012e-01,
                      Lp6 = 1.531383769920937332e-01,
                      Lp7 = 1.479819860511658591e-01;
  const std::int32_t hx = static_cast<std::int32_t>(hi32(x));
  const std::int32_t ax = hx & 0x7fffffff;
  double f = x, c = 0.0, u;
  std::int32_t k = 0, hu = 1;
  if (ax < 0x3e200000) {            /* |x| < 2^-29 */
    if (ax < 0x3c900000) return x;  /* |x| < 2^-54: log(1+x) = x to 1 ulp */
    return x - x * x * 0.5;
  }
  if (hx > 0 || hx <= static_cast<std::int32_t>(0xbfd2bec3)) {
    // |x| <= sqrt(2)-1: no exponent reduction (k = 0), f = x directly.
    k = 0;
    f = x;
    hu = 1;
  } else {
    u = 1.0 + x;
    std::int32_t ihu = static_cast<std::int32_t>(hi32(u));
    k = (ihu >> 20) - 1023;
    c = (k > 0) ? 1.0 - (u - x) : x - (u - 1.0);  // exact correction term
    c /= u;
    ihu &= 0x000fffff;
    if (ihu < 0x6a09e) {  // mantissa of sqrt(2)
      u = set_hi(u, static_cast<std::uint32_t>(ihu | 0x3ff00000));
    } else {
      k += 1;
      u = set_hi(u, static_cast<std::uint32_t>(ihu | 0x3fe00000));
      ihu = (0x00100000 - ihu) >> 2;
    }
    f = u - 1.0;
    hu = ihu;
  }
  const double hfsq = 0.5 * f * f;
  if (hu == 0) {  // |f| < 2^-20: shortcut polynomial
    if (f == 0.0) {
      if (k == 0) return 0.0;
      c += k * ln2_lo;
      return k * ln2_hi + c;
    }
    const double R = hfsq * (1.0 - 0.66666666666666666 * f);
    if (k == 0) return f - R;
    return k * ln2_hi - ((R - (c + k * ln2_lo)) - f);
  }
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double R =
      z * (Lp1 +
           z * (Lp2 + z * (Lp3 + z * (Lp4 + z * (Lp5 + z * (Lp6 + z * Lp7))))));
  if (k == 0) return f - (hfsq - s * (hfsq + R));
  return k * ln2_hi - ((hfsq - (s * (hfsq + R) + (c + k * ln2_lo))) - f);
}

std::size_t probe_first_below_padded(const double* padded,
                                     std::size_t padded_size,
                                     std::size_t rounds, double target) {
  std::size_t pos = 0;
  for (std::size_t step = padded_size >> 1; step > 0; step >>= 1) {
    pos += step * static_cast<std::size_t>(padded[pos + step] >= target);
  }
  const std::size_t first_below = pos + 1;
  return first_below < rounds ? first_below : rounds;
}

std::size_t search_one(const ProbeTable& table, double target) {
  const std::size_t span = table.rounds - 1;  // rounds covered
  std::size_t round = 0;                      // 1-based; 0 = past budget
  if (table.periodic) {
    const double per_period = table.back;
    if (per_period < 0.0) {
      // Whole periods are skipped analytically; a sure-success round
      // inside the period (per_period = -inf) means every draw solves
      // within the first one — and must not enter the arithmetic,
      // because 0 * -inf is NaN. The skipped += 1.0 retry absorbs
      // floating-point rounding at a period edge.
      const bool certain = std::isinf(per_period);
      double skipped = certain ? 0.0 : std::floor(target / per_period);
      while (round == 0) {
        if (skipped * static_cast<double>(span) >=
            static_cast<double>(table.max_rounds)) {
          break;  // provably past the budget; avoid overflowing below
        }
        const double residual =
            certain ? target : target - skipped * per_period;
        const std::size_t first = probe_first_below_padded(
            table.padded, table.padded_size, table.rounds, residual);
        if (first < table.rounds) {
          round = static_cast<std::size_t>(skipped) * span + first;
        } else {
          skipped += 1.0;
        }
      }
    }
  } else if (table.back < target) {
    round = probe_first_below_padded(table.padded, table.padded_size,
                                     table.rounds, target);
  }
  return round > table.max_rounds ? 0 : round;
}

std::size_t probe_cdf_one(const CdfTable& table, double u) {
  // Largest padded index with padded[pos] <= u; the sentinel at [0]
  // keeps the invariant rooted, the +inf padding keeps pos <= entries.
  // Minus the sentinel offset this is exactly upper_bound's index.
  std::size_t pos = 0;
  for (std::size_t step = table.padded_size >> 1; step > 0; step >>= 1) {
    pos += step * static_cast<std::size_t>(table.padded[pos + step] <= u);
  }
  return pos;
}

namespace detail {

const Ops& scalar_ops() {
  static const Ops ops = {
      &pass1_uniform_scalar, &pass1_uniform_pair_scalar, &map_targets_scalar,
      &probe_rounds_scalar, &probe_cdf_scalar, &slot_lookup_scalar,
  };
  return ops;
}

}  // namespace detail

}  // namespace crp::channel::kernels
