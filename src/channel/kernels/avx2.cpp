// AVX2 kernel backend: 4-wide ymm lanes, two vectors in flight per
// loop (8 trials), function-target pragmas so only this TU is compiled
// for AVX2 while the binary stays portable. Must be bit-identical to
// kernels/scalar.cpp on every input — see kernels.h for the contract
// and tests/kernel_test.cpp for the pins. The comments here mostly
// explain *why* a sequence matches the scalar reference; the reference
// itself documents the algorithms.
//
// AVX2 has no 64-bit integer multiply, no uint64<->double conversion,
// and no unsigned 64-bit compare, so this backend emulates:
//  * u64 * constant via three 32x32 vpmuludq partial products;
//  * uint64 -> double via the exponent-splicing trick (hi|2^84,
//    lo|2^52, subtract the biases) — exactly round-to-nearest, i.e.
//    exactly the scalar (double)x cast;
//  * small signed int64 -> double via the 2^52+2^51 bias trick;
//  * double -> int64 for the periodic skip count via cvttpd_epi32,
//    valid while the value fits 32 bits — guaranteed for every lane
//    that passes the budget pre-check when max_rounds <= 2^30, so
//    larger budgets (far past the default 2^20) delegate to scalar.

#include "channel/kernels/kernels.h"

#ifdef CRP_X86_KERNELS

#include <immintrin.h>

#include <limits>

namespace crp::channel::kernels::detail {
const Ops& scalar_ops();
}  // namespace crp::channel::kernels::detail

#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx2"))), \
                             apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx2")
#endif

namespace crp::channel::kernels {

namespace {

constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

inline __m256i set1_u64(std::uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

/// Low 64 bits of lane-wise x * c for a compile-time constant c.
inline __m256i mul64_const(__m256i x, std::uint64_t c) {
  const __m256i clo = set1_u64(c & 0xffffffffULL);
  const __m256i chi = set1_u64(c >> 32);
  const __m256i lolo = _mm256_mul_epu32(x, clo);
  const __m256i hilo = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), clo);
  const __m256i lohi = _mm256_mul_epu32(x, chi);
  const __m256i cross = _mm256_add_epi64(hilo, lohi);
  return _mm256_add_epi64(lolo, _mm256_slli_epi64(cross, 32));
}

/// SplitMix64 finalizer, lane-wise (constants shared with
/// channel/rng.h).
inline __m256i mix64(__m256i z) {
  z = mul64_const(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
                  0xbf58476d1ce4e5b9ULL);
  z = mul64_const(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
                  0x94d049bb133111ebULL);
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

/// uint64 -> double, exactly RN (== the scalar cast).
inline __m256d u64_to_pd(__m256i v) {
  const __m256d two84 = _mm256_set1_pd(19342813113834066795298816.0);
  const __m256d two52 = _mm256_set1_pd(4503599627370496.0);
  const __m256d two84_52 = _mm256_set1_pd(19342813118337666422669312.0);
  const __m256i hi =
      _mm256_or_si256(_mm256_srli_epi64(v, 32), _mm256_castpd_si256(two84));
  const __m256i lo = _mm256_blend_epi32(v, _mm256_castpd_si256(two52), 0xAA);
  return _mm256_add_pd(_mm256_sub_pd(_mm256_castsi256_pd(hi), two84_52),
                       _mm256_castsi256_pd(lo));
}

/// canonical_unit (channel/rng.h), lane-wise: bits * 2^-64 (the scale
/// is exact), with the rounded-up 1.0 clamped to 1 - 2^-53 — min_pd is
/// exactly the scalar's conditional because no lane is NaN.
inline __m256d canonical4(__m256i bits) {
  const __m256d u = _mm256_mul_pd(u64_to_pd(bits), _mm256_set1_pd(0x1p-64));
  return _mm256_min_pd(u, _mm256_set1_pd(0x1.fffffffffffffp-1));
}

/// Signed int64 in [-2^51, 2^51) -> double via the 2^52+2^51 bias.
inline __m256d i64small_to_pd(__m256i v) {
  const __m256i bias = set1_u64(0x4338000000000000ULL);  // (2^52+2^51) bits
  return _mm256_sub_pd(_mm256_castsi256_pd(_mm256_add_epi64(v, bias)),
                       _mm256_set1_pd(6755399441055744.0));  // 2^52+2^51
}

/// The first two finalized draws of per-trial streams
/// (seed, first + t + lane), lane = 0..3.
inline __m256i stream_state0(std::uint64_t seed, std::uint64_t first,
                             std::size_t t) {
  const __m256i stream1 = _mm256_add_epi64(
      set1_u64(first + static_cast<std::uint64_t>(t)),
      _mm256_set_epi64x(4, 3, 2, 1));  // stream + 1 per lane
  return mix64(_mm256_add_epi64(set1_u64(seed), mul64_const(stream1, kGamma)));
}

// ---- pass 1 ----

void pass1_uniform_avx2(std::uint64_t seed, std::size_t first_trial,
                        std::size_t count, double* u) {
  std::size_t t = 0;
  for (; t + 8 <= count; t += 8) {
    const __m256i a0 = stream_state0(seed, first_trial, t);
    const __m256i b0 = stream_state0(seed, first_trial, t + 4);
    const __m256i g = set1_u64(kGamma);
    _mm256_storeu_pd(u + t, canonical4(mix64(_mm256_add_epi64(a0, g))));
    _mm256_storeu_pd(u + t + 4, canonical4(mix64(_mm256_add_epi64(b0, g))));
  }
  if (t < count) {
    detail::scalar_ops().pass1_uniform(seed, first_trial + t, count - t,
                                       u + t);
  }
}

void pass1_uniform_pair_avx2(std::uint64_t seed, std::size_t first_trial,
                             std::size_t count, double* uk, double* u) {
  std::size_t t = 0;
  const __m256i g = set1_u64(kGamma);
  const __m256i g2 = set1_u64(2 * kGamma);
  for (; t + 8 <= count; t += 8) {
    const __m256i a0 = stream_state0(seed, first_trial, t);
    const __m256i b0 = stream_state0(seed, first_trial, t + 4);
    _mm256_storeu_pd(uk + t, canonical4(mix64(_mm256_add_epi64(a0, g))));
    _mm256_storeu_pd(uk + t + 4, canonical4(mix64(_mm256_add_epi64(b0, g))));
    _mm256_storeu_pd(u + t, canonical4(mix64(_mm256_add_epi64(a0, g2))));
    _mm256_storeu_pd(u + t + 4, canonical4(mix64(_mm256_add_epi64(b0, g2))));
  }
  if (t < count) {
    detail::scalar_ops().pass1_uniform_pair(seed, first_trial + t, count - t,
                                            uk + t, u + t);
  }
}

// ---- pass 2a: log1p ----

/// kernels::log1p_neg, lane-wise. Every branch of the scalar reference
/// becomes a lane mask; all arithmetic keeps the reference's exact
/// association (note 0.5*f*f is (0.5*f)*f), so each lane rounds
/// identically to the scalar call. Domain: x in (-1, 0].
inline __m256d log1p_neg4(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256i xb = _mm256_castpd_si256(x);
  const __m256i ax = _mm256_and_si256(xb, set1_u64(0x7fffffffffffffffULL));

  // Priority cascade of the reference's branches, as disjoint masks
  // (|x| bounds compare identically on the full 64 bits as on the
  // fdlibm high word; ax has no sign bit, so signed compares are safe).
  const __m256i m_ret = _mm256_cmpgt_epi64(set1_u64(0x3c90000000000000ULL), ax);
  const __m256i m_small = _mm256_andnot_si256(
      m_ret, _mm256_cmpgt_epi64(set1_u64(0x3e20000000000000ULL), ax));
  const __m256i m_k0raw =
      _mm256_cmpgt_epi64(set1_u64(0x3fd2bec400000000ULL), ax);
  const __m256i m_k0 =
      _mm256_andnot_si256(_mm256_or_si256(m_ret, m_small), m_k0raw);
  // The reduction branch (|x| > sqrt(2)-1) is everything else: the
  // tiny-|x| masks are strict subsets of m_k0raw.
  const __m256i m_reduce = _mm256_cmpgt_epi64(ax, set1_u64(0x3fd2bec3ffffffffULL));

  // Reduction branch, computed on every lane (all its intermediates
  // are finite for x in (-1, 0]) and blended in afterwards. In this
  // domain u = 1+x < 1, so k <= -1 and the reference's k>0 correction
  // arm never applies.
  const __m256d u1 = _mm256_add_pd(one, x);
  const __m256i ub = _mm256_castpd_si256(u1);
  __m256i k64 = _mm256_sub_epi64(_mm256_srli_epi64(ub, 52), set1_u64(1023));
  const __m256d cE =
      _mm256_div_pd(_mm256_sub_pd(x, _mm256_sub_pd(u1, one)), u1);
  const __m256i mant = _mm256_and_si256(ub, set1_u64(0x000fffffffffffffULL));
  const __m256i m_lo =
      _mm256_cmpgt_epi64(set1_u64(0x0006a09e00000000ULL), mant);
  const __m256i unorm_lo = _mm256_or_si256(mant, set1_u64(0x3ff0000000000000ULL));
  const __m256i unorm_hi = _mm256_or_si256(mant, set1_u64(0x3fe0000000000000ULL));
  k64 = _mm256_blendv_epi8(_mm256_add_epi64(k64, set1_u64(1)), k64, m_lo);
  const __m256d u2 =
      _mm256_castsi256_pd(_mm256_blendv_epi8(unorm_hi, unorm_lo, m_lo));
  const __m256i hu_lo = _mm256_srli_epi64(mant, 32);
  const __m256i hu_hi = _mm256_srli_epi64(
      _mm256_sub_epi64(set1_u64(0x00100000ULL), hu_lo), 2);
  const __m256i hu = _mm256_blendv_epi8(hu_hi, hu_lo, m_lo);
  const __m256d fE = _mm256_sub_pd(u2, one);

  // Merge the no-reduction lanes (f = x, c = 0, k = 0; hu is a nonzero
  // sentinel there, so the hu==0 shortcut stays reduction-only).
  const __m256d m_k0_pd = _mm256_castsi256_pd(m_k0);
  const __m256d f = _mm256_blendv_pd(fE, x, m_k0_pd);
  const __m256d c = _mm256_blendv_pd(cE, zero, m_k0_pd);
  k64 = _mm256_blendv_epi8(k64, _mm256_setzero_si256(), m_k0);
  const __m256i m_hu0 = _mm256_and_si256(
      _mm256_cmpeq_epi64(hu, _mm256_setzero_si256()), m_reduce);

  const __m256d dk = i64small_to_pd(k64);
  const __m256d hfsq =
      _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), f), f);
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  __m256d R = _mm256_set1_pd(1.479819860511658591e-01);  // Lp7
  R = _mm256_add_pd(_mm256_set1_pd(1.531383769920937332e-01),
                    _mm256_mul_pd(z, R));
  R = _mm256_add_pd(_mm256_set1_pd(1.818357216161805012e-01),
                    _mm256_mul_pd(z, R));
  R = _mm256_add_pd(_mm256_set1_pd(2.222219843214978396e-01),
                    _mm256_mul_pd(z, R));
  R = _mm256_add_pd(_mm256_set1_pd(2.857142874366239149e-01),
                    _mm256_mul_pd(z, R));
  R = _mm256_add_pd(_mm256_set1_pd(3.999999999940941908e-01),
                    _mm256_mul_pd(z, R));
  R = _mm256_add_pd(_mm256_set1_pd(6.666666666666735130e-01),
                    _mm256_mul_pd(z, R));
  R = _mm256_mul_pd(z, R);

  const __m256d khi = _mm256_mul_pd(dk, _mm256_set1_pd(6.93147180369123816490e-01));
  const __m256d clo = _mm256_add_pd(
      c, _mm256_mul_pd(dk, _mm256_set1_pd(1.90821492927058770002e-10)));
  const __m256d t1 = _mm256_mul_pd(s, _mm256_add_pd(hfsq, R));

  const __m256d res_reduce = _mm256_sub_pd(
      khi,
      _mm256_sub_pd(_mm256_sub_pd(hfsq, _mm256_add_pd(t1, clo)), f));
  const __m256d res_k0 = _mm256_sub_pd(f, _mm256_sub_pd(hfsq, t1));
  const __m256d Rs = _mm256_mul_pd(
      hfsq, _mm256_sub_pd(one, _mm256_mul_pd(
                                   _mm256_set1_pd(0.66666666666666666), f)));
  const __m256d res_hu0 = _mm256_sub_pd(
      khi, _mm256_sub_pd(_mm256_sub_pd(Rs, clo), f));
  const __m256d res_hu0_f0 = _mm256_add_pd(khi, clo);
  const __m256d m_f0 = _mm256_cmp_pd(f, zero, _CMP_EQ_OQ);
  const __m256d m_hu0_pd = _mm256_castsi256_pd(m_hu0);

  __m256d res = res_reduce;
  res = _mm256_blendv_pd(res, res_k0, m_k0_pd);
  res = _mm256_blendv_pd(res, res_hu0, _mm256_andnot_pd(m_f0, m_hu0_pd));
  res = _mm256_blendv_pd(res, res_hu0_f0, _mm256_and_pd(m_f0, m_hu0_pd));
  const __m256d small = _mm256_sub_pd(
      x, _mm256_mul_pd(_mm256_mul_pd(x, x), _mm256_set1_pd(0.5)));
  res = _mm256_blendv_pd(res, small, _mm256_castsi256_pd(m_small));
  res = _mm256_blendv_pd(res, x, _mm256_castsi256_pd(m_ret));
  return res;
}

void map_targets_avx2(double* u, std::size_t count) {
  const __m256i sign = set1_u64(0x8000000000000000ULL);
  std::size_t t = 0;
  for (; t + 8 <= count; t += 8) {
    // -u flips u = +0 to -0 exactly as the scalar negation does.
    const __m256d a = _mm256_castsi256_pd(
        _mm256_xor_si256(_mm256_castpd_si256(_mm256_loadu_pd(u + t)), sign));
    const __m256d b = _mm256_castsi256_pd(_mm256_xor_si256(
        _mm256_castpd_si256(_mm256_loadu_pd(u + t + 4)), sign));
    _mm256_storeu_pd(u + t, log1p_neg4(a));
    _mm256_storeu_pd(u + t + 4, log1p_neg4(b));
  }
  if (t < count) detail::scalar_ops().map_targets(u + t, count - t);
}

// ---- pass 2b: probes ----

/// The branchless descent of probe_first_below_padded, 4 lanes per
/// gather: pos advances by step exactly where padded[pos+step] >=
/// target (ordered compare, so a NaN residual in a doomed lane keeps
/// pos at 0), and the final first = pos+1 is clamped to `rounds`.
/// Gather indices stay in [0, padded_size) by the descent invariant.
inline __m256i probe4(const double* padded, std::size_t padded_size,
                      std::size_t rounds, __m256d target) {
  __m256i pos = _mm256_setzero_si256();
  for (std::size_t step = padded_size >> 1; step > 0; step >>= 1) {
    const __m256i stepv = set1_u64(step);
    const __m256i idx = _mm256_add_epi64(pos, stepv);
    const __m256d v = _mm256_i64gather_pd(padded, idx, 8);
    const __m256d ge = _mm256_cmp_pd(v, target, _CMP_GE_OQ);
    pos = _mm256_add_epi64(pos,
                           _mm256_and_si256(_mm256_castpd_si256(ge), stepv));
  }
  const __m256i first = _mm256_add_epi64(pos, set1_u64(1));
  const __m256i roundsv = set1_u64(rounds);
  const __m256i gt = _mm256_cmpgt_epi64(first, roundsv);
  return _mm256_blendv_epi8(first, roundsv, gt);
}

/// One 4-lane slice of the aperiodic search: round = probe where
/// back < target, else 0; then the budget clamp.
inline __m256i aperiodic4(const ProbeTable& table, __m256d target) {
  const __m256d serve =
      _mm256_cmp_pd(_mm256_set1_pd(table.back), target, _CMP_LT_OQ);
  const __m256i first =
      probe4(table.padded, table.padded_size, table.rounds, target);
  __m256i round = _mm256_and_si256(_mm256_castpd_si256(serve), first);
  const __m256i over =
      _mm256_cmpgt_epi64(round, set1_u64(table.max_rounds));
  return _mm256_andnot_si256(over, round);
}

/// One 4-lane slice of the periodic search (finite per-period mass):
/// analytic whole-period skip, residual probe, budget clamps. Returns
/// the rounds vector and reports lanes needing the scalar period-edge
/// retry (first == rounds without a budget excuse) in *retry — the
/// caller patches those through search_one, reproducing the
/// reference's skipped += 1.0 loop exactly.
inline __m256i periodic4(const ProbeTable& table, __m256d target,
                         int* retry) {
  const std::size_t span = table.rounds - 1;
  const __m256d per_period = _mm256_set1_pd(table.back);
  const __m256d skipped =
      _mm256_floor_pd(_mm256_div_pd(target, per_period));
  const __m256d skip_rounds =
      _mm256_mul_pd(skipped, _mm256_set1_pd(static_cast<double>(span)));
  const __m256d pre = _mm256_cmp_pd(
      skip_rounds, _mm256_set1_pd(static_cast<double>(table.max_rounds)),
      _CMP_GE_OQ);  // provably past the budget -> 0
  const __m256d residual =
      _mm256_sub_pd(target, _mm256_mul_pd(skipped, per_period));
  const __m256i first =
      probe4(table.padded, table.padded_size, table.rounds, residual);
  // skipped fits 32 bits on every lane that survives the pre-check
  // (skipped * span < max_rounds <= 2^30, span >= 1), so the epi32
  // truncation and the 32x32 vpmuludq below are exact there; excluded
  // lanes produce garbage that the pre blend discards.
  const __m256i ski =
      _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(skipped));
  const __m256i base = _mm256_mul_epu32(ski, set1_u64(span));
  __m256i round = _mm256_add_epi64(base, first);
  round = _mm256_andnot_si256(_mm256_castpd_si256(pre), round);
  const __m256i over =
      _mm256_cmpgt_epi64(round, set1_u64(table.max_rounds));
  round = _mm256_andnot_si256(over, round);
  const __m256i at_edge = _mm256_cmpeq_epi64(first, set1_u64(table.rounds));
  *retry = _mm256_movemask_pd(_mm256_andnot_pd(
      pre, _mm256_castsi256_pd(at_edge)));
  return round;
}

/// One 4-lane slice of the certain-periodic search (per-period mass
/// -inf: every draw solves within the first period, no skip
/// arithmetic — 0 * -inf would be NaN). The probe cannot hit the table
/// edge (the -inf entry fails the >= compare), so no retry lanes.
inline __m256i certain4(const ProbeTable& table, __m256d target) {
  const __m256i first =
      probe4(table.padded, table.padded_size, table.rounds, target);
  const __m256i over =
      _mm256_cmpgt_epi64(first, set1_u64(table.max_rounds));
  return _mm256_andnot_si256(over, first);
}

void probe_rounds_avx2(const ProbeTable& table, const double* targets,
                       std::size_t count, std::uint64_t* rounds) {
  // Budgets (or periods) past 2^30 would overflow the 32-bit skip
  // emulation; the default budget is 2^20, so this delegation is a
  // safety valve, not a hot path.
  if (table.max_rounds > (std::size_t{1} << 30) ||
      table.rounds > (std::size_t{1} << 30)) {
    detail::scalar_ops().probe_rounds(table, targets, count, rounds);
    return;
  }
  auto* out = reinterpret_cast<long long*>(rounds);
  std::size_t t = 0;
  if (!table.periodic) {
    for (; t + 8 <= count; t += 8) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + t),
          aperiodic4(table, _mm256_loadu_pd(targets + t)));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + t + 4),
          aperiodic4(table, _mm256_loadu_pd(targets + t + 4)));
    }
  } else if (!(table.back < 0.0)) {
    // A non-negative per-period mass means no round in the period can
    // succeed: every lane reports 0, like the reference.
    for (; t < count; ++t) rounds[t] = 0;
    return;
  } else if (table.back == -std::numeric_limits<double>::infinity()) {
    for (; t + 8 <= count; t += 8) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + t),
                          certain4(table, _mm256_loadu_pd(targets + t)));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + t + 4),
          certain4(table, _mm256_loadu_pd(targets + t + 4)));
    }
  } else {
    for (; t + 8 <= count; t += 8) {
      int retry_a = 0, retry_b = 0;
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + t),
          periodic4(table, _mm256_loadu_pd(targets + t), &retry_a));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + t + 4),
          periodic4(table, _mm256_loadu_pd(targets + t + 4), &retry_b));
      const unsigned retry = static_cast<unsigned>(retry_a) |
                             (static_cast<unsigned>(retry_b) << 4);
      for (unsigned bits = retry; bits != 0; bits &= bits - 1) {
        const unsigned lane =
            static_cast<unsigned>(__builtin_ctz(bits));
        rounds[t + lane] = search_one(table, targets[t + lane]);
      }
    }
  }
  for (; t < count; ++t) rounds[t] = search_one(table, targets[t]);
}

/// probe_cdf by broadcast compares: counts the padded[1 .. padded_size)
/// entries <= u lane by lane, 8 lanes at a time, until an entry exceeds
/// every lane's draw. The padded array (sentinel, CDF, +inf) is
/// non-decreasing, so the count is the descent's landing index for
/// every u, u = +inf included. A compare lane is all ones (-1), so
/// subtracting it counts.
void probe_cdf_avx2(const CdfTable& table, const double* u, std::size_t count,
                    std::uint64_t* index) {
  auto* out = reinterpret_cast<long long*>(index);
  std::size_t t = 0;
  for (; t + 8 <= count; t += 8) {
    const __m256d a = _mm256_loadu_pd(u + t);
    const __m256d b = _mm256_loadu_pd(u + t + 4);
    __m256i ca = _mm256_setzero_si256(), cb = _mm256_setzero_si256();
    for (std::size_t j = 1; j < table.padded_size; ++j) {
      const __m256d v = _mm256_set1_pd(table.padded[j]);
      const __m256d ma = _mm256_cmp_pd(v, a, _CMP_LE_OQ);
      const __m256d mb = _mm256_cmp_pd(v, b, _CMP_LE_OQ);
      if (_mm256_movemask_pd(_mm256_or_pd(ma, mb)) == 0) break;
      ca = _mm256_sub_epi64(ca, _mm256_castpd_si256(ma));
      cb = _mm256_sub_epi64(cb, _mm256_castpd_si256(mb));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + t), ca);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + t + 4), cb);
  }
  for (; t < count; ++t) index[t] = probe_cdf_one(table, u[t]);
}

// ---- support slots ----

/// The low 32 bits of each 64-bit lane, packed into 128 bits (every
/// slot count fits 32 bits).
inline __m128i low32(__m256i v) {
  return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
      v, _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6)));
}

void slot_lookup_avx2(const double* cumulative, std::size_t entries,
                      const double* uk, std::size_t count,
                      std::uint32_t* slot) {
  // Longer supports run the scalar descent (kShortTable).
  std::size_t t = 0;
  if (entries <= kShortTable) {
    // Broadcast compares: 8 lanes count the entries below their draw
    // until an entry reaches every lane's draw.
    for (; t + 8 <= count; t += 8) {
      const __m256d a = _mm256_loadu_pd(uk + t);
      const __m256d b = _mm256_loadu_pd(uk + t + 4);
      __m256i ca = _mm256_setzero_si256(), cb = _mm256_setzero_si256();
      for (std::size_t j = 0; j < entries; ++j) {
        const __m256d v = _mm256_set1_pd(cumulative[j]);
        const __m256d ma = _mm256_cmp_pd(v, a, _CMP_LT_OQ);
        const __m256d mb = _mm256_cmp_pd(v, b, _CMP_LT_OQ);
        if (_mm256_movemask_pd(_mm256_or_pd(ma, mb)) == 0) break;
        ca = _mm256_sub_epi64(ca, _mm256_castpd_si256(ma));
        cb = _mm256_sub_epi64(cb, _mm256_castpd_si256(mb));
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(slot + t), low32(ca));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(slot + t + 4), low32(cb));
    }
  }
  if (t < count) {
    detail::scalar_ops().slot_lookup(cumulative, entries, uk + t, count - t,
                                     slot + t);
  }
}

}  // namespace

namespace detail {

const Ops& avx2_ops() {
  static const Ops ops = {
      &pass1_uniform_avx2, &pass1_uniform_pair_avx2, &map_targets_avx2,
      &probe_rounds_avx2, &probe_cdf_avx2, &slot_lookup_avx2,
  };
  return ops;
}

}  // namespace detail

}  // namespace crp::channel::kernels

#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif

#endif  // CRP_X86_KERNELS
