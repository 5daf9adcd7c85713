// AVX2 kernel backend: the lane adapter for 4-wide ymm lanes (two
// vectors, 8 trials, in flight per loop of kernels/lanes.h), with
// function-target pragmas so only this TU is compiled for AVX2 while
// the binary stays portable. Masks are all-ones/all-zeros 64-bit lanes.
//
// AVX2 has no 64-bit integer multiply, no uint64<->double conversion,
// and no unsigned 64-bit compare, so this adapter emulates:
//  * u64 * constant via three 32x32 vpmuludq partial products;
//  * uint64 -> double via the exponent-splicing trick (hi|2^84,
//    lo|2^52, subtract the biases) — exactly round-to-nearest, i.e.
//    exactly the scalar (double)x cast;
//  * small signed int64 -> double via the 2^52+2^51 bias trick;
//  * the unsigned compare via the signed one, exact while both
//    operands are below 2^63;
//  * double -> int64 for the periodic skip count via cvttpd_epi32, and
//    its product with the span via vpmuludq: exact while both fit 32
//    bits, as on every lane that passes the budget pre-check
//    (skipped * span < max_rounds) when max_rounds <= 2^30.

#include "channel/kernels/kernels.h"

#ifdef CRP_X86_KERNELS

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <limits>

#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx2"))), \
                             apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx2")
#endif

#include "channel/kernels/lanes.h"

namespace crp::channel::kernels {

namespace {

struct Avx2 {
  using I = __m256i;
  using D = __m256d;
  using M = __m256i;
  static constexpr std::size_t kWidth = 4;

  static D load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, D v) { _mm256_storeu_pd(p, v); }
  static void store(std::uint64_t* p, I v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static void store(std::uint32_t* p, I v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                     _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
                         v, _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6))));
  }
  static D gather(const double* base, I idx) {
    return _mm256_i64gather_pd(base, idx, 8);
  }

  static I set1(std::uint64_t v) {
    return _mm256_set1_epi64x(static_cast<long long>(v));
  }
  static D set1_pd(double v) { return _mm256_set1_pd(v); }
  static I iota1() { return _mm256_set_epi64x(4, 3, 2, 1); }

  static D as_pd(I v) { return _mm256_castsi256_pd(v); }
  static I as_int(D v) { return _mm256_castpd_si256(v); }
  static I band(I a, I b) { return _mm256_and_si256(a, b); }
  static I bor(I a, I b) { return _mm256_or_si256(a, b); }
  static I bxor(I a, I b) { return _mm256_xor_si256(a, b); }
  template <int N>
  static I srli(I v) { return _mm256_srli_epi64(v, N); }

  static I add(I a, I b) { return _mm256_add_epi64(a, b); }
  static I sub(I a, I b) { return _mm256_sub_epi64(a, b); }
  static I mul_const(I x, std::uint64_t c) {
    const I clo = set1(c & 0xffffffffULL);
    const I chi = set1(c >> 32);
    const I lolo = _mm256_mul_epu32(x, clo);
    const I hilo = _mm256_mul_epu32(srli<32>(x), clo);
    const I cross = add(hilo, _mm256_mul_epu32(x, chi));
    return add(lolo, _mm256_slli_epi64(cross, 32));
  }

  static D add(D a, D b) { return _mm256_add_pd(a, b); }
  static D sub(D a, D b) { return _mm256_sub_pd(a, b); }
  static D mul(D a, D b) { return _mm256_mul_pd(a, b); }
  static D div(D a, D b) { return _mm256_div_pd(a, b); }
  static D min(D a, D b) { return _mm256_min_pd(a, b); }
  static D floor(D v) { return _mm256_floor_pd(v); }
  static D u64_to_pd(I v) {
    const D two84 = set1_pd(19342813113834066795298816.0);
    const D two52 = set1_pd(4503599627370496.0);
    const D two84_52 = set1_pd(19342813118337666422669312.0);
    const I hi = bor(srli<32>(v), as_int(two84));
    const I lo = _mm256_blend_epi32(v, as_int(two52), 0xAA);
    return add(sub(as_pd(hi), two84_52), as_pd(lo));
  }
  static D small_i64_to_pd(I v) {
    const I bias = set1(0x4338000000000000ULL);  // (2^52+2^51) bits
    return sub(as_pd(add(v, bias)), set1_pd(6755399441055744.0));
  }
  static I skip_rounds(D skipped, std::uint64_t span) {
    const I ski = _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(skipped));
    return _mm256_mul_epu32(ski, set1(span));
  }

  static M lt(I a, I b) { return _mm256_cmpgt_epi64(b, a); }
  static M eq(I a, I b) { return _mm256_cmpeq_epi64(a, b); }
  static M gt_u64(I a, I b) { return _mm256_cmpgt_epi64(a, b); }
  static M lt(D a, D b) { return as_int(_mm256_cmp_pd(a, b, _CMP_LT_OQ)); }
  static M ge(D a, D b) { return as_int(_mm256_cmp_pd(a, b, _CMP_GE_OQ)); }
  static M eq(D a, D b) { return as_int(_mm256_cmp_pd(a, b, _CMP_EQ_OQ)); }

  static M mask_or(M a, M b) { return bor(a, b); }
  static M mask_andnot(M a, M b) { return _mm256_andnot_si256(a, b); }
  static unsigned bits(M m) {
    return static_cast<unsigned>(_mm256_movemask_pd(as_pd(m)));
  }
  static I select(M m, I a, I b) { return _mm256_blendv_epi8(b, a, m); }
  static D select(M m, D a, D b) { return _mm256_blendv_pd(b, a, as_pd(m)); }
  static I drop(M m, I v) { return mask_andnot(m, v); }
  static I add_where(M m, I a, I b) { return add(a, band(m, b)); }
  // A true lane is all ones (-1), so subtracting it counts.
  static I count_where(M m, I c) { return sub(c, m); }
};

void probe_rounds_avx2(const ProbeTable& table, const double* targets,
                       std::size_t count, std::uint64_t* rounds) {
  // Aperiodic tables run the scalar tier: four-wide gathers descend the
  // table no faster than the scalar branchy descent (bench_layers'
  // BM_ProbeRounds/avx2/periodic:0 against .../scalar/periodic:0).
  // Past the emulations' 2^30 bound (see the header) the scalar tier
  // runs too: with the default budget 2^20, a safety valve, not a hot
  // path.
  if (!table.periodic || table.max_rounds > (std::size_t{1} << 30) ||
      table.rounds > (std::size_t{1} << 30)) {
    ops_for(Tier::kScalar)->probe_rounds(table, targets, count, rounds);
    return;
  }
  VectorKernels<Avx2>::periodic_rounds(table, targets, count, rounds);
}

}  // namespace

namespace detail {

const Ops& avx2_ops() {
  return VectorKernels<Avx2>::ops<&probe_rounds_avx2>();
}

}  // namespace detail

}  // namespace crp::channel::kernels

#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif

#endif  // CRP_X86_KERNELS
