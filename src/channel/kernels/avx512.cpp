// AVX-512 kernel backend: the lane adapter for 8-wide zmm lanes (two
// vectors, 16 trials, in flight per loop of kernels/lanes.h), compiled
// for avx512f+avx512dq in this TU only. None of the AVX2 adapter's
// emulations are needed — DQ provides the 64-bit multiply (vpmullq) and
// the uint64<->double conversions (vcvtuqq2pd / vcvttpd2qq, both exactly
// the scalar casts), F the unsigned 64-bit compare and mask registers —
// so there is no 2^30 budget delegation here either.

#include "channel/kernels/kernels.h"

#ifdef CRP_X86_KERNELS

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <limits>

#if !defined(__clang__)
// GCC's avx512 headers route several intrinsics through
// _mm512_undefined_*, which the uninitialized-use warnings flag through
// inlining (GCC PR105593). Nothing here reads uninitialized state.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx512f,avx512dq"))), \
                             apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq")
#endif

#include "channel/kernels/lanes.h"

namespace crp::channel::kernels {

namespace {

struct Avx512 {
  using I = __m512i;
  using D = __m512d;
  using M = __mmask8;
  static constexpr std::size_t kWidth = 8;

  static D load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, D v) { _mm512_storeu_pd(p, v); }
  static void store(std::uint64_t* p, I v) { _mm512_storeu_si512(p, v); }
  static void store(std::uint32_t* p, I v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                        _mm512_cvtepi64_epi32(v));
  }
  static D gather(const double* base, I idx) {
    return _mm512_i64gather_pd(idx, base, 8);
  }

  static I set1(std::uint64_t v) {
    return _mm512_set1_epi64(static_cast<long long>(v));
  }
  static D set1_pd(double v) { return _mm512_set1_pd(v); }
  static I iota1() { return _mm512_set_epi64(8, 7, 6, 5, 4, 3, 2, 1); }

  static D as_pd(I v) { return _mm512_castsi512_pd(v); }
  static I as_int(D v) { return _mm512_castpd_si512(v); }
  static I band(I a, I b) { return _mm512_and_si512(a, b); }
  static I bor(I a, I b) { return _mm512_or_si512(a, b); }
  static I bxor(I a, I b) { return _mm512_xor_si512(a, b); }
  template <int N>
  static I srli(I v) { return _mm512_srli_epi64(v, N); }

  static I add(I a, I b) { return _mm512_add_epi64(a, b); }
  static I sub(I a, I b) { return _mm512_sub_epi64(a, b); }
  static I mul_const(I x, std::uint64_t c) {
    return _mm512_mullo_epi64(x, set1(c));
  }

  static D add(D a, D b) { return _mm512_add_pd(a, b); }
  static D sub(D a, D b) { return _mm512_sub_pd(a, b); }
  static D mul(D a, D b) { return _mm512_mul_pd(a, b); }
  static D div(D a, D b) { return _mm512_div_pd(a, b); }
  static D min(D a, D b) { return _mm512_min_pd(a, b); }
  static D floor(D v) {
    return _mm512_roundscale_pd(v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  }
  static D u64_to_pd(I v) { return _mm512_cvtepu64_pd(v); }
  static D small_i64_to_pd(I v) { return _mm512_cvtepi64_pd(v); }
  static I skip_rounds(D skipped, std::uint64_t span) {
    return _mm512_mullo_epi64(_mm512_cvttpd_epi64(skipped), set1(span));
  }

  static M lt(I a, I b) { return _mm512_cmplt_epi64_mask(a, b); }
  static M eq(I a, I b) { return _mm512_cmpeq_epi64_mask(a, b); }
  static M gt_u64(I a, I b) { return _mm512_cmpgt_epu64_mask(a, b); }
  static M lt(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
  static M ge(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ); }
  static M eq(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ); }

  static M mask_or(M a, M b) { return static_cast<M>(a | b); }
  static M mask_andnot(M a, M b) { return static_cast<M>(~a & b); }
  static unsigned bits(M m) { return m; }
  static I select(M m, I a, I b) { return _mm512_mask_blend_epi64(m, b, a); }
  static D select(M m, D a, D b) { return _mm512_mask_blend_pd(m, b, a); }
  static I drop(M m, I v) { return _mm512_maskz_mov_epi64(~m, v); }
  static I add_where(M m, I a, I b) {
    return _mm512_mask_add_epi64(a, m, a, b);
  }
  static I count_where(M m, I c) { return add_where(m, c, set1(1)); }
};

}  // namespace

namespace detail {

const Ops& avx512_ops() { return VectorKernels<Avx512>::ops(); }

}  // namespace detail

}  // namespace crp::channel::kernels

#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif

#endif  // CRP_X86_KERNELS
