// The vector kernel bodies, written once for every SIMD tier. Each
// backend TU (kernels/avx2.cpp, kernels/avx512.cpp) defines a lane
// adapter and includes this header inside its own function-target
// region, so every tier gets its own instantiation of VectorKernels<L>,
// with internal linkage: the differently targeted TUs share no inline
// symbol. Bit-identical to kernels/scalar.cpp by the kernels.h
// contract; the comments here mostly explain *why* a sequence matches
// the scalar reference, which itself documents the algorithms.
//
// The including TU must have included <immintrin.h> and the headers
// below *before* entering its target region: the include guards then
// make these includes no-ops, so no standard-library inline function is
// compiled for a wider ISA than the rest of the binary.
//
// A lane adapter (struct Avx2 in kernels/avx2.cpp is the model) is a
// struct of static functions, one per operation on W = kWidth 64-bit
// lanes of types I (uint64), D (double) and M (mask). Compares return
// M; select(m, a, b) = m ? a : b, drop(m, v) = m ? 0 : v, and
// mask_andnot(a, b) = ~a & b.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "channel/kernels/kernels.h"

namespace crp::channel::kernels {

namespace {

constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

template <class L>
struct VectorKernels {
  using I = typename L::I;
  using D = typename L::D;
  using M = typename L::M;
  static constexpr std::size_t W = L::kWidth;

  template <int N>
  static I srli(I v) { return L::template srli<N>(v); }

  /// The reference tier, which every host has, runs the tails.
  static const Ops& scalar() { return *ops_for(Tier::kScalar); }

  /// SplitMix64 finalizer, lane-wise (constants shared with
  /// channel/rng.h).
  static I mix64(I z) {
    z = L::mul_const(L::bxor(z, srli<30>(z)), 0xbf58476d1ce4e5b9ULL);
    z = L::mul_const(L::bxor(z, srli<27>(z)), 0x94d049bb133111ebULL);
    return L::bxor(z, srli<31>(z));
  }

  /// canonical_unit (channel/rng.h), lane-wise: bits * 2^-64 (the scale
  /// is exact), with the rounded-up 1.0 clamped to 1 - 2^-53 — min is
  /// exactly the scalar's conditional because no lane is NaN.
  static D canonical(I bits) {
    const D u = L::mul(L::u64_to_pd(bits), L::set1_pd(0x1p-64));
    return L::min(u, L::set1_pd(0x1.fffffffffffffp-1));
  }

  /// The first two finalized draws of per-trial streams
  /// (seed, first + t + lane), lane = 0 .. W-1.
  static I stream_state0(std::uint64_t seed, std::uint64_t first,
                         std::size_t t) {
    const I stream1 = L::add(L::set1(first + static_cast<std::uint64_t>(t)),
                             L::iota1());  // stream + 1 per lane
    return mix64(L::add(L::set1(seed), L::mul_const(stream1, kGamma)));
  }

  // ---- pass 1 ----

  static void pass1_uniform(std::uint64_t seed, std::size_t first_trial,
                            std::size_t count, double* u) {
    const I g = L::set1(kGamma);
    std::size_t t = 0;
    for (; t + 2 * W <= count; t += 2 * W) {
      const I a0 = stream_state0(seed, first_trial, t);
      const I b0 = stream_state0(seed, first_trial, t + W);
      L::store(u + t, canonical(mix64(L::add(a0, g))));
      L::store(u + t + W, canonical(mix64(L::add(b0, g))));
    }
    if (t < count) {
      scalar().pass1_uniform(seed, first_trial + t, count - t, u + t);
    }
  }

  static void pass1_uniform_pair(std::uint64_t seed, std::size_t first_trial,
                                 std::size_t count, double* uk, double* u) {
    const I g = L::set1(kGamma);
    const I g2 = L::set1(2 * kGamma);
    std::size_t t = 0;
    for (; t + 2 * W <= count; t += 2 * W) {
      const I a0 = stream_state0(seed, first_trial, t);
      const I b0 = stream_state0(seed, first_trial, t + W);
      L::store(uk + t, canonical(mix64(L::add(a0, g))));
      L::store(uk + t + W, canonical(mix64(L::add(b0, g))));
      L::store(u + t, canonical(mix64(L::add(a0, g2))));
      L::store(u + t + W, canonical(mix64(L::add(b0, g2))));
    }
    if (t < count) {
      scalar().pass1_uniform_pair(seed, first_trial + t, count - t, uk + t,
                                  u + t);
    }
  }

  // ---- pass 2a: log1p ----

  /// kernels::log1p_neg, lane-wise. Every branch of the scalar reference
  /// becomes a lane mask; all arithmetic keeps the reference's exact
  /// association (note 0.5*f*f is (0.5*f)*f), so each lane rounds
  /// identically to the scalar call. Domain: x in (-1, 0].
  static D log1p_neg(D x) {
    const D one = L::set1_pd(1.0);
    const D zero = L::set1_pd(0.0);
    const I ax = L::band(L::as_int(x), L::set1(0x7fffffffffffffffULL));

    // The reference's branches as nested masks, m_ret within m_tiny
    // within m_k0raw (|x| bounds compare identically on the full 64 bits
    // as on the fdlibm high word; ax has no sign bit, so signed compares
    // are safe). No reduction (m_k0) is m_k0raw outside m_tiny; the
    // reduction branch (|x| > sqrt(2)-1) is everything outside m_k0raw.
    const M m_ret = L::lt(ax, L::set1(0x3c90000000000000ULL));
    const M m_tiny = L::lt(ax, L::set1(0x3e20000000000000ULL));
    const M m_k0raw = L::lt(ax, L::set1(0x3fd2bec400000000ULL));
    const M m_k0 = L::mask_andnot(m_tiny, m_k0raw);

    // Reduction branch, computed on every lane (all its intermediates
    // are finite for x in (-1, 0]) and blended in afterwards. In this
    // domain u = 1+x < 1, so k <= -1 and the reference's k>0 correction
    // arm never applies.
    const D u1 = L::add(one, x);
    const I ub = L::as_int(u1);
    I k64 = L::sub(srli<52>(ub), L::set1(1023));
    const D cE = L::div(L::sub(x, L::sub(u1, one)), u1);
    const I mant = L::band(ub, L::set1(0x000fffffffffffffULL));
    const M m_lo = L::lt(mant, L::set1(0x0006a09e00000000ULL));
    const I unorm_lo = L::bor(mant, L::set1(0x3ff0000000000000ULL));
    const I unorm_hi = L::bor(mant, L::set1(0x3fe0000000000000ULL));
    k64 = L::select(m_lo, k64, L::add(k64, L::set1(1)));
    const D u2 = L::as_pd(L::select(m_lo, unorm_lo, unorm_hi));
    const I hu_lo = srli<32>(mant);
    const I hu_hi = srli<2>(L::sub(L::set1(0x00100000ULL), hu_lo));
    const I hu = L::select(m_lo, hu_lo, hu_hi);
    const D fE = L::sub(u2, one);

    // Merge the no-reduction lanes (f = x, c = 0, k = 0; hu is a nonzero
    // sentinel there, so the hu==0 shortcut stays reduction-only).
    const D f = L::select(m_k0, x, fE);
    const D c = L::select(m_k0, zero, cE);
    k64 = L::drop(m_k0, k64);
    const M m_hu0 = L::mask_andnot(m_k0raw, L::eq(hu, L::set1(0)));

    const D dk = L::small_i64_to_pd(k64);
    const D hfsq = L::mul(L::mul(L::set1_pd(0.5), f), f);
    const D s = L::div(f, L::add(L::set1_pd(2.0), f));
    const D z = L::mul(s, s);
    D R = L::set1_pd(1.479819860511658591e-01);  // Lp7
    R = L::add(L::set1_pd(1.531383769920937332e-01), L::mul(z, R));
    R = L::add(L::set1_pd(1.818357216161805012e-01), L::mul(z, R));
    R = L::add(L::set1_pd(2.222219843214978396e-01), L::mul(z, R));
    R = L::add(L::set1_pd(2.857142874366239149e-01), L::mul(z, R));
    R = L::add(L::set1_pd(3.999999999940941908e-01), L::mul(z, R));
    R = L::add(L::set1_pd(6.666666666666735130e-01), L::mul(z, R));
    R = L::mul(z, R);

    const D khi = L::mul(dk, L::set1_pd(6.93147180369123816490e-01));
    const D clo =
        L::add(c, L::mul(dk, L::set1_pd(1.90821492927058770002e-10)));
    const D t1 = L::mul(s, L::add(hfsq, R));

    const D res_reduce =
        L::sub(khi, L::sub(L::sub(hfsq, L::add(t1, clo)), f));
    const D res_k0 = L::sub(f, L::sub(hfsq, t1));
    const D Rs = L::mul(
        hfsq, L::sub(one, L::mul(L::set1_pd(0.66666666666666666), f)));
    const D res_hu0 = L::sub(khi, L::sub(L::sub(Rs, clo), f));
    const D res_hu0_f0 = L::add(khi, clo);
    const M m_f0 = L::eq(f, zero);

    D res = L::select(m_k0, res_k0, res_reduce);
    res = L::select(m_hu0, L::select(m_f0, res_hu0_f0, res_hu0), res);
    const D small = L::sub(x, L::mul(L::mul(x, x), L::set1_pd(0.5)));
    return L::select(m_tiny, L::select(m_ret, x, small), res);
  }

  static void map_targets(double* u, std::size_t count) {
    // -u flips u = +0 to -0 exactly as the scalar negation does.
    const I sign = L::set1(0x8000000000000000ULL);
    std::size_t t = 0;
    for (; t + 2 * W <= count; t += 2 * W) {
      const D a = L::as_pd(L::bxor(L::as_int(L::load(u + t)), sign));
      const D b = L::as_pd(L::bxor(L::as_int(L::load(u + t + W)), sign));
      L::store(u + t, log1p_neg(a));
      L::store(u + t + W, log1p_neg(b));
    }
    if (t < count) scalar().map_targets(u + t, count - t);
  }

  // ---- pass 2b: probes ----

  /// The branchless descent of probe_first_below_padded for a pair of
  /// target vectors, their gather chains interleaved so both are in
  /// flight: pos advances by step exactly where padded[pos+step] >=
  /// target (ordered compare, so a NaN residual in a doomed lane keeps
  /// pos at 0), and the final first = pos+1 is clamped to `rounds`.
  /// Gather indices stay in [0, padded_size) by the descent invariant.
  static void probe(const ProbeTable& table, const D (&target)[2],
                    I (&first)[2]) {
    I pos[2] = {L::set1(0), L::set1(0)};
    for (std::size_t step = table.padded_size >> 1; step > 0; step >>= 1) {
      const I stepv = L::set1(step);
      for (int v = 0; v < 2; ++v) {
        const D got = L::gather(table.padded, L::add(pos[v], stepv));
        pos[v] = L::add_where(L::ge(got, target[v]), pos[v], stepv);
      }
    }
    const I rounds = L::set1(table.rounds);
    for (int v = 0; v < 2; ++v) {
      first[v] = L::add(pos[v], L::set1(1));
      first[v] = L::select(L::gt_u64(first[v], rounds), rounds, first[v]);
    }
  }

  /// The budget clamp: 0 where round > max_rounds.
  static I clamp_budget(const ProbeTable& table, I round) {
    return L::drop(L::gt_u64(round, L::set1(table.max_rounds)), round);
  }

  /// The aperiodic search for the pair at targets (round = probe where
  /// back < target, else 0) or, with kCertain, the certain-periodic one
  /// (per-period mass -inf: every draw solves within the first period,
  /// no skip arithmetic — 0 * -inf would be NaN); then the budget clamp.
  /// No retry lanes: a certain probe hits the table edge only for a
  /// -inf target (the -inf entry fails the >= compare of every other
  /// target), and the reference's retries for it skip whole periods
  /// until the budget runs out, so those lanes report 0.
  template <bool kCertain>
  static void direct(const ProbeTable& table, const double* targets,
                     std::uint64_t* rounds) {
    const D target[2] = {L::load(targets), L::load(targets + W)};
    I round[2];
    probe(table, target, round);
    for (int v = 0; v < 2; ++v) {
      if (kCertain) {
        const D minus_inf =
            L::set1_pd(-std::numeric_limits<double>::infinity());
        round[v] = L::drop(L::eq(target[v], minus_inf), round[v]);
      } else {
        const M serve = L::lt(L::set1_pd(table.back), target[v]);
        round[v] = L::select(serve, round[v], L::set1(0));
      }
      L::store(rounds + v * W, clamp_budget(table, round[v]));
    }
  }

  /// The periodic search for the pair at targets (finite per-period
  /// mass): analytic whole-period skip, residual probe, budget clamps.
  /// Lanes at the period edge (first == rounds without a budget excuse)
  /// are patched through search_one, reproducing the reference's
  /// skipped += 1.0 retry loop exactly.
  static void periodic(const ProbeTable& table, const double* targets,
                       std::uint64_t* rounds) {
    const std::size_t span = table.rounds - 1;
    const D per_period = L::set1_pd(table.back);
    const D target[2] = {L::load(targets), L::load(targets + W)};
    D skipped[2], residual[2];
    M pre[2];  // provably past the budget -> 0
    for (int v = 0; v < 2; ++v) {
      skipped[v] = L::floor(L::div(target[v], per_period));
      pre[v] = L::ge(L::mul(skipped[v], L::set1_pd(static_cast<double>(span))),
                     L::set1_pd(static_cast<double>(table.max_rounds)));
      residual[v] = L::sub(target[v], L::mul(skipped[v], per_period));
    }
    I first[2];
    probe(table, residual, first);
    unsigned retry = 0;  // bit v * W + i: lane i of vector v
    for (int v = 0; v < 2; ++v) {
      // Lanes excluded by the pre-check (inf quotients included) hold
      // garbage skip counts, which the pre mask discards.
      const I skip = L::skip_rounds(skipped[v], span);
      const I round = L::drop(pre[v], L::add(skip, first[v]));
      L::store(rounds + v * W, clamp_budget(table, round));
      const M at_edge = L::eq(first[v], L::set1(table.rounds));
      retry |= L::bits(L::mask_andnot(pre[v], at_edge)) << (v * W);
    }
    for (unsigned bits = retry; bits != 0; bits &= bits - 1) {
      const auto lane = static_cast<unsigned>(__builtin_ctz(bits));
      rounds[lane] = search_one(table, targets[lane]);
    }
  }

  static void probe_rounds(const ProbeTable& table, const double* targets,
                           std::size_t count, std::uint64_t* rounds) {
    if (table.periodic) {
      periodic_rounds(table, targets, count, rounds);
      return;
    }
    std::size_t t = 0;
    for (; t + 2 * W <= count; t += 2 * W) {
      direct<false>(table, targets + t, rounds + t);
    }
    for (; t < count; ++t) rounds[t] = search_one(table, targets[t]);
  }

  /// probe_rounds on a periodic table. A tier whose aperiodic search
  /// does not beat the scalar reference calls this alone from its own
  /// probe_rounds entry, so its direct<false> is never instantiated.
  static void periodic_rounds(const ProbeTable& table, const double* targets,
                              std::size_t count, std::uint64_t* rounds) {
    if (!(table.back < 0.0)) {
      // A non-negative per-period mass means no round in the period can
      // succeed: every lane reports 0, like the reference.
      for (std::size_t t = 0; t < count; ++t) rounds[t] = 0;
      return;
    }
    std::size_t t = 0;
    if (table.back == -std::numeric_limits<double>::infinity()) {
      for (; t + 2 * W <= count; t += 2 * W) {
        direct<true>(table, targets + t, rounds + t);
      }
    } else {
      for (; t + 2 * W <= count; t += 2 * W) {
        periodic(table, targets + t, rounds + t);
      }
    }
    for (; t < count; ++t) rounds[t] = search_one(table, targets[t]);
  }

  /// The broadcast-compare scan of probe_cdf and slot_lookup: for whole
  /// pairs of vectors of queries q, counts lane by lane the entries of
  /// the non-decreasing sorted[0, n) below the query (or equal to it,
  /// with kOrEqual) into out, stopping at the first entry no lane's
  /// query reaches. Returns the number of queries done.
  template <bool kOrEqual, class Count>
  static std::size_t count_pairs(const double* sorted, std::size_t n,
                                 const double* q, std::size_t count,
                                 Count* out) {
    std::size_t t = 0;
    for (; t + 2 * W <= count; t += 2 * W) {
      const D a = L::load(q + t);
      const D b = L::load(q + t + W);
      I ca = L::set1(0), cb = L::set1(0);
      for (std::size_t j = 0; j < n; ++j) {
        const D v = L::set1_pd(sorted[j]);
        const M ma = kOrEqual ? L::ge(a, v) : L::lt(v, a);
        const M mb = kOrEqual ? L::ge(b, v) : L::lt(v, b);
        if (L::bits(L::mask_or(ma, mb)) == 0) break;
        ca = L::count_where(ma, ca);
        cb = L::count_where(mb, cb);
      }
      L::store(out + t, ca);
      L::store(out + t + W, cb);
    }
    return t;
  }

  /// The count of padded[1 .. padded_size) entries <= u is the descent's
  /// landing index for every u, u = +inf included.
  static void probe_cdf(const CdfTable& table, const double* u,
                        std::size_t count, std::uint64_t* index) {
    std::size_t t = count_pairs<true>(table.padded + 1,
                                      table.padded_size - 1, u, count, index);
    for (; t < count; ++t) index[t] = probe_cdf_one(table, u[t]);
  }

  // ---- support slots ----

  static void slot_lookup(const double* cumulative, std::size_t entries,
                          const double* uk, std::size_t count,
                          std::uint32_t* slot) {
    // Broadcast compares on short supports, whose counts fit the 32-bit
    // slots; longer supports run the scalar descent (kShortTable).
    std::size_t t = 0;
    if (entries <= kShortTable) {
      t = count_pairs<false>(cumulative, entries, uk, count, slot);
    }
    if (t < count) {
      scalar().slot_lookup(cumulative, entries, uk + t, count - t, slot + t);
    }
  }

  /// This tier's kernel table; a tier may guard its lanes behind its own
  /// probe_rounds entry.
  template <auto kProbeRounds = &probe_rounds>
  static const Ops& ops() {
    static const Ops table = {&pass1_uniform, &pass1_uniform_pair,
                              &map_targets,   kProbeRounds,
                              &probe_cdf,     &slot_lookup};
    return table;
  }
};

}  // namespace

}  // namespace crp::channel::kernels
