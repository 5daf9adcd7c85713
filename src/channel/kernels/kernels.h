// Lane-parallel batch kernels with runtime ISA dispatch.
//
// The columnar engines (channel/engine.cpp, channel/history_engine.cpp)
// spend their time in dense element-wise passes: deriving one
// SplitMix64 stream per trial and drawing its uniforms (pass 1),
// looking up each drawn size's support slot, mapping the uniform
// column to log-survival targets via log1p (pass 2a), and searching
// the probe tables once per trial (pass 2b). This header is the seam
// between those engines and the per-ISA implementations of the
// passes: a table of function pointers (`Ops`) resolved once at
// startup from cpuid, with scalar, AVX2 (4-wide ymm, 8 trials in
// flight), and AVX-512 (8-wide zmm, 16 trials in flight) backends.
//
// Determinism contract: the scalar backend is the *reference*. Every
// vector backend must produce bit-identical output on the same inputs
// — same draw values, same round indices — so a result column never
// depends on the host's ISA, only on (seed, first_trial). The engines'
// fixed-seed goldens and the shard merge byte-diff gate therefore hold
// on every tier; tests/kernel_test.cpp pins the equivalence on
// randomized and adversarial inputs for every tier the host offers.
// Two ingredients make bit-equality attainable:
//  * the whole project compiles with -ffp-contract=off (see
//    CMakeLists.txt), so no backend's a*b+c fuses into an FMA the
//    scalar reference would round differently;
//  * the log1p map uses this layer's own polynomial (`log1p_neg`, an
//    fdlibm-derived evaluation restricted to (-1, 0], within 1 ulp of
//    the libm function) rather than libm's, because libm's is neither
//    vectorizable nor stable across libc versions.
//
// The vector kernels are written once, in kernels/lanes.h, over a
// per-ISA lane adapter (a struct of static functions over that ISA's
// registers). Each adapter lives in its own translation unit compiled
// for its target ISA via function-target pragmas (kernels/avx2.cpp,
// kernels/avx512.cpp) and instantiates the shared body there, so the
// portable binary carries all tiers and picks at runtime, and a new
// tier is one more adapter — CRP_ENABLE_NATIVE_ARCH remains an opt-in
// ceiling for the surrounding scalar code, not a requirement for SIMD
// speed.
// The environment variable CRP_KERNEL_TIER=scalar|avx2|avx512 caps or
// confirms the dispatched tier (requests above the host's capability
// fall back to the widest available); kernel_tier() reports the
// decision, and crp_shard/the benches print it so heterogeneous fleets
// can audit which (bit-compatible) kernels produced an artifact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

// The x86 backends need 64-bit x86 and a compiler that understands
// function-target pragmas and __builtin_cpu_supports (GCC and Clang
// both do). Define CRP_DISABLE_SIMD_KERNELS (CMake option
// CRP_ENABLE_SIMD_KERNELS=OFF) to build the scalar tier alone.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(CRP_DISABLE_SIMD_KERNELS)
#define CRP_X86_KERNELS 1
#endif

namespace crp::channel::kernels {

/// The ISA tiers, ordered so that a larger value strictly widens the
/// lanes. Every tier computes bit-identical results; they differ only
/// in speed.
enum class Tier : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// "scalar", "avx2", "avx512".
const char* tier_name(Tier tier);

/// The inverse of tier_name: parses a CRP_KERNEL_TIER value. Strict —
/// an unrecognized name throws std::invalid_argument naming the value
/// and the accepted set, like the CRP_FAULT_* env surface: a typo'd
/// tier cap must be a hard error, not a silently ignored no-op
/// (crp_shard maps the throw to its usage exit code 2).
Tier parse_tier(std::string_view name);

/// A borrowed view of one BatchNoCdSampler::SolveTable snapshot plus
/// the search parameters that are uniform across a block: everything
/// probe_rounds needs, with no shared_ptr or vector indirection on the
/// lane path. `padded` is the -inf-padded power-of-two probe array,
/// `rounds` the unpadded log_survival size (1 + rounds covered),
/// `periodic` whether the schedule cycles (table spans one period) and
/// `back` the last log_survival entry (the per-period mass when
/// periodic).
struct ProbeTable {
  const double* padded;
  std::size_t padded_size;
  std::size_t rounds;
  bool periodic;
  double back;
  std::size_t max_rounds;
};

/// A borrowed view of a non-decreasing CDF prepared for the lane
/// upper-bound probe: padded[0] is a sentinel <= every query (0.0 for
/// a CDF queried with u >= 0), padded[1..entries] the CDF values, and
/// the remainder +inf up to the power-of-two padded_size.
struct CdfTable {
  const double* padded;
  std::size_t padded_size;
  std::size_t entries;
};

/// The vector probe_cdf and slot_lookup search by broadcast compares:
/// each entry in turn is compared with every lane's query, and a
/// lane's answer counts the entries its query passed. The scan stops
/// at the first entry no lane's query reaches, which is exact because
/// the tables are non-decreasing. probe_cdf scans every table this way
/// (a history tree's padded solve CDF has at most 64 entries);
/// slot_lookup scans supports of at most kShortTable entries and hands
/// longer ones to the scalar lower_bound_count. The choice depends
/// only on the table's size, and both give the same integers, so it
/// never moves a result. group_by_slot (channel/engine.cpp) uses the
/// same bound to pick its split counting histogram.
inline constexpr std::size_t kShortTable = 64;

/// One ISA tier's kernel table. All functions are pure and
/// thread-safe; columns may be processed in independent chunks.
struct Ops {
  /// u[t] = the first canonical uniform of per-trial stream
  /// (seed, first_trial + t), t in [0, count) — the draw sequence of
  /// derive_fast_rng + std::uniform_real_distribution<double>(0, 1),
  /// bit for bit (see canonical_unit in channel/rng.h).
  void (*pass1_uniform)(std::uint64_t seed, std::size_t first_trial,
                        std::size_t count, double* u);
  /// uk[t], u[t] = the first two canonical uniforms of stream
  /// (seed, first_trial + t) — the drawn-size path's (size draw,
  /// solve draw) pair.
  void (*pass1_uniform_pair)(std::uint64_t seed, std::size_t first_trial,
                             std::size_t count, double* uk, double* u);
  /// In place: u[t] <- log1p_neg(-u[t]), the log-survival target of a
  /// uniform draw u[t] in [0, 1).
  void (*map_targets)(double* u, std::size_t count);
  /// rounds[t] = the 1-based solve round for targets[t] in `table`, or
  /// 0 past the round budget — exactly search_one per element.
  void (*probe_rounds)(const ProbeTable& table, const double* targets,
                       std::size_t count, std::uint64_t* rounds);
  /// index[t] = count of CDF entries <= u[t] (== the index
  /// std::upper_bound(cdf, cdf + entries, u[t]) - cdf) — exactly
  /// probe_cdf_one per element.
  void (*probe_cdf)(const CdfTable& table, const double* u,
                    std::size_t count, std::uint64_t* index);
  /// slot[t] = count of the `entries` (>= 1) non-decreasing
  /// `cumulative` values below uk[t] (== the index
  /// std::lower_bound(cumulative, cumulative + entries, uk[t]) -
  /// cumulative): the support slot of a size draw uk[t] in
  /// SizeDistribution::support_cumulative — exactly lower_bound_count
  /// per element.
  void (*slot_lookup)(const double* cumulative, std::size_t entries,
                      const double* uk, std::size_t count,
                      std::uint32_t* slot);
};

/// The dispatched kernel table: resolved once from cpuid (and the
/// CRP_KERNEL_TIER cap) on first use, constant afterwards.
const Ops& ops();

/// The tier ops() dispatched to.
Tier tier();

/// The kernel table for an explicit tier, or nullptr when the host (or
/// the build) lacks it. Lets tests iterate every available tier and
/// skip absent ones explicitly.
const Ops* ops_for(Tier tier);

/// Test hook: repoint ops()/tier() at an explicit tier. Returns false
/// (and changes nothing) when the tier is valid but unavailable on
/// this host/build; throws std::invalid_argument when the value is not
/// a Tier enumerator at all (a bad cast, not a capability gap). Not
/// synchronized — call only from single-threaded test setup.
bool force_tier(Tier tier);

// ---- scalar reference primitives (kernels/scalar.cpp) ----
//
// Non-inline on purpose: they are compiled exactly once, in the
// portable-ISA scalar TU, so "bit-identical to scalar" has a single
// well-defined meaning no matter which TU calls them.

/// log(1 + x) for x in (-1, 0]: an fdlibm-derived evaluation, within
/// 1 ulp of libm log1p and bit-stable across hosts. The reference the
/// vector log1p lanes must match bitwise.
double log1p_neg(double x);

/// The branchless descent of BatchNoCdSampler::probe_first_below on a
/// raw padded array: the smallest 1-based index i with
/// padded[i] < target, clamped to `rounds`.
std::size_t probe_first_below_padded(const double* padded,
                                     std::size_t padded_size,
                                     std::size_t rounds, double target);

/// One full inverse-CDF search (periodic skip + residual probe +
/// budget clamp) — the scalar reference for probe_rounds, and the
/// implementation behind BatchNoCdSampler::search.
std::size_t search_one(const ProbeTable& table, double target);

/// One upper-bound descent — the scalar reference for probe_cdf.
std::size_t probe_cdf_one(const CdfTable& table, double u);

/// Branchless lower_bound: the count of the `entries` values of the
/// non-decreasing array `sorted` that are < u, bit-identical to
/// std::lower_bound's index (ties included). The halving works at any
/// length, so no padding is needed. The scalar reference for
/// slot_lookup. Comparisons only, so it may be inline.
/// The step is a multiply by the comparison, not a conditional:
/// compilers turn `cond ? half : 0` back into a branch here, which
/// mispredicts on about half the levels of every random search.
inline std::size_t lower_bound_count(const double* sorted,
                                     std::size_t entries, double u) {
  const double* base = sorted;
  std::size_t len = entries;
  while (len > 1) {
    const std::size_t half = len / 2;
    base += half * static_cast<std::size_t>(base[half - 1] < u);
    len -= half;
  }
  return static_cast<std::size_t>(base - sorted) + (base[0] < u);
}

}  // namespace crp::channel::kernels

namespace crp::channel {

/// The ISA tier the process dispatches its batch kernels to (satellite
/// of the determinism story: tiers are bit-identical, so this is an
/// audit fact, not a correctness parameter).
kernels::Tier kernel_tier();

/// tier_name(kernel_tier()).
const char* kernel_tier_name();

}  // namespace crp::channel
