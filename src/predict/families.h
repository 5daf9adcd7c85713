// Parametric families of network-size distributions. The paper's
// bounds depend on the size distribution only through H(c(X)) and
// D_KL(c(X)||c(Y)), so the benches sweep those quantities with the
// families below (each with a knob that moves the condensed entropy
// smoothly between 0 and its maximum log2 log2 n).
#pragma once

#include <cstddef>

#include "info/distribution.h"

namespace crp::predict {

/// How a condensed (per-range) distribution is lifted back to a full
/// distribution over sizes.
enum class RangePlacement {
  kLowEndpoint,   ///< all of range i's mass on size 2^{i-1}+1 (2 for i=1)
  kHighEndpoint,  ///< all of range i's mass on size 2^i
  kUniform,       ///< spread uniformly over the sizes of the range
};

/// Lifts a condensed distribution over L(n) to a SizeDistribution on
/// {2..n}; condense() of the result recovers `condensed` exactly.
info::SizeDistribution lift(const info::CondensedDistribution& condensed,
                            std::size_t n, RangePlacement placement);

/// Uniform over the first m of the |L(n)| ranges: H(c) = log2 m, the
/// straight-line entropy sweep used by repro/table1.cpp.
info::CondensedDistribution uniform_over_ranges(std::size_t num_ranges,
                                                std::size_t m);

/// Geometric over ranges: q_i proportional to decay^i. decay -> 0
/// approaches a point mass (H -> 0); decay -> 1 approaches uniform
/// (H -> log2 |L|).
info::CondensedDistribution geometric_ranges(std::size_t num_ranges,
                                             double decay);

/// Zipf over ranges: q_i proportional to 1 / i^s.
info::CondensedDistribution zipf_ranges(std::size_t num_ranges, double s);

/// Two spikes of mass 1-eps and eps on ranges a and b — the classic
/// "almost perfect prediction with a rare regime change".
info::CondensedDistribution bimodal_ranges(std::size_t num_ranges,
                                           std::size_t range_a,
                                           std::size_t range_b,
                                           double eps);

/// Convex mixture lambda * a + (1 - lambda) * b.
info::CondensedDistribution mix(const info::CondensedDistribution& a,
                                const info::CondensedDistribution& b,
                                double lambda);

/// The Pliam-style adversarial source the paper invokes to support its
/// conjecture that 2^{H} rounds are insufficient for the Section 2.5
/// strategy (footnote 3): one spike of mass `spike_mass` on the first
/// symbol plus a flat tail. Entropy grows like (1 - s) log2 m while the
/// expected likelihood-order position ("guesswork") grows like m/2, so
/// the guesswork / 2^H ratio is unbounded in the alphabet size.
info::CondensedDistribution spiked_uniform(std::size_t num_ranges,
                                           double spike_mass);

/// Expected 1-based position of the target in the likelihood order —
/// the "guesswork" E[G] of the source, which is exactly the expected
/// index at which the Section 2.5 strategy first probes the true range.
double expected_guesswork(const info::CondensedDistribution& source);

/// Zipf over the sizes themselves (not the ranges): Pr(k) ~ 1/k^s for
/// k in {2..n}. A "realistic" heavy-tailed workload for the examples.
info::SizeDistribution zipf_sizes(std::size_t n, double s);

/// Truncated discretized log-normal over sizes: sizes cluster around
/// exp(mu) with multiplicative spread sigma; models a venue whose
/// attendance is noisy around a typical value.
info::SizeDistribution log_normal_sizes(std::size_t n, double mu,
                                        double sigma);

}  // namespace crp::predict
