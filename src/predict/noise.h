// Prediction corruption models: ways of producing a predicted
// distribution Y from the true X with a controllable, measurable
// KL divergence D_KL(c(X) || c(Y)). Theorems 2.12 and 2.16 charge the
// algorithms 2 D_KL extra entropy / D_KL extra code length; the
// bench_divergence sweep uses these models to trace that degradation,
// including the paper's "bounded constant factor error => D_KL = O(1)"
// robustness remark.
#pragma once

#include <cstddef>

#include "channel/rng.h"
#include "info/distribution.h"

namespace crp::predict {

/// q'_i proportional to q_i * u_i with u_i ~ Uniform[1/factor, factor]:
/// every predicted probability is within a bounded constant factor of
/// the truth, so D_KL stays O(1) regardless of the alphabet (the
/// robustness case highlighted after Theorem 2.12).
info::CondensedDistribution multiplicative_jitter(
    const info::CondensedDistribution& truth, double factor,
    channel::Rng& rng);

/// Mixture with uniform: q' = (1 - eps) q + eps * uniform. Guarantees
/// finite divergence (no predicted zero where truth has mass) and a
/// smooth knob: eps -> 0 recovers the truth.
info::CondensedDistribution smooth_with_uniform(
    const info::CondensedDistribution& truth, double eps);

/// Temperature scaling: q'_i proportional to q_i^gamma. gamma < 1
/// flattens (under-confident predictor), gamma > 1 sharpens
/// (over-confident predictor).
info::CondensedDistribution temperature_scale(
    const info::CondensedDistribution& truth, double gamma);

/// Adversarial reversal: the prediction ranks ranges in exactly the
/// opposite likelihood order (probability vector reversed across the
/// alphabet). Maximally misleads order-based algorithms while keeping
/// the same entropy.
info::CondensedDistribution reverse_ranges(
    const info::CondensedDistribution& truth);

/// Cyclic shift of the probability vector by `offset` ranges: a
/// systematically biased predictor ("expects crowds 2^offset times
/// larger than reality").
info::CondensedDistribution shift_ranges(
    const info::CondensedDistribution& truth, std::size_t offset);

/// A simulated learned predictor: draws `samples` sizes from `truth`,
/// builds the Laplace-smoothed empirical histogram over ranges. As
/// samples grows, D_KL(c(X) || c(Y)) -> 0 — the "predictions improve
/// over time for free" story from the paper's introduction.
info::CondensedDistribution empirical_predictor(
    const info::SizeDistribution& truth, std::size_t samples,
    double laplace_alpha, channel::Rng& rng);

}  // namespace crp::predict
