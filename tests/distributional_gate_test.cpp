// Distributional-equivalence gate: every production engine must sample
// the exact solve-round distribution of harness/exact.h.
//
// Each case runs one production engine at a pinned seed, bins its
// solve rounds (1..budget, plus "unsolved at the budget") against the
// exact per-round mass from exact_profile_no_cd / exact_profile_cd,
// pools neighbouring bins until every expected count is >= 5, and
// applies two tests:
//  * Pearson's chi-squared over the pooled bins;
//  * Kolmogorov-Smirnov on the solved-by curve (the asymptotic
//    Kolmogorov tail, which is conservative for a discrete law).
// Both p-values must clear a Bonferroni-corrected family-wise alpha
// over every test of every case, so one pinned run per case keeps
// ctest deterministic while a real bias — a perturbed continuation
// probability, rounds shifted by one — fails loudly.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "baselines/willard.h"
#include "channel/history_engine.h"
#include "harness/exact.h"
#include "harness/grids.h"
#include "harness/measure.h"
#include "info/distribution.h"

namespace crp::harness {
namespace {

using channel::HistoryTreeEngine;

/// Cases in this file, each contributing a chi-squared and a KS test.
constexpr std::size_t kCases = 8;
/// Family-wise false-alarm rate over the whole gate.
constexpr double kFamilyAlpha = 1e-3;
constexpr double kTestAlpha = kFamilyAlpha / (2.0 * kCases);
constexpr double kMinExpected = 5.0;
/// Round budgets. The CD budget keeps the exact reference both cheap
/// and tight: expanded to 24 rounds at prune_below 1e-14, the Willard
/// and coded-search trees below leave at most ~4e-10 of pruned mass
/// unresolved, far below one expected trial at these trial counts.
constexpr std::size_t kNoCdBudget = 64;
constexpr std::size_t kCdBudget = 24;
constexpr double kReferencePrune = 1e-14;

/// Regularized upper incomplete gamma Q(a, x) (series below a + 1,
/// Lentz continued fraction above).
double gamma_q(double a, double x) {
  if (x <= 0.0) return 1.0;
  const double log_prefix = a * std::log(x) - x - std::lgamma(a);
  if (x < a + 1.0) {
    double term = 1.0 / a;
    double sum = term;
    for (int n = 1; n < 1000; ++n) {
      term *= x / (a + n);
      sum += term;
      if (std::abs(term) < std::abs(sum) * 1e-15) break;
    }
    return std::max(0.0, 1.0 - sum * std::exp(log_prefix));
  }
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 1000; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-15) break;
  }
  return std::exp(log_prefix) * h;
}

/// Kolmogorov tail Pr(K > lambda).
double kolmogorov_q(double lambda) {
  if (lambda < 0.2) return 1.0;
  double sum = 0.0;
  for (int j = 1; j <= 100; ++j) {
    const double term = std::exp(-2.0 * j * j * lambda * lambda);
    sum += (j % 2 == 1 ? 2.0 : -2.0) * term;
    if (term < 1e-16) break;
  }
  return std::clamp(sum, 0.0, 1.0);
}

/// Exact law of one case: mass[r - 1] = Pr(solved in round r) for r in
/// [1, budget], mass[budget] = Pr(unsolved at the budget).
using Law = std::vector<double>;

Law law_from_solve_by(const ExactProfile& profile) {
  const std::size_t budget = profile.solve_by.size() - 1;
  Law law(budget + 1, 0.0);
  for (std::size_t r = 1; r <= budget; ++r) {
    law[r - 1] = std::max(0.0, profile.solve_by[r] - profile.solve_by[r - 1]);
  }
  law[budget] = std::max(0.0, 1.0 - profile.solve_by[budget]);
  return law;
}

/// Sum of weight * law over a size distribution's support.
template <typename ProfileFn>
Law mixture_law(const info::SizeDistribution& sizes, std::size_t budget,
                ProfileFn profile_for) {
  Law law(budget + 1, 0.0);
  for (const std::size_t k : sizes.support_sizes()) {
    const Law part = law_from_solve_by(profile_for(k));
    for (std::size_t i = 0; i <= budget; ++i) {
      law[i] += sizes.prob(k) * part[i];
    }
  }
  return law;
}

/// The measurement's counts in the Law layout.
std::vector<std::uint64_t> observed_counts(const Measurement& m,
                                           std::size_t budget) {
  std::vector<std::uint64_t> observed(budget + 1, 0);
  const auto counts = m.histogram.counts();
  for (std::size_t r = 1; r < counts.size(); ++r) {
    EXPECT_TRUE(r <= budget || counts[r] == 0)
        << counts[r] << " trials solved past the budget, in round " << r;
    if (r <= budget) observed[r - 1] = counts[r];
  }
  observed[budget] = m.histogram.trials() - m.histogram.solved();
  return observed;
}

struct GateResult {
  double chi2_p = 1.0;
  double ks_p = 1.0;
  std::string report;
};

GateResult run_gate(const Law& law, const std::vector<std::uint64_t>& observed) {
  const std::size_t bins = law.size();
  double n = 0.0;
  for (const std::uint64_t c : observed) n += static_cast<double>(c);

  // A trial in a round the exact law gives no mass at all is an
  // impossible event, whatever pooling would make of it.
  for (std::size_t i = 0; i < bins; ++i) {
    EXPECT_FALSE(law[i] == 0.0 && observed[i] > 0)
        << observed[i] << " trials in bin " << i << " of zero exact mass";
  }

  // Pool neighbours front to back until each expected count reaches
  // kMinExpected; an underfull remainder joins the last pooled bin.
  std::vector<double> pooled_expected;
  std::vector<double> pooled_observed;
  double e_acc = 0.0;
  double o_acc = 0.0;
  for (std::size_t i = 0; i < bins; ++i) {
    e_acc += n * law[i];
    o_acc += static_cast<double>(observed[i]);
    if (e_acc >= kMinExpected) {
      pooled_expected.push_back(e_acc);
      pooled_observed.push_back(o_acc);
      e_acc = o_acc = 0.0;
    }
  }
  if (!pooled_expected.empty()) {
    pooled_expected.back() += e_acc;
    pooled_observed.back() += o_acc;
  }
  double chi2 = 0.0;
  for (std::size_t i = 0; i < pooled_expected.size(); ++i) {
    const double diff = pooled_observed[i] - pooled_expected[i];
    chi2 += diff * diff / pooled_expected[i];
  }
  const double df = static_cast<double>(pooled_expected.size()) - 1.0;

  // KS over the solved-by curve F(r) = Pr(solved within r rounds).
  double d = 0.0;
  double f_exact = 0.0;
  double f_empirical = 0.0;
  for (std::size_t i = 0; i + 1 < bins; ++i) {
    f_exact += law[i];
    f_empirical += static_cast<double>(observed[i]) / n;
    d = std::max(d, std::abs(f_exact - f_empirical));
  }
  const double root_n = std::sqrt(n);

  GateResult result;
  result.chi2_p = df >= 1.0 ? gamma_q(df / 2.0, chi2 / 2.0) : 1.0;
  result.ks_p = kolmogorov_q((root_n + 0.12 + 0.11 / root_n) * d);
  std::ostringstream report;
  report << "chi2=" << chi2 << " df=" << df << " p=" << result.chi2_p
         << "; KS D=" << d << " p=" << result.ks_p
         << "; per-test alpha=" << kTestAlpha;
  result.report = report.str();
  return result;
}

void expect_matches(const Law& law, const Measurement& m) {
  const auto result =
      run_gate(law, observed_counts(m, law.size() - 1));
  EXPECT_GE(result.chi2_p, kTestAlpha) << result.report;
  EXPECT_GE(result.ks_p, kTestAlpha) << result.report;
  std::cout << "[gate] " << result.report << "\n";
}

// ---- the statistics themselves -------------------------------------

TEST(DistributionalGate, TailFunctionsMatchKnownValues) {
  // chi2 with 2 df: Q(1, x/2) = exp(-x/2).
  EXPECT_NEAR(gamma_q(1.0, 3.0), std::exp(-3.0), 1e-12);
  // chi2(10) upper 5% point is 18.307.
  EXPECT_NEAR(gamma_q(5.0, 18.307 / 2.0), 0.05, 1e-4);
  // chi2(1) upper 1% point is 6.635 (above the series/fraction split).
  EXPECT_NEAR(gamma_q(0.5, 6.635 / 2.0), 0.01, 1e-4);
  // Kolmogorov: Pr(K > 1.358) = 0.05, Pr(K > 1.628) = 0.01.
  EXPECT_NEAR(kolmogorov_q(1.358), 0.05, 5e-4);
  EXPECT_NEAR(kolmogorov_q(1.628), 0.01, 2e-4);
}

TEST(DistributionalGate, RejectsAShiftedSample) {
  // The gate's own power check on a synthetic law: Geometric(0.2)
  // counts moved one round later must fail both tests.
  Law law(kNoCdBudget + 1, 0.0);
  double alive = 1.0;
  for (std::size_t r = 0; r < kNoCdBudget; ++r) {
    law[r] = alive * 0.2;
    alive *= 0.8;
  }
  law[kNoCdBudget] = alive;
  std::vector<std::uint64_t> shifted(law.size(), 0);
  for (std::size_t i = 0; i < law.size(); ++i) {
    shifted[std::min(i + 1, law.size() - 1)] +=
        static_cast<std::uint64_t>(std::llround(1e5 * law[i]));
  }
  const auto result = run_gate(law, shifted);
  EXPECT_LT(result.chi2_p, kTestAlpha) << result.report;
  EXPECT_LT(result.ks_p, kTestAlpha) << result.report;
}

// ---- no-CD: the batch engine -----------------------------------------

/// Decay probabilities without the period() hint: the batch engine's
/// lazily tabulated aperiodic path.
class UnhintedDecay final : public channel::ProbabilitySchedule {
 public:
  explicit UnhintedDecay(std::size_t n) : decay_(n) {}
  double probability(std::size_t round) const override {
    return decay_.probability(round);
  }
  std::string name() const override { return "unhinted-decay"; }

 private:
  baselines::DecaySchedule decay_;
};

constexpr MeasureOptions kBatch{.max_rounds = kNoCdBudget,
                                .threads = 4,
                                .engine = NoCdEngine::kBatch};

TEST(DistributionalGate, BatchPeriodic) {
  const baselines::DecaySchedule decay(1 << 10);
  ASSERT_GT(decay.period(), 0u);
  const auto m =
      measure_uniform_no_cd_fixed_k(decay, 100, 400000, 1101, kBatch);
  expect_matches(law_from_solve_by(exact_profile_no_cd(decay, 100, kNoCdBudget)),
                 m);
}

TEST(DistributionalGate, BatchAperiodic) {
  const UnhintedDecay schedule(1 << 10);
  ASSERT_EQ(schedule.period(), 0u);
  const auto m =
      measure_uniform_no_cd_fixed_k(schedule, 100, 400000, 1103, kBatch);
  expect_matches(
      law_from_solve_by(exact_profile_no_cd(schedule, 100, kNoCdBudget)), m);
}

TEST(DistributionalGate, BatchDrawnSizesLikelihoodSchedule) {
  // A Table 1 no-CD cell: the likelihood-ordered schedule against
  // sizes drawn from the lifted prediction.
  const Table1EntropyPoint point(info::num_ranges(1 << 10), 4, 1 << 10);
  const auto m =
      measure_uniform_no_cd(point.schedule, point.actual, 400000, 1107, kBatch);
  expect_matches(mixture_law(point.actual, kNoCdBudget,
                             [&](std::size_t k) {
                               return exact_profile_no_cd(point.schedule, k,
                                                          kNoCdBudget);
                             }),
                 m);
}

// ---- CD: the history-tree engine ---------------------------------------

Measurement measure_tree(const HistoryTreeEngine& engine,
                         const channel::SizeSource& sizes, std::size_t trials,
                         std::uint64_t seed) {
  const MeasureOptions options{.max_rounds = kCdBudget, .threads = 4};
  return measure_blocks(engine, sizes, trials, seed, options);
}

Law willard_law(const baselines::WillardPolicy& willard, std::size_t k) {
  return law_from_solve_by(
      exact_profile_cd(willard, k, kCdBudget, kReferencePrune));
}

TEST(DistributionalGate, TreeDefaultOptions) {
  const baselines::WillardPolicy willard(1 << 16);
  const HistoryTreeEngine engine(willard);
  const auto m = measure_tree(engine, {nullptr, 60}, 400000, 1201);
  expect_matches(willard_law(willard, 60), m);
}

TEST(DistributionalGate, TreeCoarsePruneContinuesRealMass) {
  // prune_below 1e-2 prunes most of the tree, so a large share of the
  // trials continue past a pruned branch by per-round simulation.
  const baselines::WillardPolicy willard(1 << 16);
  HistoryTreeEngine::Options coarse;
  coarse.prune_below = 1e-2;
  const HistoryTreeEngine engine(willard, coarse);
  const auto tree = engine.tree_for(60, kCdBudget).first;
  EXPECT_GT(tree->pruned_mass, 0.1);
  const auto m = measure_tree(engine, {nullptr, 60}, 8000000, 1203);
  expect_matches(willard_law(willard, 60), m);
}

TEST(DistributionalGate, TreeDepthCapBelowBudget) {
  // A 6-round expansion under a 24-round budget: every trial still
  // alive at the cap continues from the frontier.
  const baselines::WillardPolicy willard(1 << 16);
  HistoryTreeEngine::Options capped;
  capped.depth_cap = 6;
  const HistoryTreeEngine engine(willard, capped);
  const auto tree = engine.tree_for(60, kCdBudget).first;
  EXPECT_EQ(tree->horizon, 6u);
  EXPECT_GT(tree->frontier_mass, 0.05);
  const auto m = measure_tree(engine, {nullptr, 60}, 400000, 1207);
  expect_matches(willard_law(willard, 60), m);
}

TEST(DistributionalGate, TreeTruncatedExpansionSimulates) {
  const baselines::WillardPolicy willard(1 << 16);
  HistoryTreeEngine::Options tiny;
  tiny.max_nodes = 100;
  const HistoryTreeEngine engine(willard, tiny);
  EXPECT_EQ(engine.tree_for(60, kCdBudget).second,
            HistoryTreeEngine::Mode::kSimulate);
  const auto m = measure_tree(engine, {nullptr, 60}, 400000, 1211);
  expect_matches(willard_law(willard, 60), m);
}

TEST(DistributionalGate, TreeDrawnSizesCodedSearch) {
  // A Table 1 CD cell: coded search against sizes drawn from the
  // lifted prediction, at the engine's default options.
  const Table1EntropyPoint point(info::num_ranges(1 << 10), 4, 1 << 10);
  const HistoryTreeEngine engine(point.policy);
  const auto m = measure_tree(
      engine, {.distribution = &point.actual}, 400000, 1213);
  expect_matches(mixture_law(point.actual, kCdBudget,
                             [&](std::size_t k) {
                               return exact_profile_cd(point.policy, k,
                                                       kCdBudget,
                                                       kReferencePrune);
                             }),
                 m);
}

}  // namespace
}  // namespace crp::harness
