// Reproduction of the divergence-sensitivity claims:
//   Theorem 2.12 (no CD): success w.p. >= 1/16 within O(2^T) rounds,
//       T = 2 H(c(X)) + 2 D_KL(c(X) || c(Y));
//   Theorem 2.16 (CD): success w.c.p. within O((H + D_KL)^2) rounds;
//   and the robustness remark: bounded-constant-factor prediction error
//   keeps D_KL = O(1), so such predictions stay useful.
// ctest `repro_divergence` checks stdout against
// tests/goldens/repro_divergence.txt byte for byte.
#include <cmath>
#include <iostream>

#include "channel/rng.h"
#include "core/coded_search.h"
#include "core/likelihood_schedule.h"
#include "harness/fit.h"
#include "harness/sweep.h"
#include "harness/table.h"
#include "info/distribution.h"
#include "predict/families.h"
#include "predict/noise.h"

namespace {

constexpr std::size_t kNetwork = 1 << 16;
constexpr std::size_t kTrials = 6000;
constexpr std::uint64_t kSeed = 271828;
using crp::harness::fmt;

/// One divergence point: the (possibly corrupted) prediction and the
/// paper's two algorithms configured for it. Owned so sweep cells can
/// reference the members by pointer.
struct DivergencePoint {
  DivergencePoint(const crp::info::CondensedDistribution& truth,
                  crp::info::CondensedDistribution prediction_in)
      : prediction(std::move(prediction_in)),
        divergence(truth.kl_divergence(prediction)),
        schedule(prediction),
        policy(prediction) {}

  crp::info::CondensedDistribution prediction;
  double divergence;
  crp::core::LikelihoodOrderedSchedule schedule;
  crp::core::CodedSearchPolicy policy;
};

void print_divergence_sweep() {
  const std::size_t ranges = crp::info::num_ranges(kNetwork);
  const auto truth = crp::predict::geometric_ranges(ranges, 0.35);
  const auto actual = crp::predict::lift(
      truth, kNetwork, crp::predict::RangePlacement::kHighEndpoint);
  const auto adversary = crp::predict::smooth_with_uniform(
      crp::predict::reverse_ranges(truth), 0.05);
  const double h = truth.entropy();
  std::cout << "== Divergence sweep (n = " << kNetwork
            << ", H(c(X)) = " << fmt(h, 2)
            << ", prediction = (1-t)*truth + t*reversed) ==\n";
  crp::harness::Table table({"D_KL(X||Y)", "2^(2H+2D) bound",
                             "noCD r@1/16", "noCD mean",
                             "(H+D)^2 bound", "CD mean"});

  std::vector<DivergencePoint> points;
  for (double t : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    points.emplace_back(truth,
                        crp::predict::mix(truth, adversary, 1.0 - t));
  }
  crp::harness::SweepGrid grid;
  for (const auto& point : points) {
    const crp::harness::SweepSizes sizes{.name = "divergence-truth",
                                         .distribution = &actual};
    grid.add_cell({.algorithm = {.name = "likelihood",
                                 .schedule = &point.schedule},
                   .sizes = sizes,
                   .max_rounds = 1 << 18});
    grid.add_cell({.algorithm = {.name = "coded", .policy = &point.policy},
                   .sizes = sizes,
                   .max_rounds = 1 << 14});
  }
  const auto results = crp::harness::run_sweep(
      grid.cells(), {.trials = kTrials, .seed = kSeed});

  std::vector<double> divergences;
  std::vector<double> nocd_means;
  std::vector<double> cd_means;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d = points[i].divergence;
    const auto& no_cd = results[2 * i].measurement;
    const auto& cd = results[2 * i + 1].measurement;
    double r16 = 1.0;
    while (no_cd.solved_within(r16) < 1.0 / 16.0) r16 += 1.0;

    table.add_row({fmt(d, 3), fmt(std::exp2(2 * h + 2 * d), 1),
                   fmt(r16, 0), fmt(no_cd.rounds.mean, 2),
                   fmt((h + d + 1) * (h + d + 1), 1),
                   fmt(cd.rounds.mean, 2)});
    divergences.push_back(d);
    nocd_means.push_back(no_cd.rounds.mean);
    cd_means.push_back(cd.rounds.mean);
  }
  table.print(std::cout);
  std::cout << "shape check: spearman(D_KL, noCD mean) = "
            << fmt(crp::harness::spearman(divergences, nocd_means), 3)
            << ", spearman(D_KL, CD mean) = "
            << fmt(crp::harness::spearman(divergences, cd_means), 3)
            << " (paper: both increase with divergence)\n\n";
}

void print_bounded_factor_robustness() {
  const std::size_t ranges = crp::info::num_ranges(kNetwork);
  const auto truth = crp::predict::geometric_ranges(ranges, 0.35);
  const auto actual = crp::predict::lift(
      truth, kNetwork, crp::predict::RangePlacement::kHighEndpoint);
  std::cout << "== Bounded-factor robustness (D_KL <= 2 log2 c stays "
               "O(1)) ==\n";
  crp::harness::Table table(
      {"jitter factor c", "measured D_KL", "noCD mean", "vs exact"});

  // Exact prediction first, then one jittered prediction per factor;
  // all share the workload, so the grid is exact-cell + factor cells.
  const std::vector<double> factors{1.0, 1.5, 2.0, 4.0, 8.0};
  std::vector<DivergencePoint> points;
  points.emplace_back(truth, truth);
  for (const double factor : factors) {
    auto rng = crp::channel::make_rng(kSeed + 7);
    points.emplace_back(
        truth, crp::predict::multiplicative_jitter(truth, factor, rng));
  }
  crp::harness::SweepGrid grid;
  for (const auto& point : points) {
    grid.add_cell({.algorithm = {.name = "likelihood",
                                 .schedule = &point.schedule},
                   .sizes = {.name = "jitter-truth", .distribution = &actual},
                   .max_rounds = 1 << 18});
  }
  const auto results = crp::harness::run_sweep(
      grid.cells(), {.trials = kTrials, .seed = kSeed + 2});

  const double exact_mean = results[0].measurement.rounds.mean;
  for (std::size_t i = 0; i < factors.size(); ++i) {
    const auto& noisy = results[i + 1].measurement;
    table.add_row({fmt(factors[i], 1),
                   fmt(points[i + 1].divergence, 3),
                   fmt(noisy.rounds.mean, 2),
                   fmt(noisy.rounds.mean / exact_mean, 2) + "x"});
  }
  table.print(std::cout);
  std::cout << '\n';
}

void print_learned_predictor() {
  const auto truth = crp::predict::log_normal_sizes(kNetwork, 7.0, 1.2);
  const auto condensed_truth = truth.condense();
  std::cout << "== Learned predictor: rounds improve 'for free' as the "
               "model sees more samples ==\n";
  crp::harness::Table table(
      {"training samples", "D_KL(X||Y)", "noCD mean", "CD mean"});

  const std::vector<std::size_t> sample_counts{0, 3, 10, 100, 10000};
  std::vector<DivergencePoint> points;
  for (const std::size_t samples : sample_counts) {
    auto rng = crp::channel::make_rng(kSeed + 11);
    points.emplace_back(
        condensed_truth,
        crp::predict::empirical_predictor(truth, samples, 0.5, rng));
  }
  crp::harness::SweepGrid grid;
  for (const auto& point : points) {
    const crp::harness::SweepSizes sizes{.name = "lognormal-truth",
                                         .distribution = &truth};
    grid.add_cell({.algorithm = {.name = "likelihood",
                                 .schedule = &point.schedule},
                   .sizes = sizes,
                   .max_rounds = 1 << 18});
    grid.add_cell({.algorithm = {.name = "coded", .policy = &point.policy},
                   .sizes = sizes,
                   .max_rounds = 1 << 14});
  }
  const auto results = crp::harness::run_sweep(
      grid.cells(), {.trials = kTrials, .seed = kSeed + 3});

  for (std::size_t i = 0; i < points.size(); ++i) {
    table.add_row({fmt(sample_counts[i]), fmt(points[i].divergence, 3),
                   fmt(results[2 * i].measurement.rounds.mean, 2),
                   fmt(results[2 * i + 1].measurement.rounds.mean, 2)});
  }
  table.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() {
  print_divergence_sweep();
  print_bounded_factor_robustness();
  print_learned_predictor();
  return 0;
}
