// Scenario: LPWAN/IoT duty-cycled uplink with a bimodal fleet.
//
// A sensor fleet reports on two schedules: a small always-on core
// (~30 nodes) checks in hourly, and once a day the full fleet
// (~3000 nodes) wakes together. The gateway cannot tell which regime
// the next contention window belongs to, but it knows the odds
// (23 hourly windows : 1 daily window). Energy is dominated by
// listening rounds, so fewer rounds = longer battery life.
//
// This example compares, over the mixture:
//   * fixed 1/k-hat tuned to the core (great 23/24 of the time,
//     terrible in the daily window),
//   * prediction-free decay,
//   * the Section 2.5 likelihood algorithm fed the true bimodal odds,
//     in both cycling modes (repeat-pass vs proportional),
// and prints the round/energy statistics including the p99 tail that
// the daily window dominates.
#include <iostream>

#include "baselines/decay.h"
#include "baselines/simple.h"
#include "channel/rng.h"
#include "core/likelihood_schedule.h"
#include "harness/measure.h"
#include "harness/table.h"
#include "info/distribution.h"
#include "predict/families.h"

namespace {
constexpr std::size_t kNetwork = 1 << 12;
using crp::harness::fmt;

crp::info::SizeDistribution fleet_mixture() {
  // 23/24 of windows: ~30 nodes (core); 1/24: ~3000 nodes (full fleet).
  const auto core =
      crp::predict::log_normal_sizes(kNetwork, std::log(30.0), 0.3);
  const auto fleet =
      crp::predict::log_normal_sizes(kNetwork, std::log(3000.0), 0.15);
  std::vector<double> probs(kNetwork + 1, 0.0);
  for (std::size_t k = 2; k <= kNetwork; ++k) {
    probs[k] = (23.0 / 24.0) * core.prob(k) + (1.0 / 24.0) * fleet.prob(k);
  }
  return crp::info::SizeDistribution{std::move(probs)};
}
}  // namespace

int main() {
  const auto mixture = fleet_mixture();
  const auto condensed = mixture.condense();
  std::cout << "IoT duty-cycle fleet: " << mixture.describe() << "\n"
            << "bimodal condensed distribution, H(c(X)) = "
            << fmt(condensed.entropy(), 3) << " bits\n\n";

  constexpr std::size_t trials = 6000;
  const crp::baselines::DecaySchedule decay(kNetwork);
  const auto fixed_core =
      crp::baselines::FixedProbabilitySchedule::for_size_estimate(30);
  const crp::core::LikelihoodOrderedSchedule repeat(
      condensed, crp::core::CycleMode::kRepeatPass);
  const crp::core::LikelihoodOrderedSchedule proportional(
      condensed, crp::core::CycleMode::kProportional);

  crp::harness::Table table({"strategy", "mean rounds", "p50", "p99",
                             "unresolved windows"});
  const auto add = [&](const char* name,
                       const crp::channel::ProbabilitySchedule& schedule,
                       std::size_t budget) {
    const auto m = crp::harness::measure_uniform_no_cd(
        schedule, mixture, trials, /*seed=*/23,
        {.max_rounds = budget, .engine = crp::harness::NoCdEngine::kBinomial});
    table.add_row({name, fmt(m.rounds.mean, 2), fmt(m.rounds.p50, 1),
                   fmt(m.rounds.p99, 1),
                   fmt(100.0 * (1.0 - m.success_rate), 2) + "%"});
  };
  // The fixed strategy gets a hard per-window budget: beyond 256 rounds
  // the window is lost (models the duty-cycle regulatory cap).
  add("fixed 1/30 (tuned to core)", fixed_core, 256);
  add("decay (no prediction)", decay, 1 << 14);
  add("likelihood, repeat-pass", repeat, 1 << 14);
  add("likelihood, proportional", proportional, 1 << 14);
  table.print(std::cout);

  std::cout
      << "\nThe core-tuned fixed probability is unbeatable on the hourly "
         "windows but loses the daily full-fleet window outright (3000 "
         "nodes at p = 1/30 collide for the whole budget). The bimodal "
         "prediction keeps the hourly windows near-optimal AND resolves "
         "the daily surge. Proportional cycling (the footnote-6 "
         "extension) trades the two regimes differently: it shaves the "
         "mean by revisiting the likely core range more often, at the "
         "price of a heavier p99 tail in the rare surge windows — pick "
         "the cycle mode to match whether the SLO is average energy or "
         "tail latency.\n";
  return 0;
}
