// Quickstart: the 60-second tour of the library.
//
// A venue has up to n = 4096 radios. Historically about 100-300 of them
// wake up at once. We encode that history as a predicted network-size
// distribution, hand it to the paper's prediction-augmented algorithms,
// and compare them with the classical prediction-free baselines.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "baselines/decay.h"
#include "baselines/willard.h"
#include "channel/rng.h"
#include "channel/simulator.h"
#include "core/coded_search.h"
#include "core/likelihood_schedule.h"
#include "harness/measure.h"
#include "harness/table.h"
#include "info/distribution.h"
#include "predict/families.h"

int main() {
  constexpr std::size_t n = 4096;

  // 1. The "learned" prediction: sizes cluster around 200 devices.
  //    (log-normal over sizes; any SizeDistribution works).
  const crp::info::SizeDistribution predicted =
      crp::predict::log_normal_sizes(n, std::log(200.0), 0.6);
  const crp::info::CondensedDistribution condensed = predicted.condense();
  std::cout << "prediction: " << predicted.describe() << "\n"
            << "condensed entropy H(c(Y)) = " << condensed.entropy()
            << " bits (max would be "
            << crp::harness::fmt(
                   std::log2(double(crp::info::num_ranges(n))), 2)
            << ")\n\n";

  // 2. Build the paper's two algorithms from the prediction.
  const crp::core::LikelihoodOrderedSchedule no_cd(condensed);  // Sec 2.5
  const crp::core::CodedSearchPolicy with_cd(condensed);        // Sec 2.6

  // 3. Run one visible execution (the actual network has 237 radios).
  crp::channel::ExecutionTrace trace;
  auto rng = crp::channel::make_rng(2021);
  const auto run = crp::channel::run_uniform_no_cd(
      no_cd, /*k=*/237, rng, {.max_rounds = 1 << 12, .trace = &trace});
  std::cout << "one execution with k = 237 active radios:\n";
  for (std::size_t r = 0; r < trace.size(); ++r) {
    std::cout << "  round " << r + 1 << ": p = " << trace[r].probability
              << ", " << trace[r].transmitters << " transmitted -> "
              << crp::channel::to_string(trace[r].feedback) << "\n";
  }
  std::cout << "resolved in " << run.rounds << " round(s)\n\n";

  // 4. Monte-Carlo comparison against the prediction-free baselines.
  const crp::baselines::DecaySchedule decay(n);
  const crp::baselines::WillardPolicy willard(n);
  constexpr std::size_t trials = 5000;
  const auto m_no_cd = crp::harness::measure_uniform_no_cd(
      no_cd, predicted, trials, /*seed=*/1,
      {.max_rounds = 1 << 14, .engine = crp::harness::NoCdEngine::kBinomial});
  const auto m_decay = crp::harness::measure_uniform_no_cd(
      decay, predicted, trials, /*seed=*/1,
      {.max_rounds = 1 << 14, .engine = crp::harness::NoCdEngine::kBinomial});
  const auto m_cd = crp::harness::measure_uniform_cd(
      with_cd, predicted, trials, /*seed=*/2, {.max_rounds = 1 << 12});
  const auto m_willard = crp::harness::measure_uniform_cd(
      willard, predicted, trials, /*seed=*/2, {.max_rounds = 1 << 12});

  crp::harness::Table table(
      {"algorithm", "channel", "uses prediction", "mean rounds", "p90"});
  table.add_row({"likelihood-ordered (Sec 2.5)", "no CD", "yes",
                 crp::harness::fmt(m_no_cd.rounds.mean, 2),
                 crp::harness::fmt(m_no_cd.rounds.p90, 1)});
  table.add_row({"decay (baseline)", "no CD", "no",
                 crp::harness::fmt(m_decay.rounds.mean, 2),
                 crp::harness::fmt(m_decay.rounds.p90, 1)});
  table.add_row({"coded-search (Sec 2.6)", "CD", "yes",
                 crp::harness::fmt(m_cd.rounds.mean, 2),
                 crp::harness::fmt(m_cd.rounds.p90, 1)});
  table.add_row({"willard (baseline)", "CD", "no",
                 crp::harness::fmt(m_willard.rounds.mean, 2),
                 crp::harness::fmt(m_willard.rounds.p90, 1)});
  table.print(std::cout);
  return 0;
}
