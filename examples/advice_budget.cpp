// Scenario: provisioning an advice budget (Section 3).
//
// A coordinator can piggyback b bits of perfect advice on a beacon
// before each contention window. Bits cost airtime, so the operator
// wants the smallest b that meets a latency SLO. This example sweeps b
// for all four Table 2 protocol families and prints the resulting
// worst-case / expected rounds, plus the theoretical ceilings, so an
// operator can read off the cheapest budget meeting a target.
#include <cmath>
#include <iostream>

#include "channel/engine.h"
#include "channel/simulator.h"
#include "core/advice.h"
#include "core/advice_deterministic.h"
#include "core/advice_randomized.h"
#include "harness/measure.h"
#include "harness/table.h"
#include "info/distribution.h"

namespace {
constexpr std::size_t kNetwork = 1 << 10;  // 1024 devices
constexpr std::size_t kRandNetwork = 1 << 16;
using crp::harness::fmt;
}  // namespace

int main() {
  std::cout << "Advice budget planner: rounds as a function of beacon "
               "bits b\n\n";

  // Deterministic protocols: guaranteed (worst-case) latency.
  std::cout << "deterministic guarantees, n = " << kNetwork << ":\n";
  crp::harness::Table det({"b bits", "noCD worst (scan)",
                           "CD worst (descent)", "paper noCD n/2^b",
                           "paper CD log(n)-b"});
  for (std::size_t b = 0; b <= 10; b += 2) {
    const crp::core::SubtreeScanProtocol scan(kNetwork, b);
    const crp::core::TreeDescentCdProtocol descent(kNetwork, b);
    const crp::core::MinIdPrefixAdvice advice(kNetwork, b);
    const double no_cd = crp::harness::worst_case_deterministic_rounds(
        scan, advice, kNetwork, /*k=*/5, false, 200, /*seed=*/3);
    const double cd = crp::harness::worst_case_deterministic_rounds(
        descent, advice, kNetwork, /*k=*/5, true, 200, /*seed=*/4);
    det.add_row({fmt(b), fmt(no_cd, 0), fmt(cd, 0),
                 fmt(double(kNetwork) / std::exp2(double(b)), 0),
                 fmt(std::log2(double(kNetwork)) - double(b), 0)});
  }
  det.print(std::cout);

  // Randomized protocols: expected latency, much larger network.
  std::cout << "\nrandomized expectations, n = " << kRandNetwork
            << " (k drawn uniformly):\n";
  crp::harness::Table rnd({"b bits", "noCD mean (trunc decay)",
                           "CD mean (trunc willard)",
                           "paper noCD log(n)/2^b",
                           "paper CD loglog(n)-b"});
  const auto sizes = crp::info::SizeDistribution::uniform(kRandNetwork);
  constexpr std::size_t trials = 3000;
  for (std::size_t b = 0; b <= 4; ++b) {
    const crp::core::RangeGroupAdvice advice(kRandNetwork, b);
    // Per trial: draw k, compute the advised group, run both protocols.
    // The advised schedule depends on the drawn k, so the no-CD side
    // cannot share one batch sampler across trials; the adapter engine
    // still fans the independent trials across every core.
    const crp::channel::SizeSource drawn{&sizes, 0};
    const crp::channel::AdapterEngine decay(
        [&](std::size_t k, crp::channel::Rng& rng,
            const crp::channel::SimOptions& options) {
          const std::size_t group = advice.group_of_range(
              crp::info::range_of_size(k));
          const crp::core::TruncatedDecaySchedule schedule(
              advice.ranges_in_group(group));
          return crp::channel::run_uniform_no_cd(schedule, k, rng, options);
        });
    const crp::channel::AdapterEngine willard(
        [&](std::size_t k, crp::channel::Rng& rng,
            const crp::channel::SimOptions& options) {
          const std::size_t group = advice.group_of_range(
              crp::info::range_of_size(k));
          const crp::core::TruncatedWillardPolicy policy(
              advice.ranges_in_group(group));
          return crp::channel::run_uniform_cd(policy, k, rng, options);
        });
    const auto m_decay = crp::harness::measure_blocks(
        decay, drawn, trials, /*seed=*/5, {.max_rounds = 1 << 14});
    const auto m_willard = crp::harness::measure_blocks(
        willard, drawn, trials, /*seed=*/6, {.max_rounds = 1 << 12});
    rnd.add_row(
        {fmt(b), fmt(m_decay.rounds.mean, 2),
         fmt(m_willard.rounds.mean, 2),
         fmt(std::log2(double(kRandNetwork)) / std::exp2(double(b)), 2),
         fmt(std::max(0.0, std::log2(std::log2(double(kRandNetwork))) -
                              double(b)),
             2)});
  }
  rnd.print(std::cout);

  std::cout
      << "\nReading the tables: with collision detection each advice bit "
         "buys one tree level (additive); without it, each bit halves "
         "the remaining work (multiplicative). Theorems 3.4-3.7 say no "
         "protocol can do better — budget accordingly.\n";
  return 0;
}
