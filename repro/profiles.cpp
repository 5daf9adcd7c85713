// Exact success profiles: Pr(solved within r rounds) computed in closed
// form (no Monte-Carlo noise) for the paper's algorithms and baselines,
// rendered as CDF sparklines. This is the figure-like view of Table 1:
// how the whole distribution of the solving round — not just its mean —
// moves with entropy and divergence.
//
// Also validates the exact worst case of the Table 2 deterministic
// protocols by exhaustive adversary enumeration at small n. ctest
// `repro_profiles` checks stdout against tests/goldens/repro_profiles.txt
// byte for byte.
#include <cmath>
#include <iostream>

#include "core/advice.h"
#include "core/advice_deterministic.h"
#include "core/coded_search.h"
#include "core/likelihood_schedule.h"
#include "harness/adversary.h"
#include "harness/exact.h"
#include "harness/sparkline.h"
#include "harness/table.h"
#include "info/distribution.h"
#include "predict/families.h"
#include "predict/noise.h"

namespace {

constexpr std::size_t kNetwork = 1 << 14;  // 14 ranges
using crp::harness::fmt;

void print_entropy_profiles() {
  const std::size_t ranges = crp::info::num_ranges(kNetwork);
  constexpr std::size_t horizon = 60;
  std::cout << "== Exact no-CD success profiles vs entropy (Y = X, k at "
               "the top range endpoint; x: rounds 1.." << horizon
            << ", y: Pr(solved)) ==\n";
  for (std::size_t m : {1ul, 4ul, 14ul}) {
    const auto condensed =
        crp::predict::uniform_over_ranges(ranges, m);
    const crp::core::LikelihoodOrderedSchedule schedule(condensed);
    const std::size_t k = crp::info::range_max_size(m);  // worst range
    const auto profile =
        crp::harness::exact_profile_no_cd(schedule, k, horizon);
    std::cout << "  H=" << fmt(condensed.entropy(), 2) << " k=" << k
              << " |"
              << crp::harness::sparkline(
                     std::span<const double>(profile.solve_by).subspan(1),
                     horizon)
              << "| by-" << horizon << "="
              << fmt(profile.solve_by.back(), 3) << "\n";
  }
  std::cout << "  (higher entropy pushes the CDF right: more rounds "
               "before the likely ranges reach the truth)\n\n";

  std::cout << "== Exact CD success profiles (same sweep, coded search) "
               "==\n";
  for (std::size_t m : {1ul, 4ul, 14ul}) {
    const auto condensed =
        crp::predict::uniform_over_ranges(ranges, m);
    const crp::core::CodedSearchPolicy policy(condensed);
    const std::size_t k = crp::info::range_max_size(m);
    const auto profile = crp::harness::exact_profile_cd(policy, k, 30);
    std::cout << "  H=" << fmt(condensed.entropy(), 2) << " k=" << k
              << " |"
              << crp::harness::sparkline(
                     std::span<const double>(profile.solve_by).subspan(1),
                     30)
              << "| by-30=" << fmt(profile.solve_by.back(), 3) << "\n";
  }
  std::cout << '\n';
}

void print_divergence_profiles() {
  const std::size_t ranges = crp::info::num_ranges(kNetwork);
  const auto truth = crp::predict::geometric_ranges(ranges, 0.35);
  const auto adversary = crp::predict::smooth_with_uniform(
      crp::predict::reverse_ranges(truth), 0.05);
  // Fix k in the truth's most likely range; sweep prediction quality.
  const std::size_t k = 2;
  constexpr std::size_t horizon = 40;
  std::cout << "== Exact no-CD profiles vs divergence (k = " << k
            << ", truth-likely range) ==\n";
  for (double lambda : {1.0, 0.5, 0.0}) {
    const auto prediction =
        crp::predict::mix(truth, adversary, lambda);
    const crp::core::LikelihoodOrderedSchedule schedule(prediction);
    const auto profile =
        crp::harness::exact_profile_no_cd(schedule, k, horizon);
    std::cout << "  D=" << fmt(truth.kl_divergence(prediction), 2)
              << " |"
              << crp::harness::sparkline(
                     std::span<const double>(profile.solve_by).subspan(1),
                     horizon)
              << "| E[T]<=" << fmt(profile.truncated_expectation, 1)
              << "\n";
  }
  std::cout << "  (divergence delays the first probe of the true range "
               "by pushing it down the likelihood order)\n\n";
}

void print_exact_adversary() {
  constexpr std::size_t n = 64;  // height 6; C(64,3) = 41664 sets
  // exact_worst_case fans the C(n, 3) participant sets across the
  // block scheduler by default (threads = 0); the maximum and witness
  // are identical to the serial scan at any thread count.
  std::cout << "== Exhaustive Table 2 verification at n = " << n
            << " (every 3-subset enumerated) ==\n";
  crp::harness::Table table({"b", "noCD exact worst", "n/2^b", "CD exact "
                             "worst", "log(n)-b", "witness (noCD)"});
  for (std::size_t b : {0ul, 2ul, 4ul, 6ul}) {
    const crp::core::SubtreeScanProtocol scan(n, b);
    const crp::core::TreeDescentCdProtocol descent(n, b);
    const crp::core::MinIdPrefixAdvice advice(n, b);
    const auto w_scan =
        crp::harness::exact_worst_case(scan, advice, n, 3, false);
    const auto w_descent =
        crp::harness::exact_worst_case(descent, advice, n, 3, true);
    std::string witness;
    for (std::size_t id : w_scan.witness) {
      witness += (witness.empty() ? "{" : ",") + std::to_string(id);
    }
    witness += "}";
    table.add_row({fmt(b), fmt(w_scan.rounds),
                   fmt(double(n) / std::exp2(double(b)), 0),
                   fmt(w_descent.rounds),
                   fmt(std::log2(double(n)) - double(b), 0), witness});
  }
  table.print(std::cout);
  std::cout << "(exact maxima over all C(64,3) participant sets — the "
               "Table 2 worst cases to the round, with witnesses)\n\n";
}

}  // namespace

int main() {
  print_entropy_profiles();
  print_divergence_profiles();
  print_exact_adversary();
  return 0;
}
