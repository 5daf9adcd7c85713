// Reproduction of Table 2: tight bounds for contention resolution with
// b bits of perfect advice.
//
//   cell                     | paper bound             | protocol
//   --------------------------+-------------------------+---------------
//   deterministic, no CD     | Theta(n^{1-beta}/log n)* | subtree scan
//   deterministic, CD        | Theta(log n - b)         | tree descent
//   randomized, no CD        | Theta(log n / 2^b)       | trunc. decay
//   randomized, CD           | Theta(log log n - b)     | trunc. Willard
//
// (*) measured as worst-case rounds ~ n / 2^b for b = beta log n, the
// form the Theorem 3.4 tightness construction achieves.
// Also exercises the Theorem 3.3 foundation: non-interactive contention
// resolution needs >= log n advice bits. ctest `repro_table2` checks
// stdout against tests/goldens/repro_table2.txt byte for byte.
#include <cmath>
#include <iostream>
#include <memory>

#include "core/advice.h"
#include "core/advice_deterministic.h"
#include "core/advice_randomized.h"
#include "core/faulty_advice.h"
#include "harness/fit.h"
#include "harness/measure.h"
#include "harness/sweep.h"
#include "harness/table.h"
#include "info/distribution.h"
#include "rangefind/selective.h"

namespace {

constexpr std::uint64_t kSeed = 314159;
using crp::harness::fmt;

void print_deterministic() {
  constexpr std::size_t n = 1 << 10;
  std::cout << "== Table 2, deterministic rows (n = " << n
            << ", worst-case rounds over probed participant sets) ==\n";
  crp::harness::Table table({"b", "n/2^b bound", "noCD worst",
                             "log(n)-b bound", "CD worst"});
  // The probe fan-out is thread-count invariant; run it on the pool.
  const crp::harness::MeasureOptions pooled{.max_rounds = 1 << 20,
                                            .threads = 0};
  for (std::size_t b : {0ul, 2ul, 4ul, 6ul, 8ul, 10ul}) {
    const crp::core::SubtreeScanProtocol scan(n, b);
    const crp::core::TreeDescentCdProtocol descent(n, b);
    const crp::core::MinIdPrefixAdvice advice(n, b);
    const double no_cd = crp::harness::worst_case_deterministic_rounds(
        scan, advice, n, /*k=*/4, false, /*probes=*/300, kSeed, pooled);
    const double cd = crp::harness::worst_case_deterministic_rounds(
        descent, advice, n, /*k=*/4, true, /*probes=*/300, kSeed + 1,
        pooled);
    table.add_row({fmt(b), fmt(double(n) / std::exp2(double(b)), 0),
                   fmt(no_cd, 0),
                   fmt(std::log2(double(n)) - double(b), 0), fmt(cd, 0)});
  }
  table.print(std::cout);
  std::cout << '\n';
}

void print_randomized() {
  constexpr std::size_t n = 1 << 16;
  constexpr std::size_t k = 2500;  // range 12 of 16
  constexpr std::size_t trials = 6000;
  std::cout << "== Table 2, randomized rows (n = " << n << ", k = " << k
            << ", expected rounds) ==\n";
  crp::harness::Table table({"b", "log(n)/2^b bound", "noCD mean",
                             "loglog(n)-b bound", "CD mean"});
  std::vector<double> bs;
  std::vector<double> nocd_means;
  std::vector<std::size_t> participants(k);
  for (std::size_t i = 0; i < k; ++i) participants[i] = i;

  // One advice-budget point per b: the truncated baselines configured
  // for the advised range group, swept as fixed-k cells in one grid.
  struct BudgetPoint {
    BudgetPoint(std::size_t n, std::size_t b,
                const std::vector<std::size_t>& participants)
        : advice(n, b),
          group(crp::core::bits_to_index(advice.advise(participants))),
          decay(advice.ranges_in_group(group)),
          willard(advice.ranges_in_group(group)) {}

    crp::core::RangeGroupAdvice advice;
    std::size_t group;
    crp::core::TruncatedDecaySchedule decay;
    crp::core::TruncatedWillardPolicy willard;
  };
  const std::vector<std::size_t> budgets{0, 1, 2, 3, 4};
  std::vector<BudgetPoint> points;
  for (const std::size_t b : budgets) {
    points.emplace_back(n, b, participants);
  }
  crp::harness::SweepGrid grid;
  for (const auto& point : points) {
    const crp::harness::SweepSizes sizes{.fixed_k = k};
    grid.add_cell({.algorithm = {.name = "trunc-decay",
                                 .schedule = &point.decay},
                   .sizes = sizes,
                   .max_rounds = 1 << 14});
    grid.add_cell({.algorithm = {.name = "trunc-willard",
                                 .policy = &point.willard},
                   .sizes = sizes,
                   .max_rounds = 1 << 12});
  }
  const auto results = crp::harness::run_sweep(
      grid.cells(), {.trials = trials, .seed = kSeed + 2});

  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const std::size_t b = budgets[i];
    const auto& m_decay = results[2 * i].measurement;
    const auto& m_willard = results[2 * i + 1].measurement;
    table.add_row(
        {fmt(b), fmt(std::log2(double(n)) / std::exp2(double(b)), 2),
         fmt(m_decay.rounds.mean, 2),
         fmt(std::max(0.0, std::log2(std::log2(double(n))) - double(b)),
             2),
         fmt(m_willard.rounds.mean, 2)});
    bs.push_back(std::log2(double(n)) / std::exp2(double(b)));
    nocd_means.push_back(m_decay.rounds.mean);
  }
  table.print(std::cout);
  const auto fit = crp::harness::fit_through_origin(bs, nocd_means);
  std::cout << "shape check: noCD mean ~ " << fmt(fit.slope, 2)
            << " * log(n)/2^b  (R^2 = " << fmt(fit.r_squared, 3)
            << "; paper: Theta(log n / 2^b))\n\n";
}

void print_non_interactive() {
  std::cout << "== Theorem 3.3 foundation: non-interactive contention "
               "resolution ==\n";
  crp::harness::Table table({"n", "ceil(log n) bits", "min-id scheme ok",
                             "induced family selective"});
  for (std::size_t n : {4ul, 8ul, 12ul, 16ul}) {
    const auto scheme =
        crp::rangefind::NonInteractiveScheme::min_id_scheme(n);
    const bool correct = !scheme.find_violation().has_value();
    const bool selective = crp::rangefind::is_strongly_selective(
        scheme.induced_family(), n);
    table.add_row({fmt(n), fmt(scheme.advice_bits()),
                   correct ? "yes" : "NO", selective ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "(Theorem 3.2/3.3: any correct scheme induces an (n,n)-"
               "strongly selective family, hence needs >= log n bits.)\n\n";
}

void print_faulty_advice() {
  // Robustness sweep (the Section 1.3 theme): corrupt the advice bits
  // and watch the protocols degrade gracefully instead of failing.
  constexpr std::size_t n = 1 << 10;
  constexpr std::size_t b = 5;
  constexpr std::size_t trials = 1500;
  std::cout << "== Faulty advice: " << b << "-bit advisors with flipped "
               "bits (n = " << n << ", mean rounds) ==\n";
  crp::harness::Table table({"flip prob", "noCD scan", "CD descent",
                             "all solved"});
  const crp::core::SubtreeScanProtocol scan(n, b);
  const crp::core::TreeDescentCdProtocol descent(n, b);
  const auto inner = std::make_shared<crp::core::MinIdPrefixAdvice>(n, b);
  const auto sizes = crp::info::SizeDistribution::uniform(64);
  for (double flip : {0.0, 0.05, 0.2, 0.5, 1.0}) {
    const crp::core::FaultyAdvice faulty(inner, flip, kSeed + 9);
    const auto m_scan = crp::harness::measure_deterministic_advice(
        scan, faulty, sizes, n, false, trials, kSeed + 10,
        {.max_rounds = 8 * n});
    const auto m_descent = crp::harness::measure_deterministic_advice(
        descent, faulty, sizes, n, true, trials, kSeed + 11,
        {.max_rounds = 8 * n});
    const bool all_solved =
        m_scan.success_rate == 1.0 && m_descent.success_rate == 1.0;
    table.add_row({fmt(flip, 2), fmt(m_scan.rounds.mean, 2),
                   fmt(m_descent.rounds.mean, 2),
                   all_solved ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "(wrong advice costs rounds — a wrong subtree scan falls "
               "back to a full sweep, a wrong descent escalates to the "
               "full tree — but never correctness)\n\n";
}

}  // namespace

int main() {
  print_deterministic();
  print_randomized();
  print_non_interactive();
  print_faulty_advice();
  return 0;
}
