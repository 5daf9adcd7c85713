// Reproduction of Table 1: entropy-parameterized bounds for contention
// resolution with network size predictions (accurate predictions,
// Y = X).
//
//   paper row                      | measured column
//   -------------------------------+----------------------------------
//   no-CD lower  Omega(2^H/llog n) | E[steps] of the RF chain and the
//                                  | decay baseline vs 2^H/log log n
//   no-CD upper  O(2^{2H}) w.c.p.  | rounds at which the Section 2.5
//                                  | algorithm has succeeded w.p. 1/16
//   CD lower     H/2 - O(llllog n) | E[code len] of the tree RF chain
//   CD upper     O(H^2) w.c.p.     | rounds at which the Section 2.6
//                                  | algorithm has succeeded w.c.p.
//
// Absolute constants are simulator-specific; the reproduced claim is
// the growth law in H and the ordering of the cells. ctest
// `repro_table1` checks stdout against tests/goldens/repro_table1.txt
// byte for byte.
#include <cmath>
#include <iostream>

#include "baselines/decay.h"
#include "baselines/willard.h"
#include "harness/fit.h"
#include "harness/grids.h"
#include "harness/sweep.h"
#include "harness/table.h"
#include "info/distribution.h"
#include "predict/families.h"
#include "rangefind/coding.h"
#include "rangefind/sequence.h"
#include "rangefind/tree.h"

namespace {

constexpr std::size_t kNetwork = 1 << 16;  // 16 geometric ranges
constexpr std::size_t kTrials = 6000;
constexpr std::uint64_t kSeed = 20210526;  // arXiv submission date

using crp::harness::fmt;

// The Table 1 entropy points and upper-bound grid are the shared
// reference definitions in harness/grids.h — the same cells the
// crp_shard CLI runs, so sharded "table1" runs reproduce exactly this
// program's grid.
using crp::harness::table1_entropy_points;
using crp::harness::table1_upper_bound_grid;

void print_upper_bounds() {
  const auto points = table1_entropy_points(kNetwork);
  std::cout << "== Table 1 upper bounds (Y = X, n = " << kNetwork
            << ", trials = " << kTrials << ") ==\n";
  const auto results = crp::harness::run_sweep(
      table1_upper_bound_grid(points).cells(),
      {.trials = kTrials, .seed = kSeed});
  crp::harness::Table table(
      {"H(c(X))", "2^2H bound", "noCD r@1/16", "noCD p90", "noCD mean",
       "H^2 bound", "CD r@const", "CD p90", "CD mean"});
  std::vector<double> h_values;
  std::vector<double> nocd_p90;
  std::vector<double> cd_mean;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double h = points[i].h;
    const auto& no_cd = results[2 * i].measurement;
    const auto& cd = results[2 * i + 1].measurement;

    // Smallest round budget at which >= 1/16 of one-shot executions
    // have succeeded (the Theorem 2.12 success criterion). The p90
    // column exposes the exponential tail growth the bound tracks.
    double r16 = 1.0;
    while (no_cd.solved_within(r16) < 1.0 / 16.0) r16 += 1.0;
    double r_cd = 1.0;
    while (cd.solved_within(r_cd) < 0.25) r_cd += 1.0;

    table.add_row({fmt(h, 2), fmt(std::exp2(2.0 * h), 1), fmt(r16, 0),
                   fmt(no_cd.rounds.p90, 1), fmt(no_cd.rounds.mean, 2),
                   fmt((h + 1.0) * (h + 1.0), 1), fmt(r_cd, 0),
                   fmt(cd.rounds.p90, 1), fmt(cd.rounds.mean, 2)});
    h_values.push_back(h);
    nocd_p90.push_back(no_cd.rounds.p90);
    cd_mean.push_back(cd.rounds.mean);
  }
  table.print(std::cout);
  std::cout << "shape check: spearman(H, noCD p90) = "
            << fmt(crp::harness::spearman(h_values, nocd_p90), 3)
            << " (paper: strictly increasing, exponential in H)\n\n";
}

void print_lower_bounds() {
  const double loglog = std::log2(std::log2(double(kNetwork)));
  std::cout << "== Table 1 lower bounds (reduction chain, n = " << kNetwork
            << ") ==\n";
  crp::harness::Table table(
      {"H(c(X))", "2^H/llog bound", "seq E[code] >= H?", "decay mean",
       "H/2 bound", "tree E[code] >= H?", "willard mean"});
  const crp::baselines::DecaySchedule decay(kNetwork);
  const crp::baselines::WillardPolicy willard(kNetwork);
  const auto seq = crp::rangefind::rf_construction(decay, 600, kNetwork);
  const auto tree =
      crp::rangefind::RangeFindingTree::from_policy(willard, kNetwork, 8);
  const crp::rangefind::SequenceTargetDistanceCode seq_code(seq, loglog);
  const double lll =
      std::log2(std::log2(std::log2(double(kNetwork)))) + 1.0;
  const crp::rangefind::TreeTargetDistanceCode tree_code(tree, lll);

  // The baselines against every entropy point's lifted distribution:
  // one grid, fixed algorithms crossed by hand with the per-point
  // workloads.
  const auto points = table1_entropy_points(kNetwork);
  crp::harness::SweepGrid grid;
  for (const auto& point : points) {
    const crp::harness::SweepSizes sizes{
        .name = "H=" + fmt(point.h, 2), .distribution = &point.actual};
    grid.add_cell({.algorithm = {.name = "decay", .schedule = &decay},
                   .sizes = sizes,
                   .max_rounds = 1 << 18});
    grid.add_cell({.algorithm = {.name = "willard", .policy = &willard},
                   .sizes = sizes,
                   .max_rounds = 1 << 14});
  }
  const auto results = crp::harness::run_sweep(
      grid.cells(), {.trials = kTrials / 2, .seed = kSeed + 2});

  for (std::size_t i = 0; i < points.size(); ++i) {
    const double h = points[i].h;
    const auto [seq_bits, seq_mass] =
        seq_code.expected_length(points[i].condensed);
    const auto [tree_bits, tree_mass] =
        tree_code.expected_length(points[i].condensed);
    const auto& m_decay = results[2 * i].measurement;
    const auto& m_willard = results[2 * i + 1].measurement;
    table.add_row(
        {fmt(h, 2), fmt(std::exp2(h) / loglog, 2),
         fmt(seq_bits, 2) + (seq_bits + 1e-9 >= h ? " yes" : " NO"),
         fmt(m_decay.rounds.mean, 2), fmt(h / 2.0, 2),
         fmt(tree_bits, 2) + (tree_bits + 1e-9 >= h ? " yes" : " NO"),
         fmt(m_willard.rounds.mean, 2)});
    (void)seq_mass;
    (void)tree_mass;
  }
  table.print(std::cout);
  std::cout << "(E[code length] >= H is the Source Coding Theorem step "
               "that forces both lower bounds.)\n\n";
}

void print_pliam_conjecture() {
  std::cout << "== Section 2.5 conjecture support (Pliam): guesswork / "
               "2^H is unbounded ==\n";
  crp::harness::Table table({"alphabet m", "H(spiked)", "2^H",
                             "E[guesswork]", "ratio"});
  for (std::size_t m : {64ul, 256ul, 1024ul, 4096ul, 16384ul}) {
    const auto source = crp::predict::spiked_uniform(m, 0.5);
    const double h = source.entropy();
    const double guesses = crp::predict::expected_guesswork(source);
    table.add_row({fmt(m), fmt(h, 2), fmt(std::exp2(h), 1),
                   fmt(guesses, 1), fmt(guesses / std::exp2(h), 2)});
  }
  table.print(std::cout);
  std::cout << "(E[guesswork] is the expected probe index of the Section "
               "2.5 strategy, so no alpha * 2^H round budget suffices "
               "for every source — supporting the paper's conjecture "
               "that the extra factor in the 2^{2H} exponent is real.)"
               "\n\n";
}

}  // namespace

int main() {
  print_upper_bounds();
  print_lower_bounds();
  print_pliam_conjecture();
  return 0;
}
