// Reproduction of the information-theoretic machinery (Section 2.2-2.4):
//   Theorem 2.2 (Source Coding): H <= E[S] <= H + 1 for optimal codes;
//   Theorem 2.3 (mismatched):    H + D <= E[S] <= H + D + 1;
//   Lemma 2.5 / 2.7: RF-Construction + target-distance coding turns the
//     no-CD algorithms into codes whose length certifies the bound;
//   Lemma 2.9 / 2.11: same chain for collision detection via trees.
// Ablation: Huffman vs Shannon-Fano as the code backing Section 2.6.
// ctest `repro_coding` checks stdout against tests/goldens/repro_coding.txt
// byte for byte.
#include <cmath>
#include <iostream>

#include "baselines/decay.h"
#include "baselines/willard.h"
#include "core/coded_search.h"
#include "core/likelihood_schedule.h"
#include "harness/measure.h"
#include "harness/table.h"
#include "info/coding_theorems.h"
#include "info/distribution.h"
#include "info/huffman.h"
#include "predict/families.h"
#include "rangefind/coding.h"
#include "rangefind/sequence.h"
#include "rangefind/tree.h"

namespace {

constexpr std::size_t kNetwork = 1 << 16;
constexpr std::uint64_t kSeed = 141421;
using crp::harness::fmt;

void print_source_coding() {
  const std::size_t ranges = crp::info::num_ranges(kNetwork);
  std::cout << "== Theorems 2.2 / 2.3 on the condensed sources ==\n";
  crp::harness::Table table({"source", "H", "huffman E[S]",
                             "H<=E[S]<=H+1", "D_KL to zipf(1)",
                             "mismatched E[S]", "H+D<=E[S]<=H+D+1"});
  const auto design = crp::predict::zipf_ranges(ranges, 1.0);
  const auto design_code =
      crp::info::shannon_fano_code(design.probabilities());
  const auto row = [&](const std::string& name,
                       const crp::info::CondensedDistribution& source) {
    const auto code = crp::info::huffman_code(source.probabilities());
    const auto own = crp::info::check_source_coding(
        code, source.probabilities());
    const auto cross = crp::info::check_mismatched_coding(
        design_code, source.probabilities(), design.probabilities());
    table.add_row(
        {name, fmt(own.entropy, 3), fmt(own.expected_length, 3),
         own.lower_bound_holds && own.upper_bound_holds ? "yes" : "NO",
         fmt(cross.divergence, 3), fmt(cross.expected_length, 3),
         cross.lower_bound_holds && cross.upper_bound_holds ? "yes"
                                                            : "NO"});
  };
  row("uniform", crp::info::CondensedDistribution::uniform(ranges));
  row("geometric(0.5)", crp::predict::geometric_ranges(ranges, 0.5));
  row("zipf(1.5)", crp::predict::zipf_ranges(ranges, 1.5));
  row("bimodal", crp::predict::bimodal_ranges(ranges, 3, 12, 0.2));
  row("point mass", crp::info::CondensedDistribution::point_mass(ranges, 7));
  table.print(std::cout);
  std::cout << '\n';
}

void print_rf_chain() {
  const std::size_t ranges = crp::info::num_ranges(kNetwork);
  const double radius = std::log2(std::log2(double(kNetwork)));
  std::cout << "== Lemma 2.5/2.7 chain: RF-Construction codes from the "
               "no-CD algorithms ==\n";
  crp::harness::Table table({"algorithm", "targets", "H", "E[RF steps]",
                             "E[code bits]", ">= H?"});
  const crp::baselines::DecaySchedule decay(kNetwork);
  const auto geometric = crp::predict::geometric_ranges(ranges, 0.5);
  const crp::core::LikelihoodOrderedSchedule likelihood(geometric);
  const auto row = [&](const std::string& name,
                       const crp::channel::ProbabilitySchedule& algo,
                       const crp::info::CondensedDistribution& targets) {
    const auto seq = crp::rangefind::rf_construction(algo, 600, kNetwork);
    const crp::rangefind::SequenceTargetDistanceCode code(seq, radius);
    const auto [bits, mass] = code.expected_length(targets);
    table.add_row({name, fmt(targets.entropy(), 2) + "-entropy",
                   fmt(targets.entropy(), 3),
                   fmt(seq.expected_time(targets, radius), 2),
                   fmt(bits, 3),
                   bits + 1e-9 >= targets.entropy() ? "yes" : "NO"});
    (void)mass;
  };
  row("decay", decay, crp::info::CondensedDistribution::uniform(ranges));
  row("decay", decay, geometric);
  row("likelihood-ordered", likelihood, geometric);
  row("likelihood-ordered", likelihood,
      crp::info::CondensedDistribution::uniform(ranges));
  table.print(std::cout);
  std::cout << '\n';

  std::cout << "== Lemma 2.9/2.11 chain: tree codes from the CD "
               "algorithms ==\n";
  crp::harness::Table tree_table(
      {"algorithm", "H", "E[RF depth]", "E[code bits]", ">= H?"});
  const crp::baselines::WillardPolicy willard(kNetwork);
  const crp::core::CodedSearchPolicy coded(geometric);
  const double radius_cd =
      std::log2(std::log2(std::log2(double(kNetwork)))) + 1.0;
  const auto tree_row =
      [&](const std::string& name, const crp::channel::CollisionPolicy& algo,
          const crp::info::CondensedDistribution& targets) {
        const auto tree = crp::rangefind::RangeFindingTree::from_policy(
            algo, kNetwork, 8);
        const crp::rangefind::TreeTargetDistanceCode code(tree, radius_cd);
        const auto [bits, mass] = code.expected_length(targets);
        tree_table.add_row(
            {name, fmt(targets.entropy(), 3),
             fmt(tree.expected_time(targets, radius_cd), 2), fmt(bits, 3),
             bits + 1e-9 >= targets.entropy() ? "yes" : "NO"});
        (void)mass;
      };
  tree_row("willard", willard,
           crp::info::CondensedDistribution::uniform(ranges));
  tree_row("willard", willard, geometric);
  tree_row("coded-search", coded, geometric);
  tree_table.print(std::cout);
  std::cout << '\n';
}

void print_backend_ablation() {
  const std::size_t ranges = crp::info::num_ranges(kNetwork);
  std::cout << "== Ablation: Huffman vs Shannon-Fano backing the CD "
               "algorithm ==\n";
  crp::harness::Table table({"prediction", "huffman mean rounds",
                             "shannon-fano mean rounds"});
  for (double s : {0.5, 1.0, 2.0}) {
    const auto condensed = crp::predict::zipf_ranges(ranges, s);
    const auto actual = crp::predict::lift(
        condensed, kNetwork, crp::predict::RangePlacement::kHighEndpoint);
    const crp::core::CodedSearchPolicy huffman(
        condensed, crp::core::CodeBackend::kHuffman);
    const crp::core::CodedSearchPolicy fano(
        condensed, crp::core::CodeBackend::kShannonFano);
    const auto m_huffman = crp::harness::measure_uniform_cd(
        huffman, actual, 5000, kSeed, {.max_rounds = 1 << 14});
    const auto m_fano = crp::harness::measure_uniform_cd(
        fano, actual, 5000, kSeed, {.max_rounds = 1 << 14});
    table.add_row({"zipf(" + fmt(s, 1) + ")",
                   fmt(m_huffman.rounds.mean, 2),
                   fmt(m_fano.rounds.mean, 2)});
  }
  table.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() {
  print_source_coding();
  print_rf_chain();
  print_backend_ablation();
  return 0;
}
