// Reproduction of the Section 1.1 context bounds the paper builds on:
//   decay [2]        O(log n) expected, no CD;
//   Willard [22]     O(log log n) expected, CD;
//   fixed 1/k-hat    O(1) expected given an accurate size estimate;
// and the crossover story: the prediction-augmented algorithms
// interpolate between the O(1) best case (low entropy) and the
// worst-case bounds (max entropy).
// Also ablates the two simulation engines (binomial vs per-player) and
// the decay sweep direction.
#include <cmath>
#include <iostream>

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "baselines/aloha.h"
#include "baselines/decay.h"
#include "baselines/simple.h"
#include "baselines/willard.h"
#include "channel/engine.h"
#include "channel/rng.h"
#include "core/coded_search.h"
#include "core/likelihood_schedule.h"
#include "harness/fit.h"
#include "harness/measure.h"
#include "harness/table.h"
#include "info/distribution.h"
#include "predict/families.h"

namespace {

constexpr std::uint64_t kSeed = 16180;
constexpr std::size_t kTrials = 5000;
using crp::bench::fast;
using crp::harness::fmt;
using crp::harness::MeasureOptions;
using crp::harness::NoCdEngine;

/// Exact per-round engine, pooled — for the engine-ablation rows where
/// the engine choice is the point.
MeasureOptions pooled(std::size_t max_rounds, NoCdEngine engine) {
  return MeasureOptions{.max_rounds = max_rounds, .engine = engine};
}

void print_worst_case_scaling() {
  std::cout << "== Baseline worst-case scaling (k = n - 1, expected "
               "rounds) ==\n";
  crp::harness::Table table({"n", "log n", "decay", "loglog n", "willard",
                             "fixed 1/k"});
  std::vector<double> logn;
  std::vector<double> decay_means;
  for (std::size_t bits : {6ul, 8ul, 10ul, 12ul, 14ul, 16ul}) {
    const std::size_t n = std::size_t{1} << bits;
    const std::size_t k = n - 1;
    const crp::baselines::DecaySchedule decay(n);
    const crp::baselines::WillardPolicy willard(n);
    const auto fixed =
        crp::baselines::FixedProbabilitySchedule::for_size_estimate(k);
    const auto m_decay = crp::harness::measure_uniform_no_cd_fixed_k(
        decay, k, kTrials, kSeed, fast(1 << 16));
    const auto m_willard = crp::harness::measure_uniform_cd_fixed_k(
        willard, k, kTrials, kSeed + 1, fast(1 << 14));
    const auto m_fixed = crp::harness::measure_uniform_no_cd_fixed_k(
        fixed, k, kTrials, kSeed + 2, fast(1 << 12));
    table.add_row({fmt(n), fmt(double(bits), 0),
                   fmt(m_decay.rounds.mean, 2),
                   fmt(std::log2(double(bits)), 2),
                   fmt(m_willard.rounds.mean, 2),
                   fmt(m_fixed.rounds.mean, 2)});
    logn.push_back(double(bits));
    decay_means.push_back(m_decay.rounds.mean);
  }
  table.print(std::cout);
  const auto fit = crp::harness::fit_linear(logn, decay_means);
  std::cout << "shape check: decay mean ~ " << fmt(fit.slope, 2)
            << " * log n + " << fmt(fit.intercept, 2)
            << " (R^2 = " << fmt(fit.r_squared, 3)
            << "; paper: Theta(log n))\n\n";
}

void print_prediction_crossover() {
  constexpr std::size_t n = 1 << 14;
  const std::size_t ranges = crp::info::num_ranges(n);
  std::cout << "== Crossover: predictions vs worst-case baselines (n = "
            << n << ") ==\n";
  crp::harness::Table table({"H(c(X))", "likelihood noCD", "decay noCD",
                             "coded CD", "willard CD"});
  const crp::baselines::DecaySchedule decay(n);
  const crp::baselines::WillardPolicy willard(n);
  for (std::size_t m = 1; m <= ranges; m *= 2) {
    const auto condensed = crp::predict::uniform_over_ranges(ranges, m);
    const auto actual = crp::predict::lift(
        condensed, n, crp::predict::RangePlacement::kHighEndpoint);
    const crp::core::LikelihoodOrderedSchedule schedule(condensed);
    const crp::core::CodedSearchPolicy policy(condensed);
    const auto m_pred_nocd = crp::harness::measure_uniform_no_cd(
        schedule, actual, kTrials, kSeed + 3, fast(1 << 18));
    const auto m_decay = crp::harness::measure_uniform_no_cd(
        decay, actual, kTrials, kSeed + 3, fast(1 << 18));
    const auto m_pred_cd = crp::harness::measure_uniform_cd(
        policy, actual, kTrials, kSeed + 4, fast(1 << 14));
    const auto m_willard = crp::harness::measure_uniform_cd(
        willard, actual, kTrials, kSeed + 4, fast(1 << 14));
    table.add_row({fmt(condensed.entropy(), 2),
                   fmt(m_pred_nocd.rounds.mean, 2),
                   fmt(m_decay.rounds.mean, 2),
                   fmt(m_pred_cd.rounds.mean, 2),
                   fmt(m_willard.rounds.mean, 2)});
  }
  table.print(std::cout);
  std::cout << "(paper: predictions win at low entropy and approach the "
               "worst-case baselines as H maxes out)\n\n";
}

void print_engine_ablation() {
  constexpr std::size_t n = 1 << 10;
  constexpr std::size_t k = 500;
  std::cout << "== Ablation: binomial vs per-player vs batch engine, and "
               "decay sweep direction (n = " << n << ", k = " << k
            << ") ==\n";
  crp::harness::Table table({"variant", "mean rounds", "p90"});
  const crp::baselines::DecaySchedule decay(n);
  const crp::baselines::ReverseDecaySchedule reverse(n);
  const auto m_binomial = crp::harness::measure_uniform_no_cd_fixed_k(
      decay, k, kTrials, kSeed + 5, pooled(1 << 14, NoCdEngine::kBinomial));
  const auto m_players = crp::harness::measure_uniform_no_cd_fixed_k(
      decay, k, kTrials, kSeed + 5, pooled(1 << 14, NoCdEngine::kPerPlayer));
  const auto m_batch = crp::harness::measure_uniform_no_cd_fixed_k(
      decay, k, kTrials, kSeed + 5, fast(1 << 14));
  const auto m_reverse = crp::harness::measure_uniform_no_cd_fixed_k(
      reverse, k, kTrials, kSeed + 5, pooled(1 << 14, NoCdEngine::kBinomial));
  table.add_row({"decay, binomial engine", fmt(m_binomial.rounds.mean, 2),
                 fmt(m_binomial.rounds.p90, 1)});
  table.add_row({"decay, per-player engine", fmt(m_players.rounds.mean, 2),
                 fmt(m_players.rounds.p90, 1)});
  table.add_row({"decay, batch engine", fmt(m_batch.rounds.mean, 2),
                 fmt(m_batch.rounds.p90, 1)});
  table.add_row({"reverse decay, binomial", fmt(m_reverse.rounds.mean, 2),
                 fmt(m_reverse.rounds.p90, 1)});
  table.print(std::cout);
  std::cout << "(the engines must agree statistically; sweep direction "
               "only shifts constants)\n\n";
}

void print_aloha_comparison() {
  // The per-player randomized classics vs the uniform protocols. ALOHA
  // with a window tuned to k behaves like fixed 1/k (each slot is a
  // near-Binomial(k, 1/k) trial, so the first singleton slot arrives in
  // ~e rounds); binary exponential backoff, which must DISCOVER the
  // size, pays Theta(k) — exactly the gap a size prediction closes.
  constexpr std::size_t n = 1 << 12;
  std::cout << "== Per-player baselines: slotted ALOHA (n = " << n
            << ") ==\n";
  crp::harness::Table table({"k", "aloha W=k mean", "backoff mean",
                             "decay mean", "fixed 1/k mean"});
  const crp::baselines::DecaySchedule decay(n);
  const crp::channel::AdapterEngine aloha(
      [](std::size_t k, std::mt19937_64& rng,
         const crp::channel::SimOptions& options) {
        return crp::baselines::run_slotted_aloha(k, k, rng, options);
      });
  const crp::channel::AdapterEngine backoff(
      [](std::size_t k, std::mt19937_64& rng,
         const crp::channel::SimOptions& options) {
        return crp::baselines::run_backoff_aloha(k, 1, 1 << 13, rng, options);
      });
  for (std::size_t k : {8ul, 64ul, 512ul, 4000ul}) {
    const auto m_aloha = crp::harness::measure_blocks(
        aloha, {nullptr, k}, kTrials, kSeed + 8, {.max_rounds = 1 << 16});
    const auto m_backoff = crp::harness::measure_blocks(
        backoff, {nullptr, k}, kTrials, kSeed + 9, {.max_rounds = 1 << 16});
    const auto m_decay = crp::harness::measure_uniform_no_cd_fixed_k(
        decay, k, kTrials, kSeed + 10, fast(1 << 16));
    const auto fixed =
        crp::baselines::FixedProbabilitySchedule::for_size_estimate(k);
    const auto m_fixed = crp::harness::measure_uniform_no_cd_fixed_k(
        fixed, k, kTrials, kSeed + 11, fast(1 << 12));
    table.add_row({fmt(k), fmt(m_aloha.rounds.mean, 1),
                   fmt(m_backoff.rounds.mean, 1),
                   fmt(m_decay.rounds.mean, 1),
                   fmt(m_fixed.rounds.mean, 1)});
  }
  table.print(std::cout);
  std::cout << "(tuned ALOHA ~ fixed 1/k ~ e rounds; backoff pays "
               "Theta(k) to discover the size; decay pays Theta(log n) "
               "— predictions close exactly the discovery gap)\n\n";
}

// ---- microbenchmarks: engine throughput ----

void BM_BinomialEngine(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const crp::baselines::DecaySchedule decay(1 << 14);
  auto rng = crp::channel::make_rng(kSeed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crp::channel::run_uniform_no_cd(decay, k, rng, {1 << 14}));
  }
}
BENCHMARK(BM_BinomialEngine)->Arg(16)->Arg(1024)->Arg(16000);

void BM_PerPlayerEngine(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const crp::baselines::DecaySchedule decay(1 << 14);
  auto rng = crp::channel::make_rng(kSeed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crp::channel::run_uniform_no_cd_per_player(
        decay, k, rng, {1 << 14}));
  }
}
BENCHMARK(BM_PerPlayerEngine)->Arg(16)->Arg(1024)->Arg(16000);

void BM_WillardPolicyReplay(benchmark::State& state) {
  const crp::baselines::WillardPolicy willard(1 << 16);
  crp::channel::BitString history;
  for (int i = 0; i < state.range(0); ++i) history.push_back(i % 3 == 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(willard.probability(history));
  }
}
BENCHMARK(BM_WillardPolicyReplay)->Arg(4)->Arg(64)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  if (crp::bench::consume_skip_tables(argc, argv)) {
    print_worst_case_scaling();
    print_prediction_crossover();
    print_engine_ablation();
    print_aloha_comparison();
  }
  benchmark::Initialize(&argc, argv);
  crp::bench::report_kernel_tier();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
