// Micro-benches for the layers crp_shard runs: the batch no-CD engine
// on the thread pool, the streaming histogram fold, the (cell, block)
// sweep scheduler, the simulated CD round loop, the simulated and
// history-tree CD engines under run_sweep, and the Huffman build every
// CodedSearchPolicy makes. They are evidence for a layer; the headline
// numbers are perfbench/'s end-to-end runs, and the paper's tables are
// the repro/ programs (tier-1 goldens under ctest).
//
// bench/run_benches.sh records this binary's JSON as
// bench/results/BENCH_layers.json; bench/compare_benches.py diffs it
// and applies the peak-RSS gate to BM_Table1NoCdSweepStreaming.
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include <benchmark/benchmark.h>

#include "channel/kernels/kernels.h"
#include "channel/rng.h"
#include "channel/simulator.h"
#include "core/advice.h"
#include "core/advice_randomized.h"
#include "core/coded_search.h"
#include "core/likelihood_schedule.h"
#include "harness/grids.h"
#include "harness/measure.h"
#include "harness/sweep.h"
#include "harness/table.h"
#include "info/distribution.h"
#include "info/huffman.h"
#include "predict/families.h"

namespace {

// The Table 1 workload (harness/grids.h, repro/table1.cpp).
constexpr std::size_t kNetwork = 1 << 16;  // 16 geometric ranges
constexpr std::size_t kTrials = 6000;
constexpr std::uint64_t kSeed = 20210526;  // arXiv submission date
// The Table 2 randomized rows' seed (repro/table2.cpp).
constexpr std::uint64_t kTable2Seed = 314159;

using crp::harness::fmt;
using crp::harness::table1_entropy_points;

/// Process-wide peak resident set size in MB (0 where unsupported).
/// A monotone high-water mark: report it as a benchmark counter (the
/// streaming bench does) and compare across arguments in one run —
/// flat counters mean the benchmark added no resident memory.
double peak_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kilobytes
#endif
#else
  return 0.0;
#endif
}

// ---- no-CD engine: the Table 1 no-CD sweep, batch engine on the pool ----
//
// The workload of repro/table1.cpp's no-CD column (same entropy sweep,
// same trial counts, same seeds), one measure_uniform_no_cd call per
// entropy point.

void BM_Table1NoCdSweepBatchParallel(benchmark::State& state) {
  const std::size_t ranges = crp::info::num_ranges(kNetwork);
  double checksum = 0.0;
  for (auto _ : state) {
    for (std::size_t m = 1; m <= ranges; m *= 2) {
      const auto condensed = crp::predict::uniform_over_ranges(ranges, m);
      const auto actual = crp::predict::lift(
          condensed, kNetwork, crp::predict::RangePlacement::kHighEndpoint);
      const crp::core::LikelihoodOrderedSchedule schedule(condensed);
      const auto no_cd = crp::harness::measure_uniform_no_cd(
          schedule, actual, kTrials, kSeed, {.max_rounds = 1 << 18});
      checksum += no_cd.rounds.mean;
    }
    benchmark::DoNotOptimize(checksum);
  }
}
BENCHMARK(BM_Table1NoCdSweepBatchParallel)->Unit(benchmark::kMillisecond);

// ---- histogram fold: one Table 1 cell at 10^6 and 10^7 trials ----
//
// At these trial counts a sample-vector fold would dominate memory
// (10^7 trials ~ 80 MB of samples plus a sort). The streaming histogram
// fold keeps per-cell memory flat, which the peak_rss_mb counter
// exposes: it is a process-wide high-water mark, so if the fold's
// resident memory grew with the trial count the 10x argument would
// report a strictly larger counter. compare_benches.py --rss-gate fails
// CI when the counter exceeds its ceiling, or when no result reports it.

void BM_Table1NoCdSweepStreaming(benchmark::State& state) {
  const auto trials = static_cast<std::size_t>(state.range(0));
  const std::size_t ranges = crp::info::num_ranges(kNetwork);
  const auto condensed = crp::predict::uniform_over_ranges(ranges, 6);
  const auto actual = crp::predict::lift(
      condensed, kNetwork, crp::predict::RangePlacement::kHighEndpoint);
  const crp::core::LikelihoodOrderedSchedule schedule(condensed);
  double checksum = 0.0;
  for (auto _ : state) {
    const auto cell = crp::harness::measure_uniform_no_cd(
        schedule, actual, trials, kSeed, {.max_rounds = 1 << 18});
    checksum += cell.rounds.mean;
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["trials_per_cell"] = static_cast<double>(trials);
  state.counters["peak_rss_mb"] = peak_rss_mb();
}
BENCHMARK(BM_Table1NoCdSweepStreaming)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(1'000'000)
    ->Arg(10'000'000);

// ---- scheduler: the same sweep as one grid under run_sweep ----

void BM_Table1SweepScheduler(benchmark::State& state) {
  const auto points = table1_entropy_points(kNetwork);
  crp::harness::SweepGrid grid;
  for (const auto& point : points) {
    grid.add_cell({.algorithm = {.name = "likelihood",
                                 .schedule = &point.schedule},
                   .sizes = {.name = "H=" + fmt(point.h, 2),
                             .distribution = &point.actual},
                   .max_rounds = 1 << 18});
  }
  const auto cells = grid.cells();
  double checksum = 0.0;
  for (auto _ : state) {
    const auto results = crp::harness::run_sweep(
        cells, {.trials = kTrials, .seed = kSeed});
    for (const auto& result : results) checksum += result.measurement.rounds.mean;
    benchmark::DoNotOptimize(checksum);
  }
}
BENCHMARK(BM_Table1SweepScheduler)->Unit(benchmark::kMillisecond);

// ---- simulated CD engine: one coded-search trial per iteration ----

void BM_CdRound(benchmark::State& state) {
  const auto condensed = crp::predict::uniform_over_ranges(
      crp::info::num_ranges(kNetwork),
      static_cast<std::size_t>(state.range(0)));
  const crp::core::CodedSearchPolicy policy(condensed);
  const auto actual = crp::predict::lift(
      condensed, kNetwork, crp::predict::RangePlacement::kHighEndpoint);
  auto rng = crp::channel::make_rng(kSeed);
  std::size_t solved = 0;
  for (auto _ : state) {
    const std::size_t k = actual.sample(rng);
    const auto result =
        crp::channel::run_uniform_cd(policy, k, rng, {1 << 14});
    solved += result.solved ? 1 : 0;
    benchmark::DoNotOptimize(solved);
  }
}
BENCHMARK(BM_CdRound)->Arg(1)->Arg(4)->Arg(16);

// ---- CD engines: the Table 2 randomized-CD sweep once per engine ----
//
// Truncated Willard at advice budgets b = 0..4, fixed k, run through
// run_sweep with the per-round simulation adapter and with the cached
// history-tree sampler (channel/history_engine.h), at equal trials.

void run_cd_sweep(benchmark::State& state,
                  crp::harness::CdEngine cd_engine) {
  constexpr std::size_t n = 1 << 16;
  constexpr std::size_t k = 2500;
  constexpr std::size_t trials = 6000;
  std::vector<std::size_t> participants(k);
  for (std::size_t i = 0; i < k; ++i) participants[i] = i;

  struct WillardPoint {
    WillardPoint(std::size_t n, std::size_t b,
                 const std::vector<std::size_t>& participants)
        : advice(n, b),
          willard(advice.ranges_in_group(
              crp::core::bits_to_index(advice.advise(participants)))) {}
    crp::core::RangeGroupAdvice advice;
    crp::core::TruncatedWillardPolicy willard;
  };
  std::vector<WillardPoint> points;
  for (const std::size_t b : {0, 1, 2, 3, 4}) {
    points.emplace_back(n, b, participants);
  }
  crp::harness::SweepGrid grid;
  for (const auto& point : points) {
    grid.add_cell({.algorithm = {.name = "trunc-willard",
                                 .policy = &point.willard},
                   .sizes = {.fixed_k = k},
                   .max_rounds = 1 << 12});
  }
  const auto cells = grid.cells();
  for (auto _ : state) {
    const auto results = crp::harness::run_sweep(
        cells, {.trials = trials, .seed = kTable2Seed + 2,
                .cd_engine = cd_engine});
    benchmark::DoNotOptimize(results.back().measurement.rounds.mean);
  }
}

void BM_Table2CdSweepSimulated(benchmark::State& state) {
  run_cd_sweep(state, crp::harness::CdEngine::kSimulate);
}
BENCHMARK(BM_Table2CdSweepSimulated)->Unit(benchmark::kMillisecond);

void BM_Table2CdTreeSweep(benchmark::State& state) {
  run_cd_sweep(state, crp::harness::CdEngine::kHistoryTree);
}
BENCHMARK(BM_Table2CdTreeSweep)->Unit(benchmark::kMillisecond);

// ---- policy build: the Huffman code behind every CodedSearchPolicy ----

void BM_HuffmanConstruction(benchmark::State& state) {
  const auto probs = crp::predict::zipf_ranges(
                         static_cast<std::size_t>(state.range(0)), 1.0)
                         .probabilities();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crp::info::huffman_code(probs));
  }
}
BENCHMARK(BM_HuffmanConstruction)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  // Which (bit-compatible) kernel tier produced the timings: JSON
  // `context.crp_kernel_tier` and the console header.
  benchmark::AddCustomContext("crp_kernel_tier",
                              crp::channel::kernel_tier_name());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
