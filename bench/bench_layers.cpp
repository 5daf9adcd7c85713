// Micro-benches for the layers crp_shard runs: the batch no-CD engine
// on the thread pool, the streaming histogram fold, the (cell, block)
// sweep scheduler, the simulated CD round loop, the per-trial streams
// under it, the simulated and history-tree CD engines under run_sweep,
// the probe kernels of every available tier, and the Huffman build
// every CodedSearchPolicy makes. They are evidence for a layer; the
// headline numbers are perfbench/'s end-to-end runs, and the paper's
// tables are the repro/ programs (tier-1 goldens under ctest).
//
// bench/run_benches.sh records this binary's JSON as
// bench/results/BENCH_layers.json; bench/compare_benches.py diffs it
// and applies the peak-RSS gate to BM_Table1NoCdSweepStreaming.
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
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

/// The sub-microsecond single-thread benches swing up to ~1.6x between
/// runs of one binary on a shared VM. They run kRepetitions times and
/// report only the aggregates (mean, median, stddev, cv);
/// compare_benches.py compares their median.
constexpr int kRepetitions = 5;

void repeated(benchmark::internal::Benchmark* bench) {
  bench->Repetitions(kRepetitions)->ReportAggregatesOnly(true);
}

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
BENCHMARK(BM_CdRound)->Arg(1)->Arg(4)->Arg(16)->Apply(repeated);

// ---- per-trial streams: what every simulated trial pays for its Rng ----
//
// derive_rngs seeds kSeedLanes streams, then each gives N draws: 1 and
// 16 stay in the first 16-word twist chunk, 40 takes two lazy
// extensions, and 400 finishes the first twist and runs one full
// 312-word twist. Time per iteration / kSeedLanes is the per-stream
// cost.

void BM_DerivedStreamDraws(benchmark::State& state) {
  const auto draws = static_cast<std::size_t>(state.range(0));
  std::array<crp::channel::Rng, crp::channel::kSeedLanes> streams;
  std::uint64_t first = 0;
  std::uint64_t checksum = 0;
  for (auto _ : state) {
    crp::channel::derive_rngs(kSeed, first, streams);
    first += streams.size();
    for (auto& rng : streams) {
      for (std::size_t d = 0; d < draws; ++d) checksum ^= rng();
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(streams.size()));
}
BENCHMARK(BM_DerivedStreamDraws)
    ->Arg(1)
    ->Arg(16)
    ->Arg(40)
    ->Arg(400)
    ->Apply(repeated);
// The host's own thread tax: the same lock-free, allocation-free loop
// on 1 thread and on 4 at once, each thread on its own streams, timed
// in CPU time. Per stream, its cpu_time at threads:4 over threads:1 is
// the floor a pool's per-trial CPU growth is measured against.
BENCHMARK(BM_DerivedStreamDraws)
    ->Arg(400)
    ->Threads(1)
    ->Threads(4)
    ->Apply(repeated);

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
BENCHMARK(BM_HuffmanConstruction)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Apply(repeated);

// ---- probe kernels, one bench per available tier ----
//
// The kernels are bit-identical across tiers, so an end-to-end run
// shows a tier's speed only diluted; these time one tier's kernel
// alone. probe_rounds searches a 300-round log-survival table
// (aperiodic, and periodic with the analytic whole-period skip) for
// kProbeTargets mapped targets; probe_cdf answers kProbeTargets
// uniforms over a 48-round padded solve CDF, a history tree's shape.
// A tier the host or build lacks is not registered (see main).

constexpr std::size_t kProbeTargets = 4096;

/// kProbeTargets canonical uniforms from per-trial streams of kSeed.
std::vector<double> probe_uniforms() {
  std::vector<double> u(kProbeTargets);
  for (std::size_t t = 0; t < u.size(); ++t) {
    auto rng = crp::channel::derive_fast_rng(kSeed, t);
    u[t] = crp::channel::canonical_unit(rng());
  }
  return u;
}

void BM_ProbeRounds(benchmark::State& state,
                    const crp::channel::kernels::Ops* ops) {
  constexpr std::size_t kRounds = 300;
  // Log-survival prefix of a slowly succeeding schedule, padded with
  // -inf to a power of two as BatchNoCdSampler pads its tables.
  std::vector<double> padded(512, -std::numeric_limits<double>::infinity());
  for (std::size_t r = 0; r < kRounds; ++r) {
    padded[r] = -0.01 * static_cast<double>(r);
  }
  const crp::channel::kernels::ProbeTable table{
      padded.data(),          padded.size(),   kRounds,
      state.range(0) != 0,    padded[kRounds - 1], 1 << 18};
  std::vector<double> targets = probe_uniforms();
  ops->map_targets(targets.data(), targets.size());
  std::vector<std::uint64_t> rounds(targets.size());
  for (auto _ : state) {
    ops->probe_rounds(table, targets.data(), targets.size(), rounds.data());
    benchmark::DoNotOptimize(rounds.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(targets.size()));
}

void BM_ProbeCdf(benchmark::State& state,
                 const crp::channel::kernels::Ops* ops) {
  constexpr std::size_t kEntries = 48;
  // A solve CDF rising geometrically toward 0.95, with the sentinel at
  // [0] and +inf padding up to a power of two.
  std::vector<double> padded(64, std::numeric_limits<double>::infinity());
  padded[0] = 0.0;
  for (std::size_t r = 1; r <= kEntries; ++r) {
    padded[r] = 0.95 * (1.0 - std::pow(0.9, static_cast<double>(r)));
  }
  const crp::channel::kernels::CdfTable table{padded.data(), padded.size(),
                                              kEntries};
  const std::vector<double> u = probe_uniforms();
  std::vector<std::uint64_t> index(u.size());
  for (auto _ : state) {
    ops->probe_cdf(table, u.data(), u.size(), index.data());
    benchmark::DoNotOptimize(index.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(u.size()));
}

void register_kernel_benches() {
  using crp::channel::kernels::Tier;
  for (const Tier tier : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    const crp::channel::kernels::Ops* ops =
        crp::channel::kernels::ops_for(tier);
    if (ops == nullptr) continue;
    const std::string name = crp::channel::kernels::tier_name(tier);
    benchmark::RegisterBenchmark(("BM_ProbeRounds/" + name).c_str(),
                                 BM_ProbeRounds, ops)
        ->ArgName("periodic")
        ->Arg(0)
        ->Arg(1)
        ->Apply(repeated);
    benchmark::RegisterBenchmark(("BM_ProbeCdf/" + name).c_str(),
                                 BM_ProbeCdf, ops)
        ->Apply(repeated);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_kernel_benches();
  benchmark::Initialize(&argc, argv);
  // Which (bit-compatible) kernel tier produced the timings: JSON
  // `context.crp_kernel_tier` and the console header.
  benchmark::AddCustomContext("crp_kernel_tier",
                              crp::channel::kernel_tier_name());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
