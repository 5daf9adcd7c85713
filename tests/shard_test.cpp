// The sharding subsystem (harness/shard.h): the deterministic
// partition's invariants (disjoint, covering, stable), sharded cells
// bit-identical to the monolithic run_sweep for no-CD and CD (simulated
// and history-tree) grids at every shard count, the byte-identical
// CSV-level merge, the manifest JSON round trip, the merge validation
// that rejects mismatched, overlapping, or gappy shard sets with
// actionable errors, and the one run-identity check shared by the
// merge, worker resume, and supervisor resume.
#include <filesystem>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "baselines/willard.h"
#include "harness/checkpoint.h"
#include "harness/shard.h"
#include "harness/supervisor.h"
#include "harness/sweep.h"
#include "info/distribution.h"

namespace crp::harness {
namespace {

void expect_identical(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_TRUE(a.histogram == b.histogram);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.rounds.mean, b.rounds.mean);
  EXPECT_EQ(a.rounds.p90, b.rounds.p90);
}

/// The sweep_test fixture: two schedules and a CD policy crossed with
/// two workloads — 6 cells, enough for uneven partitions.
struct Fixture {
  Fixture()
      : decay(1 << 10),
        slow_decay(1 << 6),
        willard(1 << 10),
        uniform(info::SizeDistribution::uniform(1 << 10)) {}

  SweepGrid grid() const {
    SweepGrid grid;
    grid.add_algorithm({.name = "decay", .schedule = &decay})
        .add_algorithm({.name = "slow-decay", .schedule = &slow_decay})
        .add_algorithm({.name = "willard", .policy = &willard})
        .add_sizes({.name = "uniform", .distribution = &uniform})
        .add_sizes({.name = "k=100", .fixed_k = 100})
        .add_budget(1 << 12);
    return grid;
  }

  baselines::DecaySchedule decay;
  baselines::DecaySchedule slow_decay;
  baselines::WillardPolicy willard;
  info::SizeDistribution uniform;
};

TEST(ShardPlan, PartitionIsDisjointCoveringAndStable) {
  const Fixture f;
  const auto cells = f.grid().cells();
  for (const std::size_t count : {1ul, 2ul, 3ul, 4ul, 6ul, 9ul}) {
    std::size_t expected_begin = 0;
    for (std::size_t index = 0; index < count; ++index) {
      const auto plan = plan_shards(
          cells, {.shard_count = count, .shard_index = index});
      // Contiguous, in order, no gap and no overlap with the previous
      // shard; together the shards tile [0, cells.size()).
      EXPECT_EQ(plan.cell_begin, expected_begin);
      EXPECT_LE(plan.cell_begin, plan.cell_end);
      EXPECT_EQ(plan.cells.size(), plan.cell_end - plan.cell_begin);
      EXPECT_EQ(plan.total_cells, cells.size());
      expected_begin = plan.cell_end;
      // Stable: planning again yields the same slice and hash.
      const auto again = plan_shards(
          cells, {.shard_count = count, .shard_index = index});
      EXPECT_EQ(again.cell_begin, plan.cell_begin);
      EXPECT_EQ(again.cell_end, plan.cell_end);
      EXPECT_EQ(again.grid_hash, plan.grid_hash);
    }
    EXPECT_EQ(expected_begin, cells.size());
  }
}

TEST(ShardPlan, PinsSeedStreamsToGlobalGridIndex) {
  const Fixture f;
  auto cells = f.grid().cells();
  cells[4].seed_stream = 1234;  // an explicit pin must survive
  const auto plan = plan_shards(cells, {.shard_count = 3, .shard_index = 2});
  ASSERT_EQ(plan.cell_begin, 4u);
  ASSERT_EQ(plan.cells.size(), 2u);
  EXPECT_EQ(plan.cells[0].seed_stream, 1234u);
  EXPECT_EQ(plan.cells[1].seed_stream, 5u);  // global index, not local 1
}

TEST(ShardPlan, ExplicitCellRanges) {
  const Fixture f;
  const auto cells = f.grid().cells();
  const auto plan =
      plan_shards(cells, {.cell_begin = 2, .cell_end = 5});
  EXPECT_EQ(plan.cell_begin, 2u);
  EXPECT_EQ(plan.cell_end, 5u);
  EXPECT_EQ(plan.cells.size(), 3u);
  EXPECT_EQ(plan.cells[0].seed_stream, 2u);
}

TEST(ShardPlan, RejectsInvalidOptions) {
  const Fixture f;
  const auto cells = f.grid().cells();
  const std::vector<SweepCell> empty;
  EXPECT_THROW(plan_shards(empty, {.shard_count = 1, .shard_index = 0}),
               std::invalid_argument);
  EXPECT_THROW(plan_shards(cells, {.shard_count = 0}),
               std::invalid_argument);
  EXPECT_THROW(plan_shards(cells, {.shard_count = 2, .shard_index = 2}),
               std::invalid_argument);
  EXPECT_THROW(plan_shards(cells, {.cell_begin = 2}),  // half-set range
               std::invalid_argument);
  EXPECT_THROW(plan_shards(cells, {.cell_begin = 2, .cell_end = 99}),
               std::invalid_argument);
  EXPECT_THROW(plan_shards(cells, {.cell_begin = 5, .cell_end = 2}),
               std::invalid_argument);
}

TEST(ShardPlan, GridFingerprintSeesContentChanges) {
  const Fixture f;
  const auto cells = f.grid().cells();
  const std::uint64_t base = grid_fingerprint(cells);
  EXPECT_EQ(grid_fingerprint(cells), base);  // deterministic

  auto renamed = cells;
  renamed[0].algorithm.name = "decay-v2";
  EXPECT_NE(grid_fingerprint(renamed), base);

  auto rebudgeted = cells;
  rebudgeted[3].max_rounds *= 2;
  EXPECT_NE(grid_fingerprint(rebudgeted), base);

  // Distribution *contents* matter, not the pointer identity.
  const Fixture g;
  EXPECT_EQ(grid_fingerprint(g.grid().cells()), base);

  // Algorithm *parameters* matter too: the same name over a
  // differently-parameterized schedule must change the fingerprint
  // (the behavioral probe), or shards of materially different
  // experiments would merge silently.
  auto reparameterized = cells;
  ASSERT_EQ(reparameterized[0].algorithm.name, "decay");
  reparameterized[0].algorithm.schedule = &f.slow_decay;
  EXPECT_NE(grid_fingerprint(reparameterized), base);
}

/// A fresh per-test scratch directory under the gtest temp root,
/// removed up front so reruns never see stale journals.
std::filesystem::path test_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   (std::string("crp_shard_") + info->test_suite_name() +
                    "_" + info->name());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Runs one shard the way `crp_shard run --shard` does — journaled in
/// `dir` — and returns the artifact pair the CSV merge reads.
ShardArtifact run_shard(std::span<const SweepCell> cells,
                        const ShardOptions& shard, const SweepOptions& options,
                        const std::filesystem::path& dir) {
  static std::size_t runs = 0;
  CheckpointRunOptions checkpoint;
  checkpoint.journal_path =
      (dir / ("run-" + std::to_string(runs++) + ".journal")).string();
  const auto run =
      run_sweep_shard_checkpointed(cells, shard, options, checkpoint);
  ShardArtifact artifact;
  artifact.manifest = run.manifest;
  std::istringstream csv(run.csv);
  artifact.csv = read_shard_csv(csv);
  return artifact;
}

std::string monolithic_csv(std::span<const SweepCell> cells,
                           const SweepOptions& options) {
  std::ostringstream csv;
  write_sweep_csv(csv, run_sweep(cells, options));
  return csv.str();
}

std::string merged_csv(std::span<const ShardArtifact> artifacts) {
  std::ostringstream merged;
  merge_shard_csvs(merged, artifacts);
  return merged.str();
}

/// The artifact pair of a shard whose planned cells ran through
/// run_sweep: what run_shard would produce, without running them again.
ShardArtifact artifact_of(const ShardPlan& plan,
                          const std::vector<SweepResult>& results,
                          const SweepOptions& options) {
  ShardArtifact artifact;
  ShardManifest& manifest = artifact.manifest;
  static_cast<RunIdentity&>(manifest) =
      RunIdentity(plan.grid_hash, plan.total_cells, options);
  manifest.shard_index = plan.shard_index;
  manifest.shard_count = plan.shard_count;
  manifest.cell_begin = plan.cell_begin;
  manifest.cell_end = plan.cell_end;
  for (const SweepResult& result : results) {
    manifest.cell_seeds.push_back(result.cell_seed);
  }
  std::ostringstream csv;
  write_sweep_csv(csv, results);
  std::istringstream csv_in(csv.str());
  artifact.csv = read_shard_csv(csv_in);
  return artifact;
}

/// Shard every way and compare against the monolithic sweep: each
/// shard's cells are bit-identical to the monolithic cells, and the
/// merged CSV is byte-identical to the monolithic CSV.
void expect_shards_match_monolithic(const std::vector<SweepCell>& cells,
                                    const SweepOptions& options) {
  const auto monolithic = run_sweep(cells, options);
  std::ostringstream monolithic_csv;
  write_sweep_csv(monolithic_csv, monolithic);
  for (std::size_t count = 1; count <= 6; ++count) {
    SCOPED_TRACE("shard count " + std::to_string(count));
    std::vector<ShardArtifact> artifacts;
    for (std::size_t index = 0; index < count; ++index) {
      const ShardOptions shard{.shard_count = count, .shard_index = index};
      const ShardPlan plan = plan_shards(cells, shard);
      const auto results =
          run_sweep(std::span<const SweepCell>(plan.cells), options);
      ASSERT_EQ(results.size(), plan.cell_end - plan.cell_begin);
      for (std::size_t j = 0; j < results.size(); ++j) {
        const SweepResult& whole = monolithic[plan.cell_begin + j];
        EXPECT_EQ(results[j].cell_seed, whole.cell_seed);
        expect_identical(results[j].measurement, whole.measurement);
      }
      artifacts.push_back(artifact_of(plan, results, options));
    }
    EXPECT_EQ(merged_csv(artifacts), monolithic_csv.str());
  }
}

TEST(ShardMerge, BitIdenticalToMonolithicNoCdAndSimulatedCd) {
  const Fixture f;
  expect_shards_match_monolithic(
      f.grid().cells(), {.trials = 300, .seed = 17, .threads = 1});
}

TEST(ShardMerge, BitIdenticalToMonolithicHistoryTreeCd) {
  // The CD cells route through the history-tree engine; each shard
  // builds its own expansion cache, which must not change results.
  const Fixture f;
  expect_shards_match_monolithic(
      f.grid().cells(), {.trials = 300,
                         .seed = 17,
                         .threads = 1,
                         .cd_engine = CdEngine::kHistoryTree});
}

TEST(ShardMerge, AcceptsEmptyShardsInAnyArgumentOrder) {
  // shard_count > cell count is legal and produces empty ranges; a
  // merge handed the shards in reverse order must not misread an
  // empty [x, x) shard listed after the non-empty [x, y) one as an
  // overlap.
  const Fixture f;
  const auto cells = f.grid().cells();
  const auto dir = test_dir();
  const SweepOptions options{.trials = 100, .seed = 8, .threads = 1};
  std::vector<ShardArtifact> artifacts;
  for (std::size_t index = 9; index-- > 0;) {  // reversed, 3 empty shards
    artifacts.push_back(run_shard(
        cells, {.shard_count = 9, .shard_index = index}, options, dir));
  }
  EXPECT_EQ(merged_csv(artifacts), monolithic_csv(cells, options));
}

TEST(ShardMerge, MergeOrderIsCellOrderNotArgumentOrder) {
  const Fixture f;
  const auto cells = f.grid().cells();
  const auto dir = test_dir();
  const SweepOptions options{.trials = 200, .seed = 3, .threads = 1};
  std::vector<ShardArtifact> artifacts;
  for (const std::size_t index : {2ul, 0ul, 1ul}) {  // shuffled
    artifacts.push_back(run_shard(
        cells, {.shard_count = 3, .shard_index = index}, options, dir));
  }
  EXPECT_EQ(merged_csv(artifacts), monolithic_csv(cells, options));
}

TEST(ShardMerge, CsvMergeSurvivesNewlineBearingNames) {
  // csv_quote legally emits raw newlines inside quoted fields; the
  // shard CSV re-reader must reassemble such multi-line records and
  // the merge must still be byte-identical to the monolithic write.
  const Fixture f;
  SweepGrid grid;
  grid.add_cell({.algorithm = {.name = "decay\nnightly", .schedule = &f.decay},
                 .sizes = {.name = "uniform", .distribution = &f.uniform},
                 .max_rounds = 1 << 12});
  grid.add_cell({.algorithm = {.name = "plain", .schedule = &f.slow_decay},
                 .sizes = {.name = "k=100", .fixed_k = 100},
                 .max_rounds = 1 << 12});
  const auto cells = grid.cells();
  const auto dir = test_dir();
  const SweepOptions options{.trials = 100, .seed = 6, .threads = 1};
  std::vector<ShardArtifact> artifacts;
  for (std::size_t index = 0; index < 2; ++index) {
    artifacts.push_back(run_shard(
        cells, {.shard_count = 2, .shard_index = index}, options, dir));
  }
  EXPECT_EQ(merged_csv(artifacts), monolithic_csv(cells, options));
}

TEST(ShardManifest, JsonRoundTrip) {
  ShardManifest manifest{.csv = "shard-1-of-3.csv",
                         .shard_index = 1,
                         .shard_count = 3,
                         .cell_begin = 10,
                         .cell_end = 21,
                         .cell_seeds = {}};
  manifest.engine = "batch";
  manifest.cd_engine = "history-tree";
  manifest.grid_hash = 0xdeadbeefcafef00dULL;
  manifest.master_seed = ~std::uint64_t{0};
  manifest.trials = 6000;
  manifest.total_cells = 32;
  for (std::size_t i = 0; i < 11; ++i) {
    manifest.cell_seeds.push_back(0x1000 + i * 0x0123456789abcdefULL);
  }
  std::stringstream json;
  write_shard_manifest(json, manifest);
  const ShardManifest parsed = read_shard_manifest(json);
  EXPECT_EQ(parsed.csv, manifest.csv);
  EXPECT_EQ(parsed.engine, manifest.engine);
  EXPECT_EQ(parsed.cd_engine, manifest.cd_engine);
  EXPECT_EQ(parsed.grid_hash, manifest.grid_hash);
  EXPECT_EQ(parsed.master_seed, manifest.master_seed);
  EXPECT_EQ(parsed.trials, manifest.trials);
  EXPECT_EQ(parsed.total_cells, manifest.total_cells);
  EXPECT_EQ(parsed.shard_index, manifest.shard_index);
  EXPECT_EQ(parsed.shard_count, manifest.shard_count);
  EXPECT_EQ(parsed.cell_begin, manifest.cell_begin);
  EXPECT_EQ(parsed.cell_end, manifest.cell_end);
  EXPECT_EQ(parsed.cell_seeds, manifest.cell_seeds);
}

TEST(ShardManifest, JsonRoundTripsEscapedCsvNames) {
  // json_escape emits \" \\ \n and \u00xx for control characters; the
  // strict parser must read back exactly what the writer produced.
  ShardManifest manifest{.cell_seeds = {1}};
  manifest.total_cells = 1;
  manifest.cell_end = 1;
  manifest.csv = "odd \"name\"\\with\nnewline\x01.csv";
  std::stringstream json;
  write_shard_manifest(json, manifest);
  EXPECT_EQ(read_shard_manifest(json).csv, manifest.csv);
}

/// Expects `action` to throw std::invalid_argument whose message
/// contains `needle` — the actionable part of the error.
template <typename Action>
void expect_throws_with(const Action& action, const std::string& needle) {
  try {
    action();
    FAIL() << "expected std::invalid_argument containing \"" << needle
           << "\"";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << "actual error: " << error.what();
  }
}

TEST(ShardManifest, ParserRejectsMalformedInput) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return read_shard_manifest(in);
  };
  ShardManifest manifest{.csv = "s.csv", .cell_end = 2, .cell_seeds = {1, 2}};
  manifest.total_cells = 2;
  std::ostringstream json;
  write_shard_manifest(json, manifest);
  const std::string good = json.str();
  EXPECT_NO_THROW(parse(good));

  const auto reject_trials_value = [&](const std::string& value) {
    std::string text = good;
    const std::string from = "\"trials\": 0";
    const auto at = text.find(from);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, from.size(), "\"trials\": " + value);
    expect_throws_with([&] { (void)parse(text); }, "trials");
  };
  // Non-finite / non-integer numerics are rejected with the field
  // named — the CSV-layer guard applied to the manifest reader.
  reject_trials_value("nan");
  reject_trials_value("inf");
  reject_trials_value("-1");
  reject_trials_value("1.5");
  reject_trials_value("1e3");

  expect_throws_with(
      [&] {
        (void)parse(std::string(good).replace(good.find("0x1\""), 4,
                                              "0xg\""));
      },
      "non-hex");
  expect_throws_with([&] { (void)parse("{}"); }, "missing manifest field");
  expect_throws_with([&] { (void)parse("not json"); }, "expected");
  {
    std::string unknown = good;
    unknown.insert(unknown.find("\"csv\""), "\"bogus\": 1, ");
    expect_throws_with([&] { (void)parse(unknown); }, "unknown");
  }
  {
    std::string duplicate = good;
    duplicate.insert(duplicate.find("\"trials\""), "\"trials\": 0, ");
    expect_throws_with([&] { (void)parse(duplicate); }, "duplicate");
  }
  {
    std::string format = good;
    format.replace(format.find("crp-shard-manifest-v1"),
                   std::string("crp-shard-manifest-v1").size(),
                   "crp-shard-manifest-v999");
    expect_throws_with([&] { (void)parse(format); }, "format");
  }
}

TEST(ShardMerge, RejectsMismatchedShardSets) {
  const Fixture f;
  const auto cells = f.grid().cells();
  const auto dir = test_dir();
  const SweepOptions options{.trials = 150, .seed = 11, .threads = 1};
  std::vector<ShardArtifact> shards;
  for (std::size_t index = 0; index < 3; ++index) {
    shards.push_back(run_shard(
        cells, {.shard_count = 3, .shard_index = index}, options, dir));
  }
  const auto merge = [](const std::vector<ShardArtifact>& set) {
    return [set] { (void)merged_csv(set); };
  };
  EXPECT_NO_THROW(merged_csv(shards));

  {
    auto broken = shards;
    broken[1].manifest.master_seed ^= 1;
    expect_throws_with(merge(broken), "master seed");
  }
  {
    auto broken = shards;
    broken[2].manifest.trials += 1;
    expect_throws_with(merge(broken), "trials");
  }
  {
    auto broken = shards;
    broken[0].manifest.grid_hash ^= 0xff;
    expect_throws_with(merge(broken), "grid fingerprint");
  }
  {
    auto broken = shards;
    broken[1].manifest.cd_engine = "history-tree";
    expect_throws_with(merge(broken), "engine configuration");
  }
  {
    // Missing shard: a gap in the cell ranges.
    expect_throws_with(merge({shards[0], shards[2]}),
                       "gap: cells [2, 4) are covered by no shard");
  }
  {
    // Overlap: the same shard twice.
    expect_throws_with(merge({shards[0], shards[0], shards[1], shards[2]}),
                       "overlap");
  }
  {
    // A shard whose partition changed a cell seed.
    auto broken = shards;
    broken[1].manifest.cell_seeds[0] ^= 1;
    expect_throws_with(merge(broken), "carries cell_seed");
  }
  expect_throws_with(merge({}), "no shards");
}

TEST(ShardMerge, CsvMergeRejectsTamperedArtifacts) {
  const Fixture f;
  const auto cells = f.grid().cells();
  const auto dir = test_dir();
  const SweepOptions options{.trials = 150, .seed = 23, .threads = 1};
  std::vector<ShardArtifact> artifacts;
  for (std::size_t index = 0; index < 2; ++index) {
    artifacts.push_back(run_shard(
        cells, {.shard_count = 2, .shard_index = index}, options, dir));
  }
  {
    std::ostringstream out;
    EXPECT_NO_THROW(merge_shard_csvs(out, artifacts));
  }
  {
    auto broken = artifacts;
    broken[0].csv.rows.pop_back();
    broken[0].csv.row_seeds.pop_back();
    std::ostringstream out;
    expect_throws_with([&] { merge_shard_csvs(out, broken); }, "rows");
  }
  {
    auto broken = artifacts;
    broken[1].csv.header += ",extra";
    std::ostringstream out;
    expect_throws_with([&] { merge_shard_csvs(out, broken); }, "header");
  }
  {
    auto broken = artifacts;
    broken[1].csv.row_seeds[0] ^= 1;
    std::ostringstream out;
    expect_throws_with([&] { merge_shard_csvs(out, broken); }, "cell_seed");
  }
}

TEST(ShardMerge, PartialMergeReportsMissingRangesAndKeepsPresentRows) {
  const Fixture f;
  const auto cells = f.grid().cells();
  const auto dir = test_dir();
  const SweepOptions options{.trials = 150, .seed = 31, .threads = 1};
  std::vector<ShardArtifact> artifacts;  // 3 shards of 2 cells each
  for (std::size_t index = 0; index < 3; ++index) {
    artifacts.push_back(run_shard(
        cells, {.shard_count = 3, .shard_index = index}, options, dir));
  }
  std::ostringstream full;
  merge_shard_csvs(full, artifacts);

  {
    // All present: the partial merge degenerates to the strict one.
    std::ostringstream out;
    const auto report = merge_shard_csvs_partial(out, artifacts);
    EXPECT_EQ(out.str(), full.str());
    EXPECT_EQ(report.total_cells, cells.size());
    EXPECT_EQ(report.present_cells, cells.size());
    EXPECT_TRUE(report.missing.empty());
  }
  {
    // Drop the middle shard: one interior gap, and the output equals
    // the full merge with exactly that shard's rows deleted.
    const std::vector<ShardArtifact> gappy{artifacts[0], artifacts[2]};
    std::ostringstream out;
    const auto report = merge_shard_csvs_partial(out, gappy);
    ASSERT_EQ(report.missing.size(), 1u);
    EXPECT_EQ(report.missing[0].begin, artifacts[1].manifest.cell_begin);
    EXPECT_EQ(report.missing[0].end, artifacts[1].manifest.cell_end);
    EXPECT_EQ(report.present_cells, cells.size() - 2);
    std::string expected = full.str();
    for (const auto& row : artifacts[1].csv.rows) {
      const auto at = expected.find(row + "\n");
      ASSERT_NE(at, std::string::npos);
      expected.erase(at, row.size() + 1);
    }
    EXPECT_EQ(out.str(), expected);
  }
  {
    // Leading and trailing gaps are both reported.
    const std::vector<ShardArtifact> middle_only{artifacts[1]};
    std::ostringstream out;
    const auto report = merge_shard_csvs_partial(out, middle_only);
    ASSERT_EQ(report.missing.size(), 2u);
    EXPECT_EQ(report.missing[0].begin, 0u);
    EXPECT_EQ(report.missing[0].end, artifacts[1].manifest.cell_begin);
    EXPECT_EQ(report.missing[1].begin, artifacts[1].manifest.cell_end);
    EXPECT_EQ(report.missing[1].end, cells.size());
    EXPECT_EQ(report.grid_hash, artifacts[1].manifest.grid_hash);
  }
  {
    // Gaps are forgiven; overlaps and identity mismatches are not.
    const std::vector<ShardArtifact> twice{artifacts[0], artifacts[0]};
    std::ostringstream out;
    expect_throws_with(
        [&] { (void)merge_shard_csvs_partial(out, twice); }, "overlap");
    auto broken = artifacts;
    broken[1].manifest.master_seed ^= 1;
    expect_throws_with(
        [&] { (void)merge_shard_csvs_partial(out, broken); }, "master seed");
  }
}

TEST(ShardMerge, PartialMergeReportSerializesAsMachineReadableJson) {
  const PartialMergeReport report{.grid_hash = 0xabc123,
                                  .total_cells = 10,
                                  .present_cells = 6,
                                  .missing = {{.begin = 2, .end = 4},
                                              {.begin = 8, .end = 10}}};
  std::ostringstream out;
  write_partial_merge_report(out, report);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"format\": \"crp-partial-merge-v1\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"grid_hash\": \"0xabc123\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"total_cells\": 10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"present_cells\": 6"), std::string::npos) << json;
  EXPECT_NE(json.find("[[2, 4], [8, 10]]"), std::string::npos) << json;
}

TEST(ShardCsvRead, ValidatesNumericColumnsAndToleratesQuotes) {
  // A quoted, comma-bearing algorithm name must parse, and the parsed
  // cell_seed must come out of the quoted row intact.
  const std::string header =
      "algorithm,sizes,budget,trials,cell_seed,mean,ci95,p50,p90,p99,"
      "success_rate";
  {
    std::istringstream in(header +
                          "\n\"decay, fast\",uniform,4096,100,42,1.5,0.1,"
                          "1.0,2.0,3.0,1.0\n");
    const ShardCsv csv = read_shard_csv(in);
    ASSERT_EQ(csv.rows.size(), 1u);
    EXPECT_EQ(csv.row_seeds[0], 42u);
  }
  {
    std::istringstream in(header +
                          "\ndecay,uniform,4096,100,42,nan,0.1,1.0,2.0,"
                          "3.0,1.0\n");
    expect_throws_with([&] { (void)read_shard_csv(in); }, "non-finite");
  }
  {
    std::istringstream in(header +
                          "\ndecay,uniform,4096,100,-42,1.5,0.1,1.0,2.0,"
                          "3.0,1.0\n");
    expect_throws_with([&] { (void)read_shard_csv(in); }, "cell_seed");
  }
  {
    std::istringstream in("algorithm,sizes\ndecay,uniform\n");
    expect_throws_with([&] { (void)read_shard_csv(in); }, "cell_seed");
  }
  {
    std::istringstream in(header + "\ndecay,uniform,4096\n");
    expect_throws_with([&] { (void)read_shard_csv(in); }, "fields");
  }
}

// ---- one run identity, three sites ----

/// One row per RunIdentity field: how to corrupt it, and the field name
/// every site's rejection must carry.
struct IdentityMutation {
  std::string field;
  std::function<void(RunIdentity&)> mutate;
};

const std::vector<IdentityMutation> kIdentityMutations = {
    {"grid fingerprint", [](RunIdentity& run) { run.grid_hash ^= 1; }},
    {"master seed", [](RunIdentity& run) { run.master_seed ^= 1; }},
    {"trials", [](RunIdentity& run) { run.trials += 1; }},
    {"total cells", [](RunIdentity& run) { run.total_cells += 1; }},
    {"engine configuration",
     [](RunIdentity& run) { run.engine = "binomial"; }},
    {"engine configuration",
     [](RunIdentity& run) { run.cd_engine = "history-tree"; }},
};

/// The unified form: "<context>: <field> <found> != <expected> — <why>".
void expect_identity_rejection(const std::function<void()>& action,
                               const std::string& context,
                               const std::string& field) {
  try {
    action();
    FAIL() << "expected a rejection naming " << field;
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_TRUE(what.starts_with(context + ": " + field + " ")) << what;
    EXPECT_NE(what.find(" != "), std::string::npos) << what;
    EXPECT_NE(what.find(" — "), std::string::npos) << what;
  }
}

TEST(RunIdentity, ConstructorRecordsTheSweepOptions) {
  const SweepOptions options{.trials = 40,
                             .seed = 9,
                             .engine = NoCdEngine::kBinomial,
                             .cd_engine = CdEngine::kHistoryTree};
  const RunIdentity run(0xabc, 12, options);
  EXPECT_EQ(run.grid_hash, 0xabcu);
  EXPECT_EQ(run.master_seed, 9u);
  EXPECT_EQ(run.trials, 40u);
  EXPECT_EQ(run.total_cells, 12u);
  EXPECT_EQ(run.engine, "binomial");
  EXPECT_EQ(run.cd_engine, "history-tree");
  EXPECT_NO_THROW(check_same_run(run, run, "same"));
}

TEST(RunIdentity, EveryFieldIsCheckedByTheMerge) {
  const Fixture f;
  const auto cells = f.grid().cells();
  const auto dir = test_dir();
  const SweepOptions options{.trials = 60, .seed = 5, .threads = 1};
  std::vector<ShardArtifact> shards;
  for (std::size_t index = 0; index < 3; ++index) {
    shards.push_back(run_shard(
        cells, {.shard_count = 3, .shard_index = index}, options, dir));
  }
  for (const IdentityMutation& row : kIdentityMutations) {
    SCOPED_TRACE(row.field);
    auto broken = shards;
    row.mutate(broken[1].manifest);
    std::ostringstream out;
    expect_identity_rejection([&] { merge_shard_csvs(out, broken); },
                              "shard merge: shard 1", row.field);
    expect_identity_rejection(
        [&] { (void)merge_shard_csvs_partial(out, broken); },
        "shard merge: shard 1", row.field);
  }
}

TEST(RunIdentity, EveryFieldIsCheckedByWorkerResume) {
  const Fixture f;
  const auto cells = f.grid().cells();
  const auto dir = test_dir();
  const SweepOptions options{.trials = 60, .seed = 5, .threads = 1};
  const ShardOptions shard{.shard_count = 2, .shard_index = 1};
  CheckpointRunOptions checkpoint;
  checkpoint.journal_path = (dir / "shard.journal").string();
  checkpoint.max_cells = 1;
  const auto first =
      run_sweep_shard_checkpointed(cells, shard, options, checkpoint);
  ASSERT_EQ(first.status, CheckpointRunStatus::kInterrupted);
  const CheckpointJournal journal =
      read_checkpoint_journal(checkpoint.journal_path);
  ASSERT_EQ(journal.records.size(), 1u);
  checkpoint.resume = true;
  checkpoint.max_cells = 0;

  // Rewrite the header under a corrupted identity; the framing stays
  // self-consistent (the checksum is recomputed), so only the identity
  // check can refuse it.
  for (const IdentityMutation& row : kIdentityMutations) {
    SCOPED_TRACE(row.field);
    ShardManifest header = first.manifest;
    row.mutate(header);
    atomic_write_file(checkpoint.journal_path,
                      format_checkpoint_header(header, sweep_csv_header()) +
                          format_checkpoint_record(journal.records[0]));
    expect_identity_rejection(
        [&] {
          (void)run_sweep_shard_checkpointed(cells, shard, options,
                                             checkpoint);
        },
        "checkpoint resume " + checkpoint.journal_path, row.field);
  }
}

TEST(RunIdentity, EveryFieldIsCheckedBySupervisorResume) {
  const Fixture f;
  const auto cells = f.grid().cells();
  const auto dir = test_dir();
  const SweepOptions options{.trials = 60, .seed = 5, .threads = 1};
  SupervisorJournal expected;
  static_cast<RunIdentity&>(expected) =
      RunIdentity(grid_fingerprint(cells), cells.size(), options);
  expected.workers = 2;
  const std::string journal_path = (dir / "supervisor.journal").string();

  // The identity is checked before any worker could be spawned, so the
  // exe is never executed.
  SuperviseOptions supervise;
  supervise.exe = (dir / "no-such-crp_shard").string();
  supervise.out_dir = dir.string();
  supervise.out = (dir / "merged.csv").string();
  supervise.workers = 2;
  supervise.resume = true;
  const auto resume_over = [&](const SupervisorJournal& header) {
    atomic_write_file(journal_path, format_supervisor_header(header));
    return [&] { (void)run_supervisor(cells, options, supervise); };
  };

  for (const IdentityMutation& row : kIdentityMutations) {
    SCOPED_TRACE(row.field);
    SupervisorJournal header = expected;
    row.mutate(header);
    expect_identity_rejection(resume_over(header),
                              "supervise resume " + journal_path, row.field);
  }
  // The control: with the identity intact, the resume gets past the
  // shared check to the supervisor's own extra, the worker count.
  SupervisorJournal other_workers = expected;
  other_workers.workers = 3;
  expect_throws_with(resume_over(other_workers),
                     "supervise resume " + journal_path + ": worker count 3");
}

}  // namespace
}  // namespace crp::harness
