// The checkpoint layer (harness/checkpoint.h): atomic artifact
// writes, the journal format round trip, checkpointed shard runs
// byte-identical to the monolithic CSV across every interrupt point,
// clean-stop semantics (interrupted hook, cell budget), and the
// resume validation that rejects journals from a different grid,
// seed, engine, partition, or build.
//
// Deliberate on-disk damage — torn tails, bit flips, truncation at
// every byte, duplicate records — lives in fault_injection_test.cpp.
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "baselines/willard.h"
#include "harness/checkpoint.h"
#include "harness/csv.h"
#include "harness/shard.h"
#include "harness/sweep.h"
#include "info/distribution.h"

#include "test_support.h"

namespace crp::harness {
namespace {

/// Names this file's per-test scratch directories (test_dir).
constexpr char kDirPrefix[] = "crp_checkpoint_";

const SweepOptions kOptions{.trials = 120, .seed = 77, .threads = 1};

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

TEST(AtomicWriteFile, WritesCreatesParentsAndOverwrites) {
  const auto dir = test_dir(kDirPrefix);
  const auto path = dir / "nested" / "deeper" / "artifact.csv";
  atomic_write_file(path.string(), "first contents\n");
  EXPECT_EQ(read_file(path), "first contents\n");
  atomic_write_file(path.string(), "second contents\n");
  EXPECT_EQ(read_file(path), "second contents\n");
  // The temp name never survives — success or failure, only the final
  // name exists afterwards.
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
}

TEST(AtomicWriteFile, FailureLeavesExistingFileIntact) {
  const auto dir = test_dir(kDirPrefix);
  const auto path = dir / "artifact.csv";
  atomic_write_file(path.string(), "precious\n");
  // Writing *under a path whose parent is a file* must fail with
  // IoError and must not disturb the sibling artifact.
  EXPECT_THROW(
      atomic_write_file((path / "impossible.csv").string(), "clobber"),
      IoError);
  EXPECT_EQ(read_file(path), "precious\n");
}

TEST(JournalFormat, RoundTripsHeaderAndRecords) {
  const auto dir = test_dir(kDirPrefix);
  const auto path = (dir / "shard.journal").string();
  ShardManifest identity;
  identity.engine = "batch";
  identity.cd_engine = "history-tree";
  identity.grid_hash = 0xdeadbeefcafef00dULL;
  identity.master_seed = ~std::uint64_t{0};
  identity.trials = 6000;
  identity.total_cells = 9;
  identity.cell_begin = 3;
  identity.cell_end = 7;
  const std::string header = sweep_csv_header();
  // Rows may legally carry embedded newlines and quotes (csv_quote);
  // the length-prefixed framing must not care.
  const std::vector<CheckpointRecord> records = {
      {.cell_index = 4, .cell_seed = 0x1234, .row = "\"odd\nname\",x,1,2,3"},
      {.cell_index = 3, .cell_seed = 1, .row = "plain,y,4,5,6"},
  };
  std::string bytes = format_checkpoint_header(identity, header);
  for (const auto& record : records) {
    bytes += format_checkpoint_record(record);
  }
  atomic_write_file(path, bytes);

  const CheckpointJournal journal = read_checkpoint_journal(path);
  EXPECT_EQ(journal.grid_hash, identity.grid_hash);
  EXPECT_EQ(journal.master_seed, identity.master_seed);
  EXPECT_EQ(journal.trials, identity.trials);
  EXPECT_EQ(journal.total_cells, identity.total_cells);
  EXPECT_EQ(journal.cell_begin, identity.cell_begin);
  EXPECT_EQ(journal.cell_end, identity.cell_end);
  EXPECT_EQ(journal.engine, identity.engine);
  EXPECT_EQ(journal.cd_engine, identity.cd_engine);
  EXPECT_EQ(journal.csv_header, header);
  ASSERT_EQ(journal.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(journal.records[i].cell_index, records[i].cell_index);
    EXPECT_EQ(journal.records[i].cell_seed, records[i].cell_seed);
    EXPECT_EQ(journal.records[i].row, records[i].row);
  }
  EXPECT_EQ(journal.valid_bytes, bytes.size());
  EXPECT_EQ(journal.torn_bytes, 0u);
}

TEST(CheckpointedRun, FreshRunMatchesMonolithicShardCsv) {
  const SixCellFixture f;
  const auto cells = f.cells();
  const auto dir = test_dir(kDirPrefix);

  const ShardPlan plan =
      plan_shards(cells, {.shard_count = 2, .shard_index = 0});
  const auto reference =
      run_sweep(std::span<const SweepCell>(plan.cells), kOptions);
  std::ostringstream reference_csv;
  write_sweep_csv(reference_csv, reference);

  CheckpointRunOptions checkpoint;
  checkpoint.journal_path = (dir / "shard.journal").string();
  const auto run = run_sweep_shard_checkpointed(
      cells, {.shard_count = 2, .shard_index = 0}, kOptions, checkpoint);
  EXPECT_EQ(run.status, CheckpointRunStatus::kCompleted);
  EXPECT_EQ(run.replayed_cells, 0u);
  EXPECT_EQ(run.executed_cells, reference.size());
  EXPECT_EQ(run.remaining_cells, 0u);
  EXPECT_EQ(run.csv, reference_csv.str());
  EXPECT_EQ(run.manifest.grid_hash, plan.grid_hash);
  EXPECT_EQ(run.manifest.total_cells, cells.size());
  EXPECT_EQ(run.manifest.master_seed, kOptions.seed);
  EXPECT_EQ(run.manifest.trials, kOptions.trials);
  EXPECT_EQ(run.manifest.cell_begin, plan.cell_begin);
  EXPECT_EQ(run.manifest.cell_end, plan.cell_end);
  ASSERT_EQ(run.manifest.cell_seeds.size(), reference.size());
  for (std::size_t j = 0; j < reference.size(); ++j) {
    EXPECT_EQ(run.manifest.cell_seeds[j], reference[j].cell_seed);
  }
}

TEST(CheckpointedRun, InterruptAtEveryCellThenResumeIsByteIdentical) {
  const SixCellFixture f;
  const auto cells = f.cells();
  const ShardOptions shard{.shard_count = 1, .shard_index = 0};

  CheckpointRunOptions reference_options;
  const auto reference_dir = test_dir(kDirPrefix);
  reference_options.journal_path =
      (reference_dir / "reference.journal").string();
  const auto reference =
      run_sweep_shard_checkpointed(cells, shard, kOptions, reference_options);
  ASSERT_EQ(reference.status, CheckpointRunStatus::kCompleted);

  for (std::size_t stop = 1; stop < cells.size(); ++stop) {
    const auto stop_dir =
        reference_dir / ("stop-" + std::to_string(stop));
    std::filesystem::create_directories(stop_dir);
    CheckpointRunOptions checkpoint;
    checkpoint.journal_path = (stop_dir / "shard.journal").string();
    checkpoint.max_cells = stop;
    const auto first =
        run_sweep_shard_checkpointed(cells, shard, kOptions, checkpoint);
    EXPECT_EQ(first.status, CheckpointRunStatus::kInterrupted);
    EXPECT_EQ(first.executed_cells, stop);
    EXPECT_EQ(first.remaining_cells, cells.size() - stop);
    EXPECT_TRUE(first.csv.empty());

    checkpoint.resume = true;
    checkpoint.max_cells = 0;
    const auto resumed =
        run_sweep_shard_checkpointed(cells, shard, kOptions, checkpoint);
    EXPECT_EQ(resumed.status, CheckpointRunStatus::kCompleted);
    EXPECT_EQ(resumed.replayed_cells, stop);
    EXPECT_EQ(resumed.executed_cells, cells.size() - stop);
    EXPECT_EQ(resumed.csv, reference.csv) << "stopped after " << stop;
  }
}

TEST(CheckpointedRun, ResumeOfCompletedJournalIsIdempotent) {
  const SixCellFixture f;
  const auto cells = f.cells();
  const auto dir = test_dir(kDirPrefix);
  CheckpointRunOptions checkpoint;
  checkpoint.journal_path = (dir / "shard.journal").string();
  const auto first = run_sweep_shard_checkpointed(
      cells, {.shard_count = 1, .shard_index = 0}, kOptions, checkpoint);
  ASSERT_EQ(first.status, CheckpointRunStatus::kCompleted);

  checkpoint.resume = true;
  const auto again = run_sweep_shard_checkpointed(
      cells, {.shard_count = 1, .shard_index = 0}, kOptions, checkpoint);
  EXPECT_EQ(again.status, CheckpointRunStatus::kCompleted);
  EXPECT_EQ(again.replayed_cells, cells.size());
  EXPECT_EQ(again.executed_cells, 0u);
  EXPECT_EQ(again.csv, first.csv);
}

TEST(CheckpointedRun, InterruptedHookStopsBetweenCells) {
  const SixCellFixture f;
  const auto cells = f.cells();
  const auto dir = test_dir(kDirPrefix);
  CheckpointRunOptions checkpoint;
  checkpoint.journal_path = (dir / "shard.journal").string();
  // The hook is polled *before* each cell; returning true from the
  // second poll onward means exactly one cell completes — the
  // finish-the-in-flight-cell semantics the signal handler relies on.
  std::size_t polls = 0;
  checkpoint.interrupted = [&polls] { return ++polls > 1; };
  const auto run = run_sweep_shard_checkpointed(
      cells, {.shard_count = 1, .shard_index = 0}, kOptions, checkpoint);
  EXPECT_EQ(run.status, CheckpointRunStatus::kInterrupted);
  EXPECT_EQ(run.executed_cells, 1u);
  // The completed cell is already durable: a fresh read sees it.
  const auto journal = read_checkpoint_journal(checkpoint.journal_path);
  ASSERT_EQ(journal.records.size(), 1u);
  EXPECT_EQ(journal.torn_bytes, 0u);
}

TEST(CheckpointedRun, FreshJournalBytesAreThreadCountInvariant) {
  // The cells run on one pool, but records land in cell order, so the
  // journal is the same file at every thread count.
  const SixCellFixture f;
  const auto cells = f.cells();
  const auto dir = test_dir(kDirPrefix);
  std::string reference;
  for (const std::size_t threads : {1ul, 2ul, 8ul}) {
    SweepOptions options = kOptions;
    options.threads = threads;
    CheckpointRunOptions checkpoint;
    checkpoint.journal_path =
        (dir / ("threads-" + std::to_string(threads) + ".journal")).string();
    const auto run = run_sweep_shard_checkpointed(
        cells, {.shard_count = 1, .shard_index = 0}, options, checkpoint);
    ASSERT_EQ(run.status, CheckpointRunStatus::kCompleted);
    const std::string journal = read_file(checkpoint.journal_path);
    if (threads == 1) reference = journal;
    EXPECT_EQ(journal, reference) << "threads " << threads;
  }
}

TEST(CheckpointedRun, InterruptAfterKAppendsOnThePoolKeepsThePrefix) {
  const SixCellFixture f;
  const auto cells = f.cells();
  const ShardOptions shard{.shard_count = 1, .shard_index = 0};
  const auto dir = test_dir(kDirPrefix);
  SweepOptions options = kOptions;
  options.threads = 4;
  CheckpointRunOptions reference_options;
  reference_options.journal_path = (dir / "reference.journal").string();
  const auto reference =
      run_sweep_shard_checkpointed(cells, shard, options, reference_options);
  ASSERT_EQ(reference.status, CheckpointRunStatus::kCompleted);

  for (std::size_t k = 1; k < cells.size(); ++k) {
    CheckpointRunOptions checkpoint;
    checkpoint.journal_path =
        (dir / ("stop-" + std::to_string(k) + ".journal")).string();
    std::size_t appended = 0;
    checkpoint.on_cell_executed = [&appended](std::size_t) { ++appended; };
    checkpoint.interrupted = [&appended, k] { return appended >= k; };
    const auto first =
        run_sweep_shard_checkpointed(cells, shard, options, checkpoint);
    EXPECT_EQ(first.status, CheckpointRunStatus::kInterrupted) << k;
    EXPECT_EQ(first.executed_cells, k);
    const auto journal = read_checkpoint_journal(checkpoint.journal_path);
    ASSERT_EQ(journal.records.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(journal.records[i].cell_index, i) << "stop after " << k;
    }

    checkpoint.resume = true;
    checkpoint.interrupted = nullptr;
    const auto resumed =
        run_sweep_shard_checkpointed(cells, shard, options, checkpoint);
    EXPECT_EQ(resumed.status, CheckpointRunStatus::kCompleted);
    EXPECT_EQ(resumed.replayed_cells, k);
    EXPECT_EQ(resumed.csv, reference.csv) << "stop after " << k;
    EXPECT_EQ(read_file(checkpoint.journal_path),
              read_file(reference_options.journal_path))
        << "stop after " << k;
  }
}

TEST(CheckpointedRun, HooksNeverOverlapOnThePool) {
  const SixCellFixture f;
  const auto cells = f.cells();
  const auto dir = test_dir(kDirPrefix);
  SweepOptions options = kOptions;
  options.threads = 8;
  // Every hook bumps `inside` for its duration; a second hook running
  // at the same time would see it above 1.
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  std::vector<std::size_t> started;
  const auto enter = [&] {
    if (++inside > 1) overlapped = true;
  };
  CheckpointRunOptions checkpoint;
  checkpoint.journal_path = (dir / "shard.journal").string();
  checkpoint.on_cell_start = [&](std::size_t cell) {
    enter();
    started.push_back(cell);
    --inside;
  };
  checkpoint.on_cell_executed = [&](std::size_t) {
    enter();
    --inside;
  };
  checkpoint.interrupted = [&] {
    enter();
    --inside;
    return false;
  };
  const auto run = run_sweep_shard_checkpointed(
      cells, {.shard_count = 1, .shard_index = 0}, options, checkpoint);
  EXPECT_EQ(run.status, CheckpointRunStatus::kCompleted);
  EXPECT_FALSE(overlapped.load());
  ASSERT_EQ(started.size(), cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) EXPECT_EQ(started[c], c);
}

TEST(CheckpointedRun, RejectsFreshOverExistingAndResumeWithoutJournal) {
  const SixCellFixture f;
  const auto cells = f.cells();
  const auto dir = test_dir(kDirPrefix);
  CheckpointRunOptions checkpoint;
  checkpoint.journal_path = (dir / "shard.journal").string();
  checkpoint.max_cells = 1;
  (void)run_sweep_shard_checkpointed(
      cells, {.shard_count = 1, .shard_index = 0}, kOptions, checkpoint);

  expect_throws_with(
      [&] {
        (void)run_sweep_shard_checkpointed(
            cells, {.shard_count = 1, .shard_index = 0}, kOptions, checkpoint);
      },
      "already exists");

  CheckpointRunOptions missing;
  missing.journal_path = (dir / "no-such.journal").string();
  missing.resume = true;
  expect_throws_with(
      [&] {
        (void)run_sweep_shard_checkpointed(
            cells, {.shard_count = 1, .shard_index = 0}, kOptions, missing);
      },
      "nothing to resume");
}

TEST(CheckpointedRun, ResumeValidationRejectsMismatchedIdentity) {
  const SixCellFixture f;
  const auto cells = f.cells();
  const auto dir = test_dir(kDirPrefix);
  const ShardOptions shard{.shard_count = 2, .shard_index = 0};
  CheckpointRunOptions checkpoint;
  checkpoint.journal_path = (dir / "shard.journal").string();
  checkpoint.max_cells = 1;
  (void)run_sweep_shard_checkpointed(cells, shard, kOptions, checkpoint);
  checkpoint.resume = true;
  checkpoint.max_cells = 0;

  const auto resume_with = [&](const ShardOptions& shard_options,
                               const SweepOptions& sweep_options) {
    return [&, shard_options, sweep_options] {
      (void)run_sweep_shard_checkpointed(cells, shard_options, sweep_options,
                                         checkpoint);
    };
  };

  SweepOptions other_seed = kOptions;
  other_seed.seed = kOptions.seed + 1;
  expect_throws_with(resume_with(shard, other_seed), "master seed");

  SweepOptions other_trials = kOptions;
  other_trials.trials = kOptions.trials + 1;
  expect_throws_with(resume_with(shard, other_trials), "trials");

  SweepOptions other_engine = kOptions;
  other_engine.cd_engine = CdEngine::kHistoryTree;
  expect_throws_with(resume_with(shard, other_engine),
                     "engine configuration");

  expect_throws_with(
      resume_with({.shard_count = 3, .shard_index = 0}, kOptions),
      "cell range");

  // A different grid (a second budget after each cell's first) must
  // be caught by the fingerprint before anything is replayed.
  SixCellFixture g;
  std::vector<SweepCell> other_cells;
  for (const SweepCell& cell : g.cells()) {
    other_cells.push_back(cell);
    other_cells.push_back(cell);
    other_cells.back().max_rounds = 1 << 13;
  }
  expect_throws_with(
      [&] {
        (void)run_sweep_shard_checkpointed(other_cells, shard, kOptions,
                                           checkpoint);
      },
      "grid fingerprint");
}

TEST(CheckpointedRun, ResumeRejectsRecordsFromForeignPartition) {
  const SixCellFixture f;
  const auto cells = f.cells();
  const auto dir = test_dir(kDirPrefix);
  const ShardOptions shard{.shard_count = 1, .shard_index = 0};
  CheckpointRunOptions checkpoint;
  checkpoint.journal_path = (dir / "shard.journal").string();
  checkpoint.max_cells = 1;
  (void)run_sweep_shard_checkpointed(cells, shard, kOptions, checkpoint);

  // Re-frame the journal's one record under a tampered seed. The
  // framing stays self-consistent (format_checkpoint_record recomputes
  // the checksum), so only the seed-vs-derived cross-check can catch
  // it — exactly the "journal from a different partition" case.
  const auto journal = read_checkpoint_journal(checkpoint.journal_path);
  ASSERT_EQ(journal.records.size(), 1u);
  CheckpointRecord tampered = journal.records.front();
  tampered.cell_seed ^= 1;
  const std::string header_bytes =
      read_file(checkpoint.journal_path)
          .substr(0, journal.valid_bytes -
                         format_checkpoint_record(journal.records.front())
                             .size());
  atomic_write_file(checkpoint.journal_path,
                    header_bytes + format_checkpoint_record(tampered));

  checkpoint.resume = true;
  checkpoint.max_cells = 0;
  expect_throws_with(
      [&] {
        (void)run_sweep_shard_checkpointed(cells, shard, kOptions, checkpoint);
      },
      "journaled under seed");

  // Same framing trick, but the *row* lies about its cell_seed column
  // while the record seed is correct — the row cross-check fires.
  CheckpointRecord lying = journal.records.front();
  auto columns = split_csv_row(lying.row);
  ASSERT_GT(columns.size(), 4u);
  columns[4] = "999";
  lying.row = csv_row_string(columns);
  atomic_write_file(checkpoint.journal_path,
                    header_bytes + format_checkpoint_record(lying));
  expect_throws_with(
      [&] {
        (void)run_sweep_shard_checkpointed(cells, shard, kOptions, checkpoint);
      },
      "row carries cell_seed");
}

TEST(CheckpointedRun, HistoryTreeEngineMatchesMonolithic) {
  // The shared tree cache must be an amortization, never a behavior
  // change: a checkpointed history-tree run equals the monolithic CSV.
  const SixCellFixture f;
  const auto cells = f.cells();
  const auto dir = test_dir(kDirPrefix);
  SweepOptions options = kOptions;
  options.cd_engine = CdEngine::kHistoryTree;

  std::ostringstream reference_csv;
  write_sweep_csv(reference_csv, run_sweep(cells, options));

  CheckpointRunOptions checkpoint;
  checkpoint.journal_path = (dir / "shard.journal").string();
  checkpoint.max_cells = 2;
  const auto first = run_sweep_shard_checkpointed(
      cells, {.shard_count = 1, .shard_index = 0}, options, checkpoint);
  ASSERT_EQ(first.status, CheckpointRunStatus::kInterrupted);
  checkpoint.resume = true;
  checkpoint.max_cells = 0;
  const auto resumed = run_sweep_shard_checkpointed(
      cells, {.shard_count = 1, .shard_index = 0}, options, checkpoint);
  EXPECT_EQ(resumed.status, CheckpointRunStatus::kCompleted);
  EXPECT_EQ(resumed.csv, reference_csv.str());
}

}  // namespace
}  // namespace crp::harness
