// Fault injection for the checkpoint layer (harness/checkpoint.h):
// the journal survives a kill at *every* cell and every byte. A
// failing or short-writing sink at the Nth append, truncation at
// every byte offset, a bit flip in every byte, and duplicate records
// must each leave the journal either resumable (valid prefix, torn
// tail truncated on resume) or rejected with an error naming the file
// and byte offset — never silently replayed. The centerpiece
// assertion everywhere: resume-then-merge is byte-identical to the
// monolithic CSV.
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/decay.h"
#include "baselines/willard.h"
#include "harness/checkpoint.h"
#include "harness/shard.h"
#include "harness/sweep.h"
#include "info/distribution.h"

#include "test_support.h"

namespace crp::harness {
namespace {

/// Names this file's per-test scratch directories (test_dir).
constexpr char kDirPrefix[] = "crp_fault_";

const SweepOptions kOptions{.trials = 120, .seed = 77, .threads = 1};

/// How the Nth append dies.
enum class FaultMode {
  kFailBeforeWrite,  ///< nothing reaches the file (clean IoError)
  kShortWrite,       ///< half the record reaches the file (torn tail)
  kFailAfterWrite,   ///< everything reached the file, the error came
                     ///< after durability (e.g. a late fsync failure)
};

/// Wraps the real file sink and injects one failure at the Nth
/// append, leaving the on-disk journal exactly as a crash would.
class FaultInjectionSink final : public CheckpointSink {
 public:
  FaultInjectionSink(std::unique_ptr<CheckpointSink> inner,
                     std::size_t fail_at_append, FaultMode mode)
      : inner_(std::move(inner)), fail_at_(fail_at_append), mode_(mode) {}

  void append(std::string_view bytes) override {
    ++appends_;
    if (appends_ == fail_at_) {
      switch (mode_) {
        case FaultMode::kFailBeforeWrite:
          throw IoError("injected fault: append failed before any write");
        case FaultMode::kShortWrite:
          inner_->append(bytes.substr(0, bytes.size() / 2));
          inner_->sync();
          throw IoError("injected fault: short write (torn record)");
        case FaultMode::kFailAfterWrite:
          inner_->append(bytes);
          inner_->sync();
          throw IoError("injected fault: failure after a durable write");
      }
    }
    inner_->append(bytes);
  }
  void sync() override { inner_->sync(); }

 private:
  std::unique_ptr<CheckpointSink> inner_;
  std::size_t fail_at_ = 0;
  std::size_t appends_ = 0;
  FaultMode mode_;
};

CheckpointSinkFactory faulty_factory(std::size_t fail_at_append,
                                     FaultMode mode) {
  return [fail_at_append, mode](const std::string& path) {
    return std::make_unique<FaultInjectionSink>(
        open_file_checkpoint_sink(path), fail_at_append, mode);
  };
}

/// A completed checkpointed run's journal bytes plus its final CSV —
/// the reference artifacts every damage scenario is checked against.
struct Reference {
  std::string journal;
  std::string csv;
  std::vector<CheckpointRecord> records;
  std::size_t header_bytes = 0;
};

Reference build_reference(const std::filesystem::path& dir,
                          std::span<const SweepCell> cells,
                          const ShardOptions& shard) {
  CheckpointRunOptions checkpoint;
  checkpoint.journal_path = (dir / "reference.journal").string();
  const auto run =
      run_sweep_shard_checkpointed(cells, shard, kOptions, checkpoint);
  EXPECT_EQ(run.status, CheckpointRunStatus::kCompleted);
  Reference reference;
  reference.journal = read_file(checkpoint.journal_path);
  reference.csv = run.csv;
  const auto journal = read_checkpoint_journal(checkpoint.journal_path);
  reference.records = journal.records;
  reference.header_bytes = reference.journal.size();
  for (const auto& record : journal.records) {
    reference.header_bytes -= format_checkpoint_record(record).size();
  }
  return reference;
}

TEST(FaultInjection, KillAtEveryCellInEveryModeResumesByteIdentical) {
  const SixCellFixture f;
  const auto cells = f.cells();
  const ShardOptions shard{.shard_count = 1, .shard_index = 0};
  const auto dir = test_dir(kDirPrefix);
  const Reference reference = build_reference(dir, cells, shard);

  // At 4 threads later cells finish while a lower one still runs; the
  // failing append must still leave exactly the in-order prefix, and
  // kFailAfterWrite must not journal its cell a second time.
  for (const std::size_t threads : {1ul, 4ul}) {
    SweepOptions options = kOptions;
    options.threads = threads;
    for (const FaultMode mode :
         {FaultMode::kFailBeforeWrite, FaultMode::kShortWrite,
          FaultMode::kFailAfterWrite}) {
      for (std::size_t fail_at = 1; fail_at <= cells.size(); ++fail_at) {
        const auto label = "threads " + std::to_string(threads) + " mode " +
                           std::to_string(static_cast<int>(mode)) +
                           " fail_at " + std::to_string(fail_at);
        const auto kill_dir =
            dir / ("kill-" + std::to_string(threads) + "-" +
                   std::to_string(static_cast<int>(mode)) + "-" +
                   std::to_string(fail_at));
        std::filesystem::create_directories(kill_dir);
        CheckpointRunOptions checkpoint;
        checkpoint.journal_path = (kill_dir / "shard.journal").string();
        checkpoint.sink_factory = faulty_factory(fail_at, mode);
        EXPECT_THROW((void)run_sweep_shard_checkpointed(cells, shard, options,
                                                        checkpoint),
                     IoError)
            << label;

        // The journal left behind must already be a valid prefix (plus,
        // for the short write, a detectably-torn tail).
        const auto damaged = read_checkpoint_journal(checkpoint.journal_path);
        const std::size_t durable =
            mode == FaultMode::kFailAfterWrite ? fail_at : fail_at - 1;
        EXPECT_EQ(damaged.records.size(), durable) << label;
        EXPECT_EQ(damaged.torn_bytes > 0, mode == FaultMode::kShortWrite)
            << label;

        checkpoint.sink_factory = nullptr;
        checkpoint.resume = true;
        const auto resumed =
            run_sweep_shard_checkpointed(cells, shard, options, checkpoint);
        EXPECT_EQ(resumed.status, CheckpointRunStatus::kCompleted) << label;
        EXPECT_EQ(resumed.replayed_cells, durable) << label;
        EXPECT_EQ(resumed.csv, reference.csv) << label;
        // The healed journal equals the reference byte for byte: the
        // torn tail was truncated and every re-executed record matches.
        EXPECT_EQ(read_file(checkpoint.journal_path), reference.journal)
            << label;
      }
    }
  }
}

TEST(FaultInjection, TruncationAtEveryByteIsTornOrHeaderDamage) {
  const SixCellFixture f;
  const auto cells = f.cells();
  const auto dir = test_dir(kDirPrefix);
  const Reference reference =
      build_reference(dir, cells, {.shard_count = 1, .shard_index = 0});
  const auto path = (dir / "truncated.journal").string();

  // Record boundaries: after the header, then after each record.
  std::vector<std::size_t> boundaries = {reference.header_bytes};
  for (const auto& record : reference.records) {
    boundaries.push_back(boundaries.back() +
                         format_checkpoint_record(record).size());
  }

  for (std::size_t cut = 0; cut < reference.journal.size(); ++cut) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << reference.journal.substr(0, cut);
    out.close();
    if (cut < reference.header_bytes) {
      // The header block is written atomically — a file that ends
      // inside it cannot come from a crash and must be rejected,
      // naming the file.
      try {
        (void)read_checkpoint_journal(path);
        FAIL() << "header truncation at byte " << cut << " was accepted";
      } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
            << error.what();
      }
    } else {
      // Inside the record region every truncation is a legal crash:
      // the valid prefix is the greatest record boundary <= cut and
      // the rest is torn tail.
      const auto journal = read_checkpoint_journal(path);
      std::size_t expected_valid = boundaries.front();
      std::size_t expected_records = 0;
      for (std::size_t i = 1; i < boundaries.size(); ++i) {
        if (boundaries[i] <= cut) {
          expected_valid = boundaries[i];
          expected_records = i;
        }
      }
      EXPECT_EQ(journal.valid_bytes, expected_valid) << "cut at " << cut;
      EXPECT_EQ(journal.torn_bytes, cut - expected_valid) << "cut at " << cut;
      ASSERT_EQ(journal.records.size(), expected_records) << "cut at " << cut;
      for (std::size_t i = 0; i < expected_records; ++i) {
        EXPECT_EQ(journal.records[i].row, reference.records[i].row);
      }
    }
  }
}

TEST(FaultInjection, BitFlipIsNeverSilentlyReplayed) {
  const SixCellFixture f;
  const auto cells = f.cells();
  const auto dir = test_dir(kDirPrefix);
  const Reference reference =
      build_reference(dir, cells, {.shard_count = 1, .shard_index = 0});
  const auto path = (dir / "flipped.journal").string();

  for (std::size_t offset = 0; offset < reference.journal.size(); ++offset) {
    std::string flipped = reference.journal;
    flipped[offset] = static_cast<char>(flipped[offset] ^ 0x01);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << flipped;
    out.close();
    // Every single-bit flip must either be rejected — an error naming
    // the file and a byte offset — or classified as a torn tail whose
    // valid prefix carries only *undamaged* records (a flip in a
    // length field can legally make the file look short). What can
    // never happen: a damaged record replayed as valid.
    try {
      const auto journal = read_checkpoint_journal(path);
      EXPECT_GT(journal.torn_bytes, 0u)
          << "flip at byte " << offset << " was silently accepted";
      ASSERT_LE(journal.records.size(), reference.records.size());
      for (std::size_t i = 0; i < journal.records.size(); ++i) {
        EXPECT_EQ(journal.records[i].row, reference.records[i].row)
            << "flip at byte " << offset << " corrupted a replayed record";
      }
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(path), std::string::npos)
          << "error does not name the file: " << what;
      EXPECT_NE(what.find("at byte "), std::string::npos)
          << "error does not name the offset: " << what;
    }
  }
}

TEST(FaultInjection, CorruptedChecksumNamesFileAndExactOffset) {
  const SixCellFixture f;
  const auto cells = f.cells();
  const auto dir = test_dir(kDirPrefix);
  const Reference reference =
      build_reference(dir, cells, {.shard_count = 1, .shard_index = 0});
  const auto path = (dir / "corrupt.journal").string();

  // Flip a byte inside the *second* record's row payload: the framing
  // still parses, so only the checksum can catch it — and the error
  // must point at that record's start offset, not the file start.
  ASSERT_GE(reference.records.size(), 2u);
  const std::size_t second_start =
      reference.header_bytes +
      format_checkpoint_record(reference.records[0]).size();
  const std::string second = format_checkpoint_record(reference.records[1]);
  const std::size_t payload_offset = second_start + second.find('\n') + 3;
  std::string corrupted = reference.journal;
  ASSERT_NE(corrupted[payload_offset], 'Z');
  corrupted[payload_offset] = 'Z';
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << corrupted;
  out.close();

  try {
    (void)read_checkpoint_journal(path);
    FAIL() << "corrupted checksum was accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("at byte " + std::to_string(second_start)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
  }
}

TEST(FaultInjection, DuplicateRecordRejectedAtItsOffset) {
  const SixCellFixture f;
  const auto cells = f.cells();
  const auto dir = test_dir(kDirPrefix);
  const Reference reference =
      build_reference(dir, cells, {.shard_count = 1, .shard_index = 0});
  const auto path = (dir / "duplicate.journal").string();

  // Append a byte-exact copy of the first record at the end: framing
  // and checksum are valid, so only the exactly-once index tracking
  // can reject it.
  const std::string duplicate =
      format_checkpoint_record(reference.records.front());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << reference.journal << duplicate;
  out.close();

  try {
    (void)read_checkpoint_journal(path);
    FAIL() << "duplicate record was accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("duplicate record for cell"), std::string::npos)
        << what;
    EXPECT_NE(
        what.find("at byte " + std::to_string(reference.journal.size())),
        std::string::npos)
        << what;
  }
}

TEST(FaultInjection, ResumeThenMergeByteIdenticalToMonolithic) {
  // The acceptance scenario end to end: three shards, each killed
  // mid-grid by a different fault mode, each resumed, the artifacts
  // merged — the result must equal the monolithic CSV byte for byte.
  const SixCellFixture f;
  const auto cells = f.cells();
  const auto dir = test_dir(kDirPrefix);
  std::ostringstream monolithic;
  write_sweep_csv(monolithic, run_sweep(cells, kOptions));

  const FaultMode modes[] = {FaultMode::kFailBeforeWrite,
                             FaultMode::kShortWrite,
                             FaultMode::kFailAfterWrite};
  std::vector<ShardArtifact> artifacts;
  for (std::size_t index = 0; index < 3; ++index) {
    const ShardOptions shard{.shard_count = 3, .shard_index = index};
    CheckpointRunOptions checkpoint;
    checkpoint.journal_path =
        (dir / ("shard-" + std::to_string(index) + ".journal")).string();
    checkpoint.sink_factory = faulty_factory(1, modes[index]);
    EXPECT_THROW(
        (void)run_sweep_shard_checkpointed(cells, shard, kOptions, checkpoint),
        IoError);
    checkpoint.sink_factory = nullptr;
    checkpoint.resume = true;
    const auto resumed =
        run_sweep_shard_checkpointed(cells, shard, kOptions, checkpoint);
    ASSERT_EQ(resumed.status, CheckpointRunStatus::kCompleted);

    ShardArtifact artifact;
    artifact.manifest = resumed.manifest;
    std::istringstream csv_in(resumed.csv);
    artifact.csv = read_shard_csv(csv_in);
    artifacts.push_back(std::move(artifact));
  }
  std::ostringstream merged;
  merge_shard_csvs(merged, artifacts);
  EXPECT_EQ(merged.str(), monolithic.str());
}

}  // namespace
}  // namespace crp::harness
