#include "harness/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "channel/history_engine.h"
#include "channel/rng.h"
#include "harness/csv.h"
#include "harness/framed_journal.h"
#include "harness/hash.h"

namespace crp::harness {

namespace {

constexpr const char* kJournalMagic = "crp-checkpoint-journal-v1";
constexpr const char* kRecordTag = "cell";

[[noreturn]] void io_fail(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

/// write(2) until everything is out; EINTR retried, any other failure
/// (including a kernel-reported short write on a full disk) throws.
void write_all(int fd, std::string_view bytes, const std::string& what) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_fail("cannot write " + what);
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsync_or_throw(int fd, const std::string& what) {
  if (::fsync(fd) != 0) io_fail("cannot fsync " + what);
}

/// fsync on the directory entry, so the rename (or file creation)
/// itself is durable — without this a power loss can forget the file
/// existed even though its contents were flushed.
void fsync_directory(const std::filesystem::path& dir) {
  const std::string name = dir.empty() ? "." : dir.string();
  const int fd = ::open(name.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) io_fail("cannot open directory " + name + " for fsync");
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    io_fail("cannot fsync directory " + name);
  }
  ::close(fd);
}

class FileCheckpointSink final : public CheckpointSink {
 public:
  explicit FileCheckpointSink(std::string path) : path_(std::move(path)) {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd_ < 0) io_fail("cannot open checkpoint journal " + path_);
  }
  ~FileCheckpointSink() override {
    if (fd_ >= 0) ::close(fd_);
  }
  FileCheckpointSink(const FileCheckpointSink&) = delete;
  FileCheckpointSink& operator=(const FileCheckpointSink&) = delete;

  void append(std::string_view bytes) override {
    write_all(fd_, bytes, "checkpoint journal " + path_);
  }
  void sync() override { fsync_or_throw(fd_, "checkpoint journal " + path_); }

 private:
  std::string path_;
  int fd_ = -1;
};

/// Over the identity fields ShardManifest (writer side) and
/// CheckpointJournal (reader side) both carry under the same names.
template <typename Identity>
std::uint64_t header_checksum(const Identity& identity,
                              const std::string& csv_header) {
  Fnv1a h;
  h.u64(identity.grid_hash);
  h.u64(identity.master_seed);
  h.u64(identity.trials);
  h.u64(identity.total_cells);
  h.u64(identity.cell_begin);
  h.u64(identity.cell_end);
  h.str(identity.engine);
  h.str(identity.cd_engine);
  h.str(csv_header);
  return h.state;
}

std::uint64_t record_checksum(const CheckpointRecord& record) {
  Fnv1a h;
  h.u64(record.cell_index);
  h.u64(record.cell_seed);
  h.str(record.row);
  return h.state;
}

}  // namespace

void atomic_write_file(const std::string& path, std::string_view contents) {
  namespace fs = std::filesystem;
  const fs::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    // Note which ancestors are about to be created (deepest first):
    // each new directory is an entry in *its* parent, so every such
    // parent needs an fsync or a power loss can forget the chain.
    std::vector<fs::path> created;
    for (fs::path p = target.parent_path(); !p.empty() && !fs::exists(p, ec);
         p = p.parent_path()) {
      created.push_back(p);
    }
    fs::create_directories(target.parent_path(), ec);
    if (ec) {
      throw IoError("cannot create directory " +
                    target.parent_path().string() + ": " + ec.message());
    }
    for (auto it = created.rbegin(); it != created.rend(); ++it) {
      fsync_directory(it->parent_path());
    }
  }
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) io_fail("cannot create " + tmp);
  try {
    write_all(fd, contents, tmp);
    fsync_or_throw(fd, tmp);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    io_fail("cannot close " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    errno = saved;
    io_fail("cannot rename " + tmp + " to " + path);
  }
  fsync_directory(target.parent_path());
}

std::string read_whole_file(const std::string& path, const std::string& what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) io_fail("cannot open " + what + " " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw IoError("cannot read " + what + " " + path);
  return buffer.str();
}

std::unique_ptr<CheckpointSink> open_file_checkpoint_sink(
    const std::string& path) {
  return std::make_unique<FileCheckpointSink>(path);
}

std::string format_checkpoint_header(const ShardManifest& identity,
                                     const std::string& csv_header) {
  return journal_block(
      {kJournalMagic, hex_u64(identity.grid_hash),
       hex_u64(identity.master_seed), std::to_string(identity.trials),
       std::to_string(identity.total_cells),
       std::to_string(identity.cell_begin), std::to_string(identity.cell_end),
       identity.engine, identity.cd_engine, std::to_string(csv_header.size()),
       hex_u64(header_checksum(identity, csv_header))},
      csv_header);
}

std::string format_checkpoint_record(const CheckpointRecord& record) {
  return journal_block(
      {kRecordTag, std::to_string(record.cell_index),
       hex_u64(record.cell_seed), std::to_string(record.row.size()),
       hex_u64(record_checksum(record))},
      record.row);
}

CheckpointJournal read_checkpoint_journal(const std::string& path) {
  FramedJournalReader reader("checkpoint", path);
  CheckpointJournal journal;

  // ---- header block ----
  const auto fields = reader.header(kJournalMagic, 11);
  journal.grid_hash = reader.field_hex(fields[1], 0, "grid hash");
  journal.master_seed = reader.field_hex(fields[2], 0, "master seed");
  journal.trials = reader.field_uint(fields[3], 0, "trials");
  journal.total_cells = reader.field_uint(fields[4], 0, "total cell count");
  journal.cell_begin = reader.field_uint(fields[5], 0, "cell_begin");
  journal.cell_end = reader.field_uint(fields[6], 0, "cell_end");
  journal.engine = fields[7];
  journal.cd_engine = fields[8];
  const std::size_t header_len =
      reader.field_uint(fields[9], 0, "header length");
  const std::uint64_t header_crc = reader.field_hex(fields[10], 0, "checksum");
  // The header is written atomically, so unlike a record it is never
  // legally torn.
  auto csv_header = reader.payload(0, header_len);
  if (!csv_header) {
    reader.fail(0, "truncated header block (the header is written "
                   "atomically — this file is damaged, not torn)");
  }
  journal.csv_header = std::move(*csv_header);
  if (journal.cell_begin > journal.cell_end ||
      journal.cell_end > journal.total_cells) {
    reader.fail(0, "cell range [" + std::to_string(journal.cell_begin) +
                       ", " + std::to_string(journal.cell_end) +
                       ") is not within [0, " +
                       std::to_string(journal.total_cells) + ")");
  }
  const std::uint64_t computed = header_checksum(journal, journal.csv_header);
  if (computed != header_crc) {
    reader.fail(0, "header checksum mismatch — expected " +
                       hex_u64(header_crc) + ", computed " +
                       hex_u64(computed));
  }

  // ---- records ----
  std::vector<bool> seen(journal.cell_end - journal.cell_begin, false);
  const JournalExtent extent = reader.read_records(
      [&](const FramedJournalReader::Record& line) {
        const std::size_t at = line.offset;
        // A complete line (its newline made it to disk) with bad
        // structure cannot come from a torn append — appends are
        // sequential, so a crash only ever removes a suffix.
        if (line.fields.size() != 5 || line.fields[0] != kRecordTag) {
          reader.fail(at, "malformed record header \"" +
                              std::string(line.line) + "\"");
        }
        CheckpointRecord record;
        record.cell_index =
            reader.field_uint(line.fields[1], at, "record cell index");
        record.cell_seed =
            reader.field_hex(line.fields[2], at, "record cell seed");
        const std::size_t row_len =
            reader.field_uint(line.fields[3], at, "record length");
        const std::uint64_t crc =
            reader.field_hex(line.fields[4], at, "record checksum");
        auto row = reader.payload(at, row_len);
        if (!row) return false;
        record.row = std::move(*row);
        const std::uint64_t computed = record_checksum(record);
        if (computed != crc) {
          reader.fail(at, "record checksum mismatch for cell " +
                              std::to_string(record.cell_index) +
                              " — expected " + hex_u64(crc) + ", computed " +
                              hex_u64(computed) +
                              " (the record is corrupt, not torn)");
        }
        if (record.cell_index < journal.cell_begin ||
            record.cell_index >= journal.cell_end) {
          reader.fail(at, "record cell index " +
                              std::to_string(record.cell_index) +
                              " is outside the shard range [" +
                              std::to_string(journal.cell_begin) + ", " +
                              std::to_string(journal.cell_end) + ")");
        }
        if (seen[record.cell_index - journal.cell_begin]) {
          reader.fail(at, "duplicate record for cell " +
                              std::to_string(record.cell_index) +
                              " — each cell must be journaled exactly once");
        }
        seen[record.cell_index - journal.cell_begin] = true;
        journal.records.push_back(std::move(record));
        return true;
      });
  journal.valid_bytes = extent.valid_bytes;
  journal.torn_bytes = extent.torn_bytes;
  return journal;
}

namespace {

/// Resume-time identity check: the journal must describe exactly the
/// shard the caller is about to run.
void validate_journal_against_plan(const CheckpointJournal& journal,
                                   const std::string& path,
                                   const ShardManifest& identity,
                                   const std::string& csv_header) {
  const auto fail = [&path](const std::string& message) {
    throw std::invalid_argument("checkpoint resume " + path + ": " + message);
  };
  if (journal.grid_hash != identity.grid_hash) {
    fail("grid fingerprint " + hex_u64(journal.grid_hash) + " != " +
         hex_u64(identity.grid_hash) +
         " — the journal was written for a different grid");
  }
  if (journal.master_seed != identity.master_seed) {
    fail("master seed " + hex_u64(journal.master_seed) + " != " +
         hex_u64(identity.master_seed) +
         " — resume under the seed the journal was started with");
  }
  if (journal.trials != identity.trials) {
    fail("trials " + std::to_string(journal.trials) + " != " +
         std::to_string(identity.trials));
  }
  if (journal.engine != identity.engine ||
      journal.cd_engine != identity.cd_engine) {
    fail("engine configuration (" + journal.engine + ", " +
         journal.cd_engine + ") != (" + identity.engine + ", " +
         identity.cd_engine + ")");
  }
  if (journal.total_cells != identity.total_cells ||
      journal.cell_begin != identity.cell_begin ||
      journal.cell_end != identity.cell_end) {
    fail("cell range [" + std::to_string(journal.cell_begin) + ", " +
         std::to_string(journal.cell_end) + ") of " +
         std::to_string(journal.total_cells) + " != planned [" +
         std::to_string(identity.cell_begin) + ", " +
         std::to_string(identity.cell_end) + ") of " +
         std::to_string(identity.total_cells));
  }
  if (journal.csv_header != csv_header) {
    fail("CSV header \"" + journal.csv_header +
         "\" does not match this build's sweep CSV header \"" + csv_header +
         "\"");
  }
}

}  // namespace

CheckpointRunResult run_sweep_shard_checkpointed(
    std::span<const SweepCell> cells, const ShardOptions& shard_options,
    const SweepOptions& sweep_options, const CheckpointRunOptions& options) {
  if (options.journal_path.empty()) {
    throw std::invalid_argument(
        "checkpoint: CheckpointRunOptions::journal_path is required");
  }
  const std::string& path = options.journal_path;
  ShardPlan plan = plan_shards(cells, shard_options);
  const std::size_t range = plan.cell_end - plan.cell_begin;
  const std::string csv_header = sweep_csv_header();

  CheckpointRunResult result;
  result.manifest = ShardManifest{.csv = {},
                                  .engine = engine_name(sweep_options.engine),
                                  .cd_engine =
                                      engine_name(sweep_options.cd_engine),
                                  .grid_hash = plan.grid_hash,
                                  .master_seed = sweep_options.seed,
                                  .trials = sweep_options.trials,
                                  .total_cells = plan.total_cells,
                                  .shard_index = plan.shard_index,
                                  .shard_count = plan.shard_count,
                                  .cell_begin = plan.cell_begin,
                                  .cell_end = plan.cell_end,
                                  .cell_seeds = {}};
  result.manifest.cell_seeds.reserve(range);
  for (std::size_t j = 0; j < range; ++j) {
    result.manifest.cell_seeds.push_back(channel::derive_stream_seed(
        sweep_options.seed, plan.cells[j].seed_stream));
  }

  std::vector<std::optional<std::string>> rows(range);
  const bool exists = std::filesystem::exists(path);
  if (options.resume) {
    if (!exists) {
      throw std::invalid_argument(
          "checkpoint resume: journal " + path +
          " does not exist — nothing to resume (run fresh instead)");
    }
    const CheckpointJournal journal = read_checkpoint_journal(path);
    validate_journal_against_plan(journal, path, result.manifest, csv_header);
    const std::size_t header_columns = split_csv_row(csv_header).size();
    for (const CheckpointRecord& record : journal.records) {
      const std::size_t j = record.cell_index - plan.cell_begin;
      if (record.cell_seed != result.manifest.cell_seeds[j]) {
        throw std::invalid_argument(
            "checkpoint resume " + path + ": cell " +
            std::to_string(record.cell_index) + " was journaled under seed " +
            hex_u64(record.cell_seed) + " but the plan derives " +
            hex_u64(result.manifest.cell_seeds[j]) +
            " — the journal belongs to a different partition");
      }
      // Row cross-check: the journaled bytes must actually be one CSV
      // row of this shard — right column count, cell_seed column equal
      // to the record seed — so a writer bug cannot smuggle a foreign
      // row through an otherwise-valid checksum.
      const auto row_fields = split_csv_row(record.row);
      if (row_fields.size() != header_columns) {
        throw std::invalid_argument(
            "checkpoint resume " + path + ": cell " +
            std::to_string(record.cell_index) + " row has " +
            std::to_string(row_fields.size()) + " columns, expected " +
            std::to_string(header_columns));
      }
      const auto row_seed = parse_csv_unsigned(row_fields[4]);
      if (!row_seed || *row_seed != record.cell_seed) {
        throw std::invalid_argument(
            "checkpoint resume " + path + ": cell " +
            std::to_string(record.cell_index) +
            " row carries cell_seed \"" + row_fields[4] +
            "\" but the record was journaled under " +
            hex_u64(record.cell_seed));
      }
      rows[j] = record.row;
      ++result.replayed_cells;
    }
    truncate_torn_tail(path, journal.valid_bytes, journal.torn_bytes);
  } else {
    if (exists) {
      throw std::invalid_argument(
          "checkpoint: journal " + path +
          " already exists — resume it or remove it before starting fresh");
    }
    atomic_write_file(path,
                      format_checkpoint_header(result.manifest, csv_header));
  }

  std::unique_ptr<CheckpointSink> sink = options.sink_factory
                                             ? options.sink_factory(path)
                                             : open_file_checkpoint_sink(path);

  // One history-tree cache across the per-cell run_sweep calls, so a
  // checkpointed CD sweep expands each (policy, k, horizon) tree once,
  // matching the monolithic run_sweep's amortization.
  const channel::HistoryTreeCache tree_cache;
  SweepOptions cell_options = sweep_options;
  if (cell_options.cd_engine == CdEngine::kHistoryTree &&
      cell_options.tree_cache == nullptr) {
    cell_options.tree_cache = &tree_cache;
  }

  for (std::size_t j = 0; j < range; ++j) {
    if (rows[j].has_value()) continue;
    if (options.interrupted && options.interrupted()) break;
    if (options.max_cells != 0 && result.executed_cells >= options.max_cells) {
      break;
    }
    if (options.on_cell_start) options.on_cell_start(plan.cell_begin + j);
    auto cell_results =
        run_sweep(std::span<const SweepCell>(&plan.cells[j], 1), cell_options);
    SweepResult cell_result = std::move(cell_results.front());
    cell_result.cell_index = plan.cell_begin + j;
    CheckpointRecord record{.cell_index = cell_result.cell_index,
                            .cell_seed = cell_result.cell_seed,
                            .row = sweep_csv_row(cell_result)};
    // Append + fsync per cell: after this returns, a crash at any
    // later byte boundary preserves this cell.
    sink->append(format_checkpoint_record(record));
    sink->sync();
    rows[j] = std::move(record.row);
    ++result.executed_cells;
    if (options.on_cell_executed) {
      options.on_cell_executed(plan.cell_begin + j);
    }
  }

  for (const auto& row : rows) {
    if (!row.has_value()) ++result.remaining_cells;
  }
  if (result.remaining_cells == 0) {
    result.status = CheckpointRunStatus::kCompleted;
    std::string csv = csv_header;
    csv += '\n';
    for (const auto& row : rows) {
      csv += *row;
      csv += '\n';
    }
    result.csv = std::move(csv);
  } else {
    result.status = CheckpointRunStatus::kInterrupted;
  }
  return result;
}

}  // namespace crp::harness
