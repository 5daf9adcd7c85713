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

/// The field order is fixed by the journals already on disk: the cell
/// range hashes between total_cells and the engines.
std::uint64_t header_checksum(const RunIdentity& run, std::size_t cell_begin,
                              std::size_t cell_end,
                              const std::string& csv_header) {
  Fnv1a h;
  h.u64(run.grid_hash);
  h.u64(run.master_seed);
  h.u64(run.trials);
  h.u64(run.total_cells);
  h.u64(cell_begin);
  h.u64(cell_end);
  h.str(run.engine);
  h.str(run.cd_engine);
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
       hex_u64(header_checksum(identity, identity.cell_begin,
                               identity.cell_end, csv_header))},
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
  const std::uint64_t computed = header_checksum(
      journal, journal.cell_begin, journal.cell_end, journal.csv_header);
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
  ShardManifest& manifest = result.manifest;
  static_cast<RunIdentity&>(manifest) =
      RunIdentity(plan.grid_hash, plan.total_cells, sweep_options);
  manifest.shard_index = plan.shard_index;
  manifest.shard_count = plan.shard_count;
  manifest.cell_begin = plan.cell_begin;
  manifest.cell_end = plan.cell_end;
  manifest.cell_seeds.reserve(range);
  for (std::size_t j = 0; j < range; ++j) {
    manifest.cell_seeds.push_back(channel::derive_stream_seed(
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
    const std::string context = "checkpoint resume " + path;
    check_same_run(manifest, journal, context);
    if (journal.cell_begin != manifest.cell_begin ||
        journal.cell_end != manifest.cell_end) {
      const std::string of = ") of " + std::to_string(manifest.total_cells);
      throw std::invalid_argument(
          context + ": cell range [" + std::to_string(journal.cell_begin) +
          ", " + std::to_string(journal.cell_end) + of + " != planned [" +
          std::to_string(manifest.cell_begin) + ", " +
          std::to_string(manifest.cell_end) + of);
    }
    if (journal.csv_header != csv_header) {
      throw std::invalid_argument(
          context + ": CSV header \"" + journal.csv_header +
          "\" does not match this build's sweep CSV header \"" + csv_header +
          "\"");
    }
    const std::size_t header_columns = split_csv_row(csv_header).size();
    for (const CheckpointRecord& record : journal.records) {
      const std::size_t j = record.cell_index - plan.cell_begin;
      if (record.cell_seed != manifest.cell_seeds[j]) {
        throw std::invalid_argument(
            context + ": cell " + std::to_string(record.cell_index) +
            " was journaled under seed " + hex_u64(record.cell_seed) +
            " but the plan derives " +
            hex_u64(manifest.cell_seeds[j]) +
            " — the journal belongs to a different partition");
      }
      // Row cross-check: the journaled bytes must actually be one CSV
      // row of this shard — right column count, cell_seed column equal
      // to the record seed — so a writer bug cannot smuggle a foreign
      // row through an otherwise-valid checksum.
      const auto row_fields = split_csv_row(record.row);
      if (row_fields.size() != header_columns) {
        throw std::invalid_argument(
            context + ": cell " + std::to_string(record.cell_index) +
            " row has " + std::to_string(row_fields.size()) +
            " columns, expected " +
            std::to_string(header_columns));
      }
      const auto row_seed = parse_csv_unsigned(row_fields[4]);
      if (!row_seed || *row_seed != record.cell_seed) {
        throw std::invalid_argument(
            context + ": cell " + std::to_string(record.cell_index) +
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
    atomic_write_file(path, format_checkpoint_header(manifest, csv_header));
  }

  std::unique_ptr<CheckpointSink> sink = options.sink_factory
                                             ? options.sink_factory(path)
                                             : open_file_checkpoint_sink(path);

  // One run_sweep over the first max_cells unjournaled cells (the plan
  // pins every seed stream, so a sub-span keeps every seed), journaled
  // from the in-order delivery. A stop throws out of the delivery and
  // abandons the open cells; resume re-executes them.
  struct Stop {};
  const auto stop_requested = [&] {
    return options.interrupted && options.interrupted();
  };
  std::vector<std::size_t> pending;
  std::vector<SweepCell> todo;
  for (std::size_t j = 0; j < range; ++j) {
    if (rows[j].has_value()) continue;
    pending.push_back(j);
    if (options.max_cells == 0 || todo.size() < options.max_cells) {
      todo.push_back(plan.cells[j]);
    }
  }
  try {
    if (!pending.empty() && stop_requested()) throw Stop{};
    run_sweep(todo, sweep_options, [&](const SweepResult& cell_result) {
      const std::size_t j = pending[cell_result.cell_index];
      const std::size_t global = plan.cell_begin + j;
      if (options.on_cell_start) options.on_cell_start(global);
      CheckpointRecord record{.cell_index = global,
                              .cell_seed = cell_result.cell_seed,
                              .row = sweep_csv_row(cell_result)};
      // Append + fsync per cell: after this returns, a crash at any
      // later byte boundary preserves this cell.
      sink->append(format_checkpoint_record(record));
      sink->sync();
      rows[j] = std::move(record.row);
      ++result.executed_cells;
      if (options.on_cell_executed) options.on_cell_executed(global);
      if (cell_result.cell_index + 1 < pending.size() && stop_requested()) {
        throw Stop{};
      }
    });
  } catch (const Stop&) {
    result.status = CheckpointRunStatus::kInterrupted;
  }

  result.remaining_cells = pending.size() - result.executed_cells;
  if (result.remaining_cells == 0) {
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
