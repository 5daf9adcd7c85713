// Crash-safe checkpoint/resume for sweep shards: a durable per-cell
// progress journal in front of the deterministic shard pipeline
// (harness/shard.h), so a worker killed at any byte boundary — power
// loss, kill -9, disk full — loses at most the cell it was executing
// and can never leave a silently corrupt artifact.
//
// The journal is append-only. It opens with a header block recording
// the shard's full identity (grid fingerprint, master seed, trials,
// engine names, cell range, the sweep CSV header) and then carries one
// record per completed cell: the cell's global index, its derived
// seed, and its CSV row bytes — exactly the bytes write_sweep_csv
// would emit — each framed with a length prefix, an FNV-1a checksum,
// and an explicit end-of-record marker. The header block is created
// via atomic temp-file + rename + fsync and every record append is
// fsync'd, so after a crash the file is either a valid prefix of
// records or a valid prefix plus a detectably-torn tail; the reader
// distinguishes the two and *rejects* (naming file and byte offset)
// anything that is neither — a complete record with a wrong checksum
// is corruption, not a crash, and must never be replayed.
//
// Resume is bit-exact by construction: PR 5's determinism contract
// pins every cell's seed to its global grid index, so replaying
// journaled rows verbatim and executing only the remainder yields a
// CSV byte-identical to an uninterrupted run
// (tests/fault_injection_test.cpp proves this at every kill point).
//
/// Ownership: CheckpointJournal and CheckpointRunResult own plain
/// data. run_sweep_shard_checkpointed borrows its cells exactly as
/// run_sweep_shard does.
///
/// Thread-safety: the runner executes cells sequentially (each cell
/// parallelizes internally via run_sweep); a journal file must only
/// ever be appended to by one process at a time.
///
/// Determinism: the 5th leg of the determinism contract
/// (docs/ARCHITECTURE.md): journal replay is byte-identical to live
/// execution, so any interleaving of crashes and resumes converges to
/// the same artifact bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "harness/shard.h"

namespace crp::harness {

/// An I/O failure (open/write/fsync/rename) in the checkpoint or
/// artifact layer. Distinct from std::invalid_argument (validation:
/// corrupt or mismatched inputs) so callers — crp_shard's exit-code
/// taxonomy — can map the two to different retry policies.
struct IoError : std::runtime_error {
  explicit IoError(const std::string& message) : std::runtime_error(message) {}
};

/// Writes `contents` under `path` atomically: temp file in the same
/// directory, write, fsync, rename over the final name, fsync the
/// directory. A crash or disk-full at any point leaves either the old
/// file (or nothing) or the complete new file under `path` — never a
/// half-written artifact under the final name. Creates parent
/// directories as needed, and fsyncs the parent of every directory it
/// creates: a new directory is itself just an entry in *its* parent,
/// so without the chain fsync a power loss right after the rename
/// could forget the whole directory tree even though the file's own
/// directory entry was flushed. Throws IoError.
void atomic_write_file(const std::string& path, std::string_view contents);

/// The read counterpart: the whole file at `path`. `what` names the
/// file in the IoError an unopenable or unreadable file throws
/// ("cannot open <what> PATH: reason").
std::string read_whole_file(const std::string& path, const std::string& what);

/// Durability seam for journal appends. The production sink is an
/// O_APPEND file descriptor with fsync; tests inject sinks that fail,
/// short-write, or truncate at the Nth append to prove every recovery
/// path (tests/fault_injection_test.cpp).
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  /// Appends bytes at the end of the journal. Throws IoError.
  virtual void append(std::string_view bytes) = 0;
  /// Durably flushes everything appended so far (fsync). Throws IoError.
  virtual void sync() = 0;
};

/// The production sink: append-only writes + fsync on `sync()`. The
/// file must already exist (the journal header is created atomically
/// by atomic_write_file first).
std::unique_ptr<CheckpointSink> open_file_checkpoint_sink(
    const std::string& path);

/// Factory seam: given the journal path, an opened append sink.
using CheckpointSinkFactory =
    std::function<std::unique_ptr<CheckpointSink>(const std::string& path)>;

/// One journaled cell: its global grid index, the derived seed it ran
/// under, and its CSV row bytes (no trailing newline; may contain
/// embedded newlines inside quoted fields).
struct CheckpointRecord {
  std::size_t cell_index = 0;
  std::uint64_t cell_seed = 0;
  std::string row;
};

/// A parsed journal: the header identity plus the valid prefix of
/// records. `torn_bytes` is set when the file ends in a partially
/// written record (the crash case) — the bytes from `valid_bytes` to
/// EOF are the torn tail and must be truncated before appending.
struct CheckpointJournal {
  std::uint64_t grid_hash = 0;
  std::uint64_t master_seed = 0;
  std::size_t trials = 0;
  std::size_t total_cells = 0;
  std::size_t cell_begin = 0;
  std::size_t cell_end = 0;
  std::string engine;
  std::string cd_engine;
  std::string csv_header;
  std::vector<CheckpointRecord> records;
  /// Byte length of the valid prefix (header + complete records).
  std::size_t valid_bytes = 0;
  /// Bytes of detectably-torn tail after the valid prefix (0 = clean).
  std::size_t torn_bytes = 0;
};

/// Serialized journal pieces, exposed so tests (and external tools)
/// can compose or corrupt journals deliberately. The header block
/// embeds the sweep CSV header line; the record embeds the row bytes.
/// Both are self-framing (harness/framed_journal.h): length prefix +
/// FNV-1a checksum + end marker.
std::string format_checkpoint_header(const ShardManifest& identity,
                                     const std::string& csv_header);
std::string format_checkpoint_record(const CheckpointRecord& record);

/// Parses a journal file. The valid prefix is returned; a torn tail
/// (file ends inside a record) is reported via `torn_bytes`, not an
/// error. Everything else — a malformed or checksum-mismatched
/// complete record, a duplicate or out-of-range cell index, any
/// header damage — throws std::invalid_argument naming `path` and the
/// byte offset of the offending record. Throws IoError when the file
/// cannot be read.
CheckpointJournal read_checkpoint_journal(const std::string& path);

/// Why run_sweep_shard_checkpointed returned.
enum class CheckpointRunStatus {
  kCompleted,    ///< every cell in the range is journaled; csv is final
  kInterrupted,  ///< stopped between cells (signal / cell budget);
                 ///< journal holds the completed prefix, resume later
};

struct CheckpointRunOptions {
  /// Journal file path (required).
  std::string journal_path;
  /// false: the journal must not exist yet (fresh run). true: it must
  /// exist and validate against the plan (resume).
  bool resume = false;
  /// Polled between cells; return true to stop cleanly after the
  /// in-flight cell (the SIGINT/SIGTERM hook — the handler sets a
  /// flag, the runner finishes the cell, flushes, and returns
  /// kInterrupted).
  std::function<bool()> interrupted;
  /// Stop after executing this many cells in this session (0 =
  /// unlimited). Scheduler aid: bounded work quanta per invocation.
  std::size_t max_cells = 0;
  /// Sink factory; null = open_file_checkpoint_sink.
  CheckpointSinkFactory sink_factory;
  /// Fault-injection seams (null = no-op): called with the *global*
  /// grid index of each freshly executed cell — on_cell_start just
  /// before the cell runs, on_cell_executed right after its record is
  /// durably appended. crp_shard wires these to the CRP_FAULT_* env
  /// vars so supervisor tests can drive real subprocess failures
  /// deterministically; replayed cells never trigger them.
  std::function<void(std::size_t)> on_cell_start;
  std::function<void(std::size_t)> on_cell_executed;
};

/// The outcome of a checkpointed shard session.
struct CheckpointRunResult {
  CheckpointRunStatus status = CheckpointRunStatus::kCompleted;
  /// The shard's manifest (csv field left empty for the caller), with
  /// cell_seeds covering the full range — valid for both outcomes.
  ShardManifest manifest;
  /// The complete artifact CSV (header + rows in cell order), only
  /// when status == kCompleted; empty otherwise.
  std::string csv;
  std::size_t replayed_cells = 0;  ///< taken verbatim from the journal
  std::size_t executed_cells = 0;  ///< run live this session
  std::size_t remaining_cells = 0;  ///< still unjournaled (0 iff completed)
};

/// run_sweep_shard with a durable journal: plans the shard, validates
/// or creates the journal, replays journaled cells verbatim, executes
/// the remainder cell by cell (appending + fsyncing one record per
/// completed cell), and assembles the artifact CSV. The result CSV is
/// byte-identical to write_sweep_csv over run_sweep_shard(...).results
/// regardless of how many crash/resume cycles preceded it.
///
/// Resume validation: journal header vs the plan (grid fingerprint,
/// master seed, trials, engine names, range, CSV header) and every
/// record's seed vs the seed derived from its global index; a torn
/// tail is truncated before appending. Mismatches throw
/// std::invalid_argument; I/O failures throw IoError.
CheckpointRunResult run_sweep_shard_checkpointed(
    std::span<const SweepCell> cells, const ShardOptions& shard_options,
    const SweepOptions& sweep_options, const CheckpointRunOptions& options);

}  // namespace crp::harness
