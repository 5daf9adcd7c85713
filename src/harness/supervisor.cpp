#include "harness/supervisor.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "harness/checkpoint.h"
#include "harness/csv.h"
#include "harness/framed_journal.h"
#include "harness/hash.h"

namespace crp::harness {

namespace {

constexpr const char* kSupervisorMagic = "crp-supervisor-journal-v1";
constexpr const char* kQuarantineTag = "quarantine";
constexpr const char* kBisectTag = "bisect";

/// Growth factor of the nominal backoff per failed attempt.
constexpr double kBackoffMultiplier = 2.0;
/// Fleet poll cadence while workers run.
constexpr std::int64_t kPollIntervalMs = 25;

class SteadyClock final : public Clock {
 public:
  SteadyClock() : start_(std::chrono::steady_clock::now()) {}
  std::int64_t now_ms() override {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  void sleep_ms(std::int64_t ms) override {
    if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

std::unique_ptr<Clock> steady_clock_source() {
  return std::make_unique<SteadyClock>();
}

// ---------------------------------------------------------------------------
// RetryPolicy

RetryPolicy::RetryPolicy(const RetryPolicyConfig& config) : config_(config) {
  const auto fail = [](const std::string& message) {
    throw std::invalid_argument("RetryPolicy: " + message);
  };
  const auto at_most_max_millis = [&](std::int64_t value, const char* name) {
    if (value > kMaxMillis) {
      fail(std::string(name) + " must be at most " +
           std::to_string(kMaxMillis) + " ms");
    }
  };
  if (config_.base_backoff_ms < 0) fail("base_backoff_ms must be >= 0");
  at_most_max_millis(config_.base_backoff_ms, "base_backoff_ms");
  if (config_.max_backoff_ms < config_.base_backoff_ms) {
    fail("max_backoff_ms must be >= base_backoff_ms");
  }
  at_most_max_millis(config_.max_backoff_ms, "max_backoff_ms");
  if (!(config_.jitter_fraction >= 0.0) || config_.jitter_fraction >= 1.0) {
    fail("jitter_fraction must be in [0, 1)");
  }
  if (config_.worker_timeout_ms < 0) fail("worker_timeout_ms must be >= 0");
  at_most_max_millis(config_.worker_timeout_ms, "worker_timeout_ms");
  if (config_.kill_grace_ms < 0) fail("kill_grace_ms must be >= 0");
  at_most_max_millis(config_.kill_grace_ms, "kill_grace_ms");
}

std::int64_t RetryPolicy::backoff_ms(std::size_t attempt,
                                     std::size_t cell_begin,
                                     std::size_t cell_end) const {
  if (attempt == 0) {
    throw std::invalid_argument("RetryPolicy::backoff_ms: attempts are "
                                "1-based");
  }
  double nominal = static_cast<double>(config_.base_backoff_ms);
  const double cap = static_cast<double>(config_.max_backoff_ms);
  for (std::size_t k = 1; k < attempt && nominal < cap; ++k) {
    nominal *= kBackoffMultiplier;
  }
  nominal = std::min(nominal, cap);
  if (config_.jitter_fraction > 0.0) {
    // Deterministic jitter: FNV-1a over (seed, range, attempt) mapped
    // to [1 - f, 1 + f). No global RNG, no clock — two supervisors
    // with the same config compute the same schedule.
    Fnv1a h;
    h.u64(config_.jitter_seed);
    h.u64(cell_begin);
    h.u64(cell_end);
    h.u64(attempt);
    const double unit = static_cast<double>(h.state >> 11) * 0x1p-53;
    nominal *= 1.0 - config_.jitter_fraction +
               2.0 * config_.jitter_fraction * unit;
  }
  return static_cast<std::int64_t>(std::llround(nominal));
}

namespace {

Decision escalate(const JobState& state) {
  if (state.cell_end - state.cell_begin > 1) return {ActionKind::kBisect, 0};
  return {ActionKind::kQuarantine, 0};
}

}  // namespace

Decision RetryPolicy::decide(JobState& state, WorkerOutcome outcome,
                             bool progressed) const {
  if (state.cell_end <= state.cell_begin) {
    throw std::invalid_argument("RetryPolicy::decide: empty cell range");
  }
  // Progress is the health signal: a range is only escalated for
  // failing repeatedly *without* journaling anything new.
  if (progressed) state.attempts = 0;
  switch (outcome) {
    case WorkerOutcome::kSuccess:
      return {ActionKind::kDone, 0};
    case WorkerOutcome::kValidation:
      // Retrying identical inputs cannot change a validation verdict;
      // isolate the poison instead.
      return escalate(state);
    case WorkerOutcome::kResumable:
      // A clean stop with a flushed journal: resume immediately. Only
      // a stop that made no progress counts against the budget (a
      // worker stuck in an exit-75 loop must not spin forever).
      if (!progressed && ++state.attempts > config_.retry_budget) {
        return escalate(state);
      }
      return {ActionKind::kRetryNow, 0};
    case WorkerOutcome::kIoError:
    case WorkerOutcome::kCrash:
    case WorkerOutcome::kTimeout:
      if (++state.attempts > config_.retry_budget) return escalate(state);
      return {ActionKind::kRetryAfter,
              backoff_ms(state.attempts, state.cell_begin, state.cell_end)};
  }
  throw std::invalid_argument("RetryPolicy::decide: unknown outcome");
}

TimeoutAction RetryPolicy::timeout_action(
    std::int64_t now_ms, std::int64_t started_ms,
    std::optional<std::int64_t> term_sent_ms) const {
  if (term_sent_ms.has_value()) {
    return now_ms - *term_sent_ms >= config_.kill_grace_ms
               ? TimeoutAction::kSigkill
               : TimeoutAction::kNone;
  }
  if (config_.worker_timeout_ms > 0 &&
      now_ms - started_ms >= config_.worker_timeout_ms) {
    return TimeoutAction::kSigterm;
  }
  return TimeoutAction::kNone;
}

std::size_t bisect_midpoint(std::size_t cell_begin, std::size_t cell_end) {
  if (cell_end - cell_begin < 2) {
    throw std::invalid_argument(
        "bisect_midpoint: range [" + std::to_string(cell_begin) + ", " +
        std::to_string(cell_end) + ") has fewer than two cells");
  }
  return cell_begin + (cell_end - cell_begin) / 2;
}

std::vector<MissingCellRange> subtract_quarantined(
    std::size_t cell_begin, std::size_t cell_end,
    std::span<const std::size_t> quarantined_sorted) {
  std::vector<MissingCellRange> out;
  std::size_t run_begin = cell_begin;
  for (std::size_t cell = cell_begin; cell < cell_end; ++cell) {
    const bool quarantined = std::binary_search(
        quarantined_sorted.begin(), quarantined_sorted.end(), cell);
    if (quarantined) {
      if (run_begin < cell) out.push_back({run_begin, cell});
      run_begin = cell + 1;
    }
  }
  if (run_begin < cell_end) out.push_back({run_begin, cell_end});
  return out;
}

// ---------------------------------------------------------------------------
// Supervisor journal

namespace {

/// The field order is fixed by the journals already on disk: the
/// worker count hashes between total_cells and the engines.
std::uint64_t supervisor_header_checksum(const SupervisorJournal& identity) {
  Fnv1a h;
  h.u64(identity.grid_hash);
  h.u64(identity.master_seed);
  h.u64(identity.trials);
  h.u64(identity.total_cells);
  h.u64(identity.workers);
  h.str(identity.engine);
  h.str(identity.cd_engine);
  return h.state;
}

std::uint64_t quarantine_checksum(const QuarantinedCell& cell) {
  Fnv1a h;
  h.u64(cell.cell_index);
  h.u64(cell.attempts);
  h.str(cell.reason);
  return h.state;
}

std::uint64_t bisect_checksum(const BisectRecord& record) {
  Fnv1a h;
  h.u64(record.cell_begin);
  h.u64(record.mid);
  h.u64(record.cell_end);
  return h.state;
}

}  // namespace

std::string format_supervisor_header(const SupervisorJournal& identity) {
  return journal_line(
      {kSupervisorMagic, hex_u64(identity.grid_hash),
       hex_u64(identity.master_seed), std::to_string(identity.trials),
       std::to_string(identity.total_cells), std::to_string(identity.workers),
       identity.engine, identity.cd_engine,
       hex_u64(supervisor_header_checksum(identity))});
}

std::string format_supervisor_quarantine(const QuarantinedCell& cell) {
  return journal_block(
      {kQuarantineTag, std::to_string(cell.cell_index),
       std::to_string(cell.attempts), std::to_string(cell.reason.size()),
       hex_u64(quarantine_checksum(cell))},
      cell.reason);
}

std::string format_supervisor_bisect(const BisectRecord& record) {
  // Empty payload; the end marker still seals the record.
  return journal_block(
      {kBisectTag, std::to_string(record.cell_begin),
       std::to_string(record.mid), std::to_string(record.cell_end),
       hex_u64(bisect_checksum(record))},
      {});
}

SupervisorJournal read_supervisor_journal(const std::string& path) {
  FramedJournalReader reader("supervisor", path);
  SupervisorJournal journal;

  const auto fields = reader.header(kSupervisorMagic, 9);
  journal.grid_hash = reader.field_hex(fields[1], 0, "grid hash");
  journal.master_seed = reader.field_hex(fields[2], 0, "master seed");
  journal.trials = reader.field_uint(fields[3], 0, "trials");
  journal.total_cells = reader.field_uint(fields[4], 0, "total cell count");
  journal.workers = reader.field_uint(fields[5], 0, "worker count");
  journal.engine = fields[6];
  journal.cd_engine = fields[7];
  const std::uint64_t header_crc = reader.field_hex(fields[8], 0, "checksum");
  const std::uint64_t computed = supervisor_header_checksum(journal);
  if (computed != header_crc) {
    reader.fail(0, "header checksum mismatch — expected " +
                       hex_u64(header_crc) + ", computed " +
                       hex_u64(computed));
  }

  std::vector<bool> quarantined_seen(journal.total_cells, false);
  const JournalExtent extent = reader.read_records(
      [&](const FramedJournalReader::Record& line) {
        const std::size_t at = line.offset;
        const std::string& tag = line.fields[0];
        if (tag != kQuarantineTag && tag != kBisectTag) {
          reader.fail(at, "unknown record tag \"" + tag + "\"");
        }
        if (line.fields.size() != 5) {
          reader.fail(at, "malformed " + tag + " record \"" +
                              std::string(line.line) + "\"");
        }
        if (tag == kQuarantineTag) {
          QuarantinedCell cell;
          cell.cell_index = reader.field_uint(line.fields[1], at, "cell index");
          cell.attempts = reader.field_uint(line.fields[2], at, "attempts");
          const std::size_t reason_len =
              reader.field_uint(line.fields[3], at, "reason length");
          const std::uint64_t crc =
              reader.field_hex(line.fields[4], at, "record checksum");
          auto reason = reader.payload(at, reason_len);
          if (!reason) return false;
          cell.reason = std::move(*reason);
          if (quarantine_checksum(cell) != crc) {
            reader.fail(at, "quarantine record checksum mismatch for cell " +
                                std::to_string(cell.cell_index));
          }
          if (cell.cell_index >= journal.total_cells) {
            reader.fail(at, "quarantined cell " +
                                std::to_string(cell.cell_index) +
                                " is outside the grid of " +
                                std::to_string(journal.total_cells) +
                                " cells");
          }
          if (quarantined_seen[cell.cell_index]) {
            reader.fail(at, "duplicate quarantine record for cell " +
                                std::to_string(cell.cell_index));
          }
          quarantined_seen[cell.cell_index] = true;
          journal.quarantined.push_back(std::move(cell));
          return true;
        }
        BisectRecord record;
        record.cell_begin = reader.field_uint(line.fields[1], at, "cell_begin");
        record.mid = reader.field_uint(line.fields[2], at, "mid");
        record.cell_end = reader.field_uint(line.fields[3], at, "cell_end");
        const std::uint64_t crc =
            reader.field_hex(line.fields[4], at, "record checksum");
        if (!reader.payload(at, 0)) return false;
        if (bisect_checksum(record) != crc) {
          reader.fail(at, "bisect record checksum mismatch for [" +
                              std::to_string(record.cell_begin) + ", " +
                              std::to_string(record.cell_end) + ")");
        }
        if (record.cell_begin >= record.mid || record.mid >= record.cell_end ||
            record.cell_end > journal.total_cells) {
          reader.fail(at, "bisect record [" +
                              std::to_string(record.cell_begin) + ", " +
                              std::to_string(record.mid) + ", " +
                              std::to_string(record.cell_end) +
                              ") is not a strict split inside the grid");
        }
        journal.bisections.push_back(record);
        return true;
      });
  journal.valid_bytes = extent.valid_bytes;
  journal.torn_bytes = extent.torn_bytes;
  return journal;
}

// ---------------------------------------------------------------------------
// Quarantine report

void write_quarantine_report(std::ostream& out, std::uint64_t grid_hash,
                             std::size_t total_cells,
                             std::span<const QuarantinedCell> quarantined) {
  out << "{\n"
      << "  \"format\": \"crp-quarantine-v1\",\n"
      << "  \"grid_hash\": \"" << hex_u64(grid_hash) << "\",\n"
      << "  \"total_cells\": " << total_cells << ",\n"
      << "  \"quarantined_cells\": " << quarantined.size() << ",\n"
      << "  \"quarantined\": [";
  for (std::size_t i = 0; i < quarantined.size(); ++i) {
    const QuarantinedCell& cell = quarantined[i];
    out << (i == 0 ? "\n" : ",\n")
        << "    {\n"
        << "      \"cell_index\": " << cell.cell_index << ",\n"
        << "      \"attempts\": " << cell.attempts << ",\n"
        << "      \"reason\": \"" << json_escape(cell.reason) << "\"\n"
        << "    }";
  }
  out << (quarantined.empty() ? "]\n" : "\n  ]\n") << "}\n";
}

// ---------------------------------------------------------------------------
// The fleet

namespace {

namespace fs = std::filesystem;

/// One unit of fleet work: a contiguous cell range to bring to a
/// completed manifest.
struct FleetJob {
  JobState state;
  std::int64_t ready_at = 0;
};

struct RunningWorker {
  JobState state;
  pid_t pid = -1;
  std::int64_t started_ms = 0;
  std::optional<std::int64_t> term_sent_ms;
  bool timed_out = false;  ///< the supervisor killed it over its budget
  std::uintmax_t journal_bytes_at_spawn = 0;
  std::string journal_path;
};

std::string range_text(const JobState& state) {
  // Appended, not "[" + ...: GCC 12 misreports that form (-Wrestrict).
  std::string text = "[";
  text += std::to_string(state.cell_begin) + ", " +
          std::to_string(state.cell_end) + ")";
  return text;
}

std::string outcome_text(WorkerOutcome outcome, int wait_status) {
  switch (outcome) {
    case WorkerOutcome::kSuccess:
      return "completed (exit 0)";
    case WorkerOutcome::kResumable:
      return "stopped cleanly (exit 75)";
    case WorkerOutcome::kIoError:
      return "I/O error (exit 4)";
    case WorkerOutcome::kValidation:
      return "validation error (exit 3)";
    case WorkerOutcome::kTimeout:
      return "timed out (killed by the supervisor)";
    case WorkerOutcome::kCrash:
      if (WIFSIGNALED(wait_status)) {
        return "killed by signal " + std::to_string(WTERMSIG(wait_status));
      }
      return "crashed (exit " + std::to_string(WEXITSTATUS(wait_status)) +
             ")";
  }
  return "unknown outcome";
}

/// Everything run_supervisor tracks across the fleet's lifetime.
struct Fleet {
  const SuperviseOptions& options;
  const RetryPolicy policy;
  Clock* clock;
  std::ostream* log;
  fs::path dir;

  std::deque<FleetJob> pending{};
  std::vector<RunningWorker> running{};
  /// Replayed + live bisection tree: range -> midpoint.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> bisected{};
  std::vector<QuarantinedCell> quarantined{};
  std::unique_ptr<CheckpointSink> journal_sink{};
  std::size_t workers_spawned = 0;

  void narrate(const std::string& message) const {
    if (log != nullptr) *log << "crp_shard supervise: " << message << "\n";
  }

  bool is_quarantined(std::size_t cell) const {
    return std::any_of(quarantined.begin(), quarantined.end(),
                       [cell](const QuarantinedCell& q) {
                         return q.cell_index == cell;
                       });
  }

  std::vector<std::size_t> quarantined_sorted() const {
    std::vector<std::size_t> cells;
    cells.reserve(quarantined.size());
    for (const QuarantinedCell& q : quarantined) cells.push_back(q.cell_index);
    std::sort(cells.begin(), cells.end());
    return cells;
  }

  /// Enqueues the job(s) for [begin, end): replayed bisections route
  /// to their children, quarantined single cells are skipped, and
  /// ranges whose manifest + CSV already exist are already done —
  /// exactly what makes `supervise --resume` idempotent.
  void create_job(std::size_t begin, std::size_t end, std::int64_t ready_at) {
    if (begin >= end) return;
    const auto split = bisected.find({begin, end});
    if (split != bisected.end()) {
      create_job(begin, split->second, ready_at);
      create_job(split->second, end, ready_at);
      return;
    }
    if (end - begin == 1 && is_quarantined(begin)) return;
    const std::string stem =
        shard_artifact_stem({.cell_begin = begin, .cell_end = end});
    if (fs::exists(dir / (stem + ".manifest.json")) &&
        fs::exists(dir / (stem + ".csv"))) {
      narrate("cells [" + std::to_string(begin) + ", " + std::to_string(end) +
              ") already have a completed manifest — skipping");
      return;
    }
    pending.push_back(
        {JobState{.cell_begin = begin, .cell_end = end}, ready_at});
  }

  void journal_append(const std::string& record) {
    journal_sink->append(record);
    journal_sink->sync();
  }

  void quarantine(const JobState& state, const std::string& reason) {
    QuarantinedCell cell{.cell_index = state.cell_begin,
                        .attempts = state.attempts,
                        .reason = reason};
    journal_append(format_supervisor_quarantine(cell));
    narrate("quarantined cell " + std::to_string(cell.cell_index) + ": " +
            reason);
    quarantined.push_back(std::move(cell));
  }

  void bisect(const JobState& state, std::int64_t now) {
    const std::size_t mid = bisect_midpoint(state.cell_begin, state.cell_end);
    const BisectRecord record{.cell_begin = state.cell_begin,
                              .mid = mid,
                              .cell_end = state.cell_end};
    journal_append(format_supervisor_bisect(record));
    bisected[{state.cell_begin, state.cell_end}] = mid;
    narrate("bisecting cells " + range_text(state) + " at " +
            std::to_string(mid) + " to isolate the failure");
    // create_job re-consults the map, so the parent range routes
    // straight to its two halves.
    create_job(state.cell_begin, state.cell_end, now);
  }

  void spawn(FleetJob job, std::int64_t now) {
    const std::string stem = shard_artifact_stem(
        {.cell_begin = job.state.cell_begin, .cell_end = job.state.cell_end});
    const std::string journal_path = (dir / (stem + ".journal")).string();
    std::error_code ec;
    const bool has_journal = fs::exists(journal_path, ec);
    const std::uintmax_t journal_bytes =
        has_journal ? fs::file_size(journal_path, ec) : 0;
    const std::string mode = has_journal ? "resume" : "run";

    std::vector<std::string> args;
    args.push_back(options.exe);
    args.push_back(mode);
    args.insert(args.end(), options.worker_flags.begin(),
                options.worker_flags.end());
    args.push_back("--cells");
    args.push_back(std::to_string(job.state.cell_begin) + ":" +
                   std::to_string(job.state.cell_end));
    args.push_back("--out-dir");
    args.push_back(options.out_dir);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
      throw IoError("cannot fork worker for cells " + range_text(job.state) +
                    ": " + std::strerror(errno));
    }
    if (pid == 0) {
      ::execv(options.exe.c_str(), argv.data());
      // Unreachable on success; exec failure is a supervisor
      // misconfiguration (bad exe path), not a worker fault.
      ::perror("crp_shard supervise: execv");
      // crp-lint: allow(exit-taxonomy) -- 127 is the shell/POSIX
      // exec-failure convention, deliberately outside the worker
      // taxonomy so handle_exit aborts supervision loudly instead of
      // retrying a misconfigured exe path.
      ::_exit(127);
    }
    ++workers_spawned;
    narrate("worker " + std::to_string(pid) + " " + mode + " cells " +
            range_text(job.state) + " (attempt " +
            std::to_string(job.state.attempts + 1) + ")");
    running.push_back({job.state, pid, now, std::nullopt, false,
                       journal_bytes, journal_path});
  }

  /// Classifies a waitpid status. Exit codes outside the documented
  /// taxonomy (usage, internal, exec failure) are supervisor bugs —
  /// retrying them would loop forever, so they abort supervision.
  WorkerOutcome classify(const RunningWorker& worker, int status) const {
    if (worker.timed_out) return WorkerOutcome::kTimeout;
    if (WIFSIGNALED(status)) return WorkerOutcome::kCrash;
    switch (WEXITSTATUS(status)) {
      case kExitOk:
        return WorkerOutcome::kSuccess;
      case kExitResumable:
        return WorkerOutcome::kResumable;
      case kExitIo:
        return WorkerOutcome::kIoError;
      case kExitValidation:
        return WorkerOutcome::kValidation;
      default:
        throw std::runtime_error(
            "crp_shard supervise: worker for cells " +
            range_text(worker.state) + " exited with code " +
            std::to_string(WEXITSTATUS(status)) +
            " (usage/internal — not retryable); aborting supervision");
    }
  }

  void handle_exit(RunningWorker worker, int status, std::int64_t now) {
    const WorkerOutcome outcome = classify(worker, status);
    std::error_code ec;
    const std::uintmax_t journal_bytes =
        fs::exists(worker.journal_path, ec)
            ? fs::file_size(worker.journal_path, ec)
            : 0;
    const bool progressed = journal_bytes > worker.journal_bytes_at_spawn;
    const std::string what = outcome_text(outcome, status);
    JobState state = worker.state;
    const Decision decision = policy.decide(state, outcome, progressed);
    switch (decision.kind) {
      case ActionKind::kDone:
        narrate("worker " + std::to_string(worker.pid) + " cells " +
                range_text(state) + " " + what);
        break;
      case ActionKind::kRetryNow:
        narrate("worker " + std::to_string(worker.pid) + " cells " +
                range_text(state) + " " + what + "; resuming immediately");
        pending.push_back({state, now});
        break;
      case ActionKind::kRetryAfter:
        narrate("worker " + std::to_string(worker.pid) + " cells " +
                range_text(state) + " " + what + "; retry " +
                std::to_string(state.attempts) + "/" +
                std::to_string(policy.config().retry_budget) + " in " +
                std::to_string(decision.delay_ms) + " ms");
        pending.push_back({state, now + decision.delay_ms});
        break;
      case ActionKind::kBisect:
        narrate("worker " + std::to_string(worker.pid) + " cells " +
                range_text(state) + " " + what + "; retry budget exhausted");
        bisect(state, now);
        break;
      case ActionKind::kQuarantine:
        quarantine(state,
                   outcome == WorkerOutcome::kValidation
                       ? what
                       : what + " after " + std::to_string(state.attempts) +
                             " no-progress attempt(s)");
        break;
    }
  }
};

}  // namespace

SuperviseResult run_supervisor(std::span<const SweepCell> cells,
                               const SweepOptions& sweep_options,
                               const SuperviseOptions& options) {
  if (options.workers == 0) {
    throw std::invalid_argument("supervise: workers must be >= 1");
  }
  if (options.exe.empty() || options.out.empty() || options.out_dir.empty()) {
    throw std::invalid_argument(
        "supervise: exe, out, and out_dir are all required");
  }
  std::unique_ptr<Clock> owned_clock;
  Clock* clock = options.clock;
  if (clock == nullptr) {
    owned_clock = steady_clock_source();
    clock = owned_clock.get();
  }

  Fleet fleet{options, RetryPolicy(options.retry), clock, options.log,
              fs::path(options.out_dir)};

  // ---- identity + state journal ----
  SupervisorJournal identity;
  static_cast<RunIdentity&>(identity) =
      RunIdentity(grid_fingerprint(cells), cells.size(), sweep_options);
  identity.workers = options.workers;

  const std::string journal_path =
      (fleet.dir / "supervisor.journal").string();
  const bool journal_exists = fs::exists(journal_path);
  if (options.resume) {
    if (!journal_exists) {
      throw std::invalid_argument(
          "supervise resume: journal " + journal_path +
          " does not exist — nothing to resume (run fresh instead)");
    }
    const SupervisorJournal journal = read_supervisor_journal(journal_path);
    const std::string context = "supervise resume " + journal_path;
    check_same_run(identity, journal, context);
    if (journal.workers != identity.workers) {
      throw std::invalid_argument(
          context + ": worker count " + std::to_string(journal.workers) +
          " != " + std::to_string(identity.workers) +
          " — the worker count fixes the initial shard split; resume with "
          "the same --workers");
    }
    truncate_torn_tail(journal_path, journal.valid_bytes, journal.torn_bytes);
    fleet.quarantined = journal.quarantined;
    for (const BisectRecord& record : journal.bisections) {
      fleet.bisected[{record.cell_begin, record.cell_end}] = record.mid;
    }
    fleet.narrate("resuming: " + std::to_string(journal.quarantined.size()) +
                  " quarantined cell(s), " +
                  std::to_string(journal.bisections.size()) +
                  " recorded bisection(s)");
  } else {
    if (journal_exists) {
      throw std::invalid_argument(
          "supervise: journal " + journal_path +
          " already exists — resume it (--resume) or remove the directory "
          "before starting fresh");
    }
    atomic_write_file(journal_path, format_supervisor_header(identity));
  }
  fleet.journal_sink = open_file_checkpoint_sink(journal_path);

  // ---- initial fleet: one contiguous range per worker ----
  for (std::size_t i = 0; i < options.workers; ++i) {
    ShardOptions shard;
    shard.shard_index = i;
    shard.shard_count = options.workers;
    const ShardPlan plan = plan_shards(cells, shard);
    fleet.create_job(plan.cell_begin, plan.cell_end, clock->now_ms());
  }

  SuperviseResult result;
  result.total_cells = cells.size();

  // ---- fleet loop ----
  bool stopping = false;
  std::vector<MissingCellRange> last_backfill;
  while (true) {
    const std::int64_t now = clock->now_ms();

    if (!stopping && options.stop_requested && options.stop_requested()) {
      stopping = true;
      fleet.narrate("stop requested — signalling " +
                    std::to_string(fleet.running.size()) +
                    " running worker(s) and flushing");
      for (RunningWorker& worker : fleet.running) {
        ::kill(worker.pid, SIGTERM);
        worker.term_sent_ms = now;
      }
    }

    // Reap exited workers and apply the policy to each outcome.
    for (std::size_t i = 0; i < fleet.running.size();) {
      int status = 0;
      const pid_t reaped =
          ::waitpid(fleet.running[i].pid, &status, WNOHANG);
      if (reaped == fleet.running[i].pid) {
        RunningWorker worker = std::move(fleet.running[i]);
        fleet.running.erase(fleet.running.begin() +
                            static_cast<std::ptrdiff_t>(i));
        fleet.handle_exit(std::move(worker), status, now);
      } else {
        ++i;
      }
    }

    // Timeout ladder: SIGTERM past the budget, SIGKILL past the grace
    // period (and the same grace escalation covers a graceful stop).
    for (RunningWorker& worker : fleet.running) {
      switch (fleet.policy.timeout_action(now, worker.started_ms,
                                          worker.term_sent_ms)) {
        case TimeoutAction::kNone:
          break;
        case TimeoutAction::kSigterm:
          fleet.narrate("worker " + std::to_string(worker.pid) + " cells " +
                        range_text(worker.state) + " exceeded " +
                        std::to_string(
                            fleet.policy.config().worker_timeout_ms) +
                        " ms — sending SIGTERM");
          worker.timed_out = true;
          worker.term_sent_ms = now;
          ::kill(worker.pid, SIGTERM);
          break;
        case TimeoutAction::kSigkill:
          fleet.narrate("worker " + std::to_string(worker.pid) + " cells " +
                        range_text(worker.state) +
                        " ignored SIGTERM for " +
                        std::to_string(fleet.policy.config().kill_grace_ms) +
                        " ms — sending SIGKILL");
          if (!stopping) worker.timed_out = true;
          worker.term_sent_ms = now;  // restart the grace window
          ::kill(worker.pid, SIGKILL);
          break;
      }
    }

    if (stopping) {
      if (fleet.running.empty()) {
        result.status = SuperviseStatus::kInterrupted;
        result.quarantined = fleet.quarantined;
        result.workers_spawned = fleet.workers_spawned;
        fleet.narrate(
            "stopped cleanly; supervisor journal is durable — continue "
            "with `crp_shard supervise --resume` and the same flags");
        return result;
      }
      clock->sleep_ms(kPollIntervalMs);
      continue;
    }

    // Spawn ready jobs up to the fleet width.
    for (std::size_t i = 0;
         i < fleet.pending.size() && fleet.running.size() < options.workers;) {
      if (fleet.pending[i].ready_at <= now) {
        FleetJob job = fleet.pending[i];
        fleet.pending.erase(fleet.pending.begin() +
                            static_cast<std::ptrdiff_t>(i));
        fleet.spawn(job, now);
      } else {
        ++i;
      }
    }

    if (fleet.running.empty() && fleet.pending.empty()) {
      // Fleet drained: merge what exists, turn the missing ranges
      // into backfill jobs, and finish once only quarantined cells
      // are absent.
      std::vector<std::string> manifest_paths;
      std::error_code ec;
      for (const auto& entry : fs::directory_iterator(fleet.dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > 14 &&
            name.compare(name.size() - 14, 14, ".manifest.json") == 0) {
          manifest_paths.push_back(entry.path().string());
        }
      }
      if (ec) {
        throw IoError("cannot scan " + fleet.dir.string() + ": " +
                      ec.message());
      }
      std::sort(manifest_paths.begin(), manifest_paths.end());
      if (manifest_paths.empty()) {
        throw std::runtime_error(
            "crp_shard supervise: the fleet drained without producing a "
            "single shard manifest — every range failed; see the quarantine "
            "journal " + journal_path);
      }
      std::vector<ShardArtifact> artifacts;
      artifacts.reserve(manifest_paths.size());
      for (const std::string& path : manifest_paths) {
        artifacts.push_back(read_shard_artifact_file(path));
      }
      std::ostringstream merged;
      const PartialMergeReport report = merge_shard_csvs_partial(
          merged, std::span<const ShardArtifact>(artifacts));

      const std::vector<std::size_t> quarantined_cells =
          fleet.quarantined_sorted();
      std::vector<MissingCellRange> backfill;
      for (const MissingCellRange& missing : report.missing) {
        const auto runs = subtract_quarantined(
            missing.begin, missing.end,
            std::span<const std::size_t>(quarantined_cells));
        backfill.insert(backfill.end(), runs.begin(), runs.end());
      }

      if (backfill.empty()) {
        atomic_write_file(options.out, merged.str());
        std::ostringstream report_json;
        write_quarantine_report(
            report_json, identity.grid_hash, identity.total_cells,
            std::span<const QuarantinedCell>(fleet.quarantined));
        const std::string report_path = options.out + ".quarantine.json";
        atomic_write_file(report_path, report_json.str());
        fleet.narrate("converged: " + std::to_string(report.present_cells) +
                      "/" + std::to_string(report.total_cells) +
                      " cells merged into " + options.out + ", " +
                      std::to_string(fleet.quarantined.size()) +
                      " quarantined (report " + report_path + ")");
        result.status = SuperviseStatus::kCompleted;
        result.quarantined = fleet.quarantined;
        std::sort(result.quarantined.begin(), result.quarantined.end(),
                  [](const QuarantinedCell& a, const QuarantinedCell& b) {
                    return a.cell_index < b.cell_index;
                  });
        result.workers_spawned = fleet.workers_spawned;
        return result;
      }

      // A backfill round that re-derives exactly the previous round's
      // work-list made no progress — refuse to loop forever.
      if (!last_backfill.empty() && backfill.size() == last_backfill.size() &&
          std::equal(backfill.begin(), backfill.end(), last_backfill.begin(),
                     [](const MissingCellRange& a, const MissingCellRange& b) {
                       return a.begin == b.begin && a.end == b.end;
                     })) {
        throw std::runtime_error(
            "crp_shard supervise: backfill round made no progress (still "
            "missing the same cell ranges) — aborting instead of looping");
      }
      last_backfill = backfill;
      ++result.backfill_rounds;
      std::string ranges;
      for (const MissingCellRange& range : backfill) {
        ranges += " [" + std::to_string(range.begin) + ", " +
                  std::to_string(range.end) + ")";
      }
      fleet.narrate("merge found " + std::to_string(report.present_cells) +
                    "/" + std::to_string(report.total_cells) +
                    " cells present — backfilling" + ranges);
      for (const MissingCellRange& range : backfill) {
        fleet.create_job(range.begin, range.end, now);
      }
      continue;
    }

    clock->sleep_ms(kPollIntervalMs);
  }
}

}  // namespace crp::harness
