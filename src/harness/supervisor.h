// Self-healing sweep supervisor: a long-running driver that keeps a
// fleet of journaled `crp_shard` worker subprocesses healthy until the
// merged sweep CSV exists — the service layer the ROADMAP's
// "adaptively-allocated sweep service" item calls for, built on the
// crash-safe shard substrate (harness/checkpoint.h, harness/shard.h).
//
// The supervisor plans the grid into one contiguous cell range per
// worker, spawns each range as a `crp_shard run --cells B:E`
// subprocess (re-exec of the same binary), and reacts to the
// documented exit-code taxonomy:
//
//   0   done                 range complete, manifest on disk
//   75  resumable interrupt  respawn `resume` immediately (clean stop;
//                            the journal is flushed)
//   4   I/O error            retry with deterministic exponential
//                            backoff + seeded jitter
//   3   validation error     permanent for this range — bisect it to
//                            isolate the poisoned cell(s)
//   killed / crashed         respawn `resume` after a backoff step;
//                            the journal's valid prefix survives
//
// A per-worker wall-clock timeout turns hangs into failures: SIGTERM
// first (the worker finishes its in-flight cell and exits 75), SIGKILL
// after a grace period. Ranges that exhaust their retry budget are
// bisected; a single cell that still fails lands on the quarantine
// list, and the run degrades gracefully — the final merge ships with a
// crp-quarantine-v1 JSON report naming the quarantined cells instead
// of losing the whole sweep. Once the fleet drains, the supervisor
// loops `merge --allow-partial`-style missing-range reports into
// `--cells` backfill jobs until every non-quarantined cell is present,
// then writes the merged CSV atomically. The CSV is byte-identical to
// a monolithic `crp_shard run` with the quarantined rows deleted — the
// determinism contract extended to the service layer (the CI chaos
// gate cmp's it under random kill -9s).
//
// The supervisor keeps its own crash-safe state journal
// (crp-supervisor-journal-v1: atomic header + fsync'd checksummed
// records, the worker journals' framing, harness/framed_journal.h)
// recording every bisection and quarantine decision, so `supervise
// --resume` restarts the fleet idempotently: completed ranges are
// detected by their manifests, partially-run ranges respawn as
// `resume`, and the bisection tree and quarantine list replay instead
// of re-deriving themselves through fresh failures.
//
/// Ownership: RetryPolicy and the journal structs own plain data.
/// run_supervisor borrows its cells exactly as run_sweep_shard does.
///
/// Thread-safety: the supervisor is single-threaded (concurrency lives
/// in the worker processes); a supervisor journal must only ever be
/// appended to by one process at a time.
///
/// Determinism: every retry/backoff/timeout/quarantine decision is a
/// pure function of (config, observed outcomes, injected clock) —
/// RetryPolicy takes no wall-clock and seeds its jitter explicitly, so
/// tests/supervisor_test.cpp covers every decision path with a
/// FakeClock and zero sleeps. The artifact bytes are deterministic
/// regardless of scheduling: workers derive cell seeds from global
/// grid indices, so any interleaving of crashes, retries, and
/// bisections converges to the same merged CSV.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "harness/shard.h"
#include "harness/sweep.h"

namespace crp::harness {

// ---------------------------------------------------------------------------
// Clock seam

/// Monotonic time source the fleet loop runs against. Injected so the
/// timeout/backoff machinery is testable without sleeping; production
/// uses steady_clock_source().
class Clock {
 public:
  virtual ~Clock() = default;
  /// Milliseconds since an arbitrary epoch; monotonic, never wall time.
  virtual std::int64_t now_ms() = 0;
  virtual void sleep_ms(std::int64_t ms) = 0;
};

/// The production clock: std::chrono::steady_clock + this_thread sleep.
std::unique_ptr<Clock> steady_clock_source();

/// Deterministic test clock: now_ms() returns a counter, sleep_ms()
/// advances it. No test that uses this ever blocks.
class FakeClock final : public Clock {
 public:
  explicit FakeClock(std::int64_t start_ms = 0) : now_(start_ms) {}
  std::int64_t now_ms() override { return now_; }
  void sleep_ms(std::int64_t ms) override { advance_ms(ms); }
  void advance_ms(std::int64_t ms) { now_ += ms; }

 private:
  std::int64_t now_;
};

// ---------------------------------------------------------------------------
// Retry / backoff / timeout policy (pure)

struct RetryPolicyConfig {
  /// Nominal backoff before the first delayed retry; attempt k waits
  /// base * multiplier^(k-1), clamped to max_backoff_ms, then jittered.
  std::int64_t base_backoff_ms = 500;
  double backoff_multiplier = 2.0;
  std::int64_t max_backoff_ms = 60'000;
  /// Jitter spreads retries to ±this fraction of the nominal backoff
  /// (0 disables). Deterministic: drawn by hashing (jitter_seed, cell
  /// range, attempt), never from a global RNG or the clock.
  double jitter_fraction = 0.25;
  std::uint64_t jitter_seed = 0;
  /// Consecutive no-progress failures a job may accrue before it is
  /// escalated (bisected, or quarantined once it is a single cell).
  /// Progress — the worker journaled at least one new cell — resets
  /// the count: a range is only ever escalated for failing repeatedly
  /// *without* advancing.
  std::size_t retry_budget = 3;
  /// Wall-clock budget per worker process (0 = unlimited). Exceeding
  /// it draws a SIGTERM; kill_grace_ms later, a SIGKILL.
  std::int64_t worker_timeout_ms = 0;
  std::int64_t kill_grace_ms = 2'000;
};

/// How a worker attempt ended, as the supervisor classified it from
/// waitpid status (exit codes per the crp_shard taxonomy) plus its own
/// timeout bookkeeping.
enum class WorkerOutcome {
  kSuccess,     ///< exit 0: manifest + CSV are on disk
  kResumable,   ///< exit 75: clean stop, journal flushed
  kIoError,     ///< exit 4: transient by contract — retry helps
  kValidation,  ///< exit 3: permanent for these inputs — retry won't
  kCrash,       ///< killed by a signal, or an unexpected exit code
  kTimeout,     ///< the supervisor killed it for exceeding its budget
};

/// Mutable per-job scheduling state the policy decides over.
struct JobState {
  std::size_t cell_begin = 0;
  std::size_t cell_end = 0;  ///< one past the last cell; end - begin >= 1
  /// Consecutive failures since the last attempt that made progress.
  std::size_t attempts = 0;
};

enum class ActionKind {
  kDone,        ///< leave the fleet; the range's artifacts are final
  kRetryNow,    ///< respawn immediately (resume path)
  kRetryAfter,  ///< respawn after Decision::delay_ms
  kBisect,      ///< split the range in two to isolate the failure
  kQuarantine,  ///< single cell, budget exhausted or poisoned: give up
};

struct Decision {
  ActionKind kind = ActionKind::kDone;
  std::int64_t delay_ms = 0;  ///< meaningful for kRetryAfter only
};

/// What the supervisor should do to a running worker right now, given
/// only timestamps — the timeout half of the policy, pure over its
/// arguments so the escalation ladder is testable with a FakeClock.
enum class TimeoutAction {
  kNone,
  kSigterm,  ///< budget exceeded: ask for a clean exit-75 stop
  kSigkill,  ///< grace expired after SIGTERM: force it
};

/// The pure retry/backoff scheduler. Construction validates the
/// config (throws std::invalid_argument on nonsensical values);
/// decide() and backoff_ms() are const and deterministic.
class RetryPolicy {
 public:
  explicit RetryPolicy(const RetryPolicyConfig& config);

  const RetryPolicyConfig& config() const { return config_; }

  /// The jittered backoff before retry `attempt` (1-based) of the job
  /// covering [cell_begin, cell_end): exponential growth clamped to
  /// max_backoff_ms, scaled by a factor in [1 - jitter, 1 + jitter]
  /// drawn deterministically from (jitter_seed, range, attempt) — two
  /// policies with the same config produce identical schedules, and
  /// distinct ranges/attempts de-synchronize instead of thundering
  /// back in lockstep.
  std::int64_t backoff_ms(std::size_t attempt, std::size_t cell_begin,
                          std::size_t cell_end) const;

  /// The decision table (see the header comment). Mutates
  /// `state.attempts`: progress resets it, failures increment it, and
  /// crossing retry_budget escalates — kBisect while the range has
  /// more than one cell, kQuarantine once it is down to one.
  /// kValidation escalates immediately (retry cannot help); kResumable
  /// retries immediately (a clean stop is not a failure unless it
  /// stops making progress); kIoError/kCrash/kTimeout retry after
  /// backoff_ms(attempts).
  Decision decide(JobState& state, WorkerOutcome outcome,
                  bool progressed) const;

  /// Timeout ladder for a worker started at `started_ms`:
  /// kSigterm once now - started >= worker_timeout_ms (when a timeout
  /// is configured), kSigkill once now - *term_sent_ms >=
  /// kill_grace_ms, kNone otherwise. A caller that already sent
  /// SIGTERM for its own reasons (graceful shutdown) passes
  /// term_sent_ms and gets the same escalation.
  TimeoutAction timeout_action(std::int64_t now_ms, std::int64_t started_ms,
                               std::optional<std::int64_t> term_sent_ms) const;

 private:
  RetryPolicyConfig config_;
};

/// Bisection midpoint of [begin, end), end - begin >= 2: the split
/// both the live escalation path and the journal replay use, so a
/// resumed supervisor reconstructs exactly the bisection tree the
/// crashed one grew. Throws std::invalid_argument on ranges too small
/// to split.
std::size_t bisect_midpoint(std::size_t cell_begin, std::size_t cell_end);

/// [begin, end) minus the quarantined cells (sorted ascending): the
/// maximal runs of non-quarantined cells, in order — how a missing
/// range from a partial merge becomes backfill jobs without
/// resurrecting cells already given up on.
std::vector<MissingCellRange> subtract_quarantined(
    std::size_t cell_begin, std::size_t cell_end,
    std::span<const std::size_t> quarantined_sorted);

// ---------------------------------------------------------------------------
// Supervisor state journal (crp-supervisor-journal-v1)

/// One cell the supervisor gave up on, and why.
struct QuarantinedCell {
  std::size_t cell_index = 0;
  /// Failed attempts the final single-cell job accrued.
  std::size_t attempts = 0;
  /// Human-readable cause ("validation error (exit 3)", "hung past
  /// the 500 ms timeout", ...). May contain spaces; length-prefixed
  /// on disk.
  std::string reason;
};

/// A bisection decision: [cell_begin, cell_end) was split at mid.
struct BisectRecord {
  std::size_t cell_begin = 0;
  std::size_t mid = 0;
  std::size_t cell_end = 0;
};

/// The supervisor's durable identity + decision log. Same discipline
/// as the worker journals: the header is written whole via atomic
/// temp-file + rename + fsync, records are appended with a length
/// prefix, an FNV-1a checksum, and an end-of-record marker, each
/// append fsync'd — after a crash the file is a valid prefix plus at
/// most a detectably-torn tail.
struct SupervisorJournal {
  std::uint64_t grid_hash = 0;
  std::uint64_t master_seed = 0;
  std::size_t trials = 0;
  std::size_t total_cells = 0;
  std::size_t workers = 0;
  std::string engine;
  std::string cd_engine;
  std::vector<QuarantinedCell> quarantined;
  std::vector<BisectRecord> bisections;
  std::size_t valid_bytes = 0;
  std::size_t torn_bytes = 0;  ///< 0 = clean
};

/// Serialized journal pieces (exposed for tests, as with the worker
/// journal's format_checkpoint_*).
std::string format_supervisor_header(const SupervisorJournal& identity);
std::string format_supervisor_quarantine(const QuarantinedCell& cell);
std::string format_supervisor_bisect(const BisectRecord& record);

/// Parses a supervisor journal. Torn tails are reported via
/// torn_bytes; corruption (checksum mismatch, malformed complete
/// records, header damage) throws std::invalid_argument naming the
/// path and byte offset. Throws IoError when unreadable.
SupervisorJournal read_supervisor_journal(const std::string& path);

// ---------------------------------------------------------------------------
// The fleet

enum class SuperviseStatus {
  kCompleted,    ///< merged CSV + quarantine report are on disk
  kInterrupted,  ///< stopped via stop_requested; `supervise --resume`
                 ///< continues (workers exited 75 or finished)
};

struct SuperviseOptions {
  /// Path of the crp_shard binary to re-exec for workers (argv[0]).
  std::string exe;
  /// Grid/sweep flags forwarded verbatim to every worker ("--grid",
  /// "table1", "--n", ..., "--seed", ...). The supervisor appends the
  /// mode, "--cells B:E", and "--out-dir".
  std::vector<std::string> worker_flags;
  /// Worker artifact directory (journals, shard CSVs, manifests) and
  /// home of supervisor.journal.
  std::string out_dir;
  /// Final merged CSV path; the quarantine report lands next to it as
  /// OUT.quarantine.json.
  std::string out;
  /// Fleet width: concurrent workers, and the initial shard split.
  std::size_t workers = 3;
  /// false: out_dir must hold no supervisor.journal yet. true: it
  /// must, and the run resumes idempotently from it.
  bool resume = false;
  RetryPolicyConfig retry;
  /// Injected clock (null = steady_clock_source()). Note the fleet
  /// loop does real process management; unit tests exercise the pure
  /// policy layer instead, and the CLI tests drive this loop with
  /// real subprocesses.
  Clock* clock = nullptr;
  /// Fleet poll cadence while workers run.
  std::int64_t poll_interval_ms = 25;
  /// Polled between fleet events; return true to stop: running
  /// workers get SIGTERM (exit 75, journals flushed), the supervisor
  /// journal stays valid, and run_supervisor returns kInterrupted.
  std::function<bool()> stop_requested;
  /// Progress narration sink (null = silent).
  std::ostream* log = nullptr;
};

struct SuperviseResult {
  SuperviseStatus status = SuperviseStatus::kCompleted;
  std::size_t total_cells = 0;
  /// Cells given up on, ascending by index (kCompleted only; also
  /// serialized to OUT.quarantine.json).
  std::vector<QuarantinedCell> quarantined;
  /// Worker processes launched over the whole session.
  std::size_t workers_spawned = 0;
  /// Merge/backfill rounds taken after the first fleet drain.
  std::size_t backfill_rounds = 0;
};

/// Runs the fleet to convergence (see the header comment for the full
/// lifecycle). Throws std::invalid_argument for identity/validation
/// problems (journal mismatch on resume, fresh run over an existing
/// journal), IoError for artifact I/O failures, and std::runtime_error
/// when supervision itself cannot proceed (a worker exited with a
/// usage/internal error — a supervisor bug, not a worker fault — or a
/// backfill round made no progress).
SuperviseResult run_supervisor(std::span<const SweepCell> cells,
                               const SweepOptions& sweep_options,
                               const SuperviseOptions& options);

/// Serializes the crp-quarantine-v1 report: grid hash (hex string),
/// total cell count, and the quarantined cells with attempts and
/// reason. Written next to the merged CSV on every completed
/// supervised run — empty list means a clean sweep.
void write_quarantine_report(std::ostream& out, std::uint64_t grid_hash,
                             std::size_t total_cells,
                             std::span<const QuarantinedCell> quarantined);

}  // namespace crp::harness
