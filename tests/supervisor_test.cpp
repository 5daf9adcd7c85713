// The supervisor's pure decision layer (harness/supervisor.h): every
// retry/backoff/timeout/quarantine path of RetryPolicy under a
// FakeClock — backoff growth and clamping, jitter determinism from a
// pinned seed, progress resetting the budget, budget exhaustion
// escalating to bisection and then quarantine, the SIGTERM→SIGKILL
// timeout ladder — plus bisect_midpoint, subtract_quarantined, and
// the crp-supervisor-journal-v1 round trip with torn-tail and
// corruption discipline. No test here sleeps or spawns a
// process; the live fleet loop is exercised end-to-end by
// tests/crp_shard_cli_test.py and the CI chaos gate.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/checkpoint.h"
#include "harness/supervisor.h"

#include "test_support.h"

namespace crp::harness {
namespace {

/// Names this file's per-test scratch directories (test_dir).
constexpr char kDirPrefix[] = "crp_supervisor_";

RetryPolicyConfig no_jitter_config() {
  RetryPolicyConfig config;
  config.base_backoff_ms = 100;
  config.max_backoff_ms = 1'000;
  config.jitter_fraction = 0.0;
  config.retry_budget = 2;
  return config;
}

// ---------------------------------------------------------------------------
// Config validation

TEST(RetryPolicyConfigTest, RejectsNonsense) {
  auto bad = [](auto mutate) {
    RetryPolicyConfig config;
    mutate(config);
    EXPECT_THROW(RetryPolicy{config}, std::invalid_argument);
  };
  bad([](RetryPolicyConfig& c) { c.base_backoff_ms = -1; });
  bad([](RetryPolicyConfig& c) { c.max_backoff_ms = c.base_backoff_ms - 1; });
  bad([](RetryPolicyConfig& c) { c.jitter_fraction = -0.1; });
  bad([](RetryPolicyConfig& c) { c.jitter_fraction = 1.0; });
  bad([](RetryPolicyConfig& c) { c.worker_timeout_ms = -5; });
  bad([](RetryPolicyConfig& c) { c.kill_grace_ms = -5; });
  // Past the millisecond ceiling the jittered backoff and the fleet's
  // now + delay would overflow int64. The base goes in with an equal
  // max, so only the ceiling can reject it.
  for (const std::int64_t ms :
       {kMaxMillis + 1, std::numeric_limits<std::int64_t>::max()}) {
    bad([ms](RetryPolicyConfig& c) {
      c.base_backoff_ms = c.max_backoff_ms = ms;
    });
    bad([ms](RetryPolicyConfig& c) { c.max_backoff_ms = ms; });
    bad([ms](RetryPolicyConfig& c) { c.worker_timeout_ms = ms; });
    bad([ms](RetryPolicyConfig& c) { c.kill_grace_ms = ms; });
  }
  EXPECT_NO_THROW(RetryPolicy{RetryPolicyConfig{}});
  RetryPolicyConfig ceiling;
  ceiling.base_backoff_ms = ceiling.max_backoff_ms = kMaxMillis;
  ceiling.worker_timeout_ms = ceiling.kill_grace_ms = kMaxMillis;
  EXPECT_NO_THROW(RetryPolicy{ceiling});
}

// ---------------------------------------------------------------------------
// Backoff growth + jitter

TEST(BackoffTest, GrowsExponentiallyAndClamps) {
  const RetryPolicy policy(no_jitter_config());
  EXPECT_EQ(policy.backoff_ms(1, 0, 4), 100);
  EXPECT_EQ(policy.backoff_ms(2, 0, 4), 200);
  EXPECT_EQ(policy.backoff_ms(3, 0, 4), 400);
  EXPECT_EQ(policy.backoff_ms(4, 0, 4), 800);
  EXPECT_EQ(policy.backoff_ms(5, 0, 4), 1'000);   // clamped
  EXPECT_EQ(policy.backoff_ms(50, 0, 4), 1'000);  // stays clamped
  EXPECT_THROW(policy.backoff_ms(0, 0, 4), std::invalid_argument);
}

TEST(BackoffTest, JitterIsDeterministicFromSeedRangeAndAttempt) {
  RetryPolicyConfig config = no_jitter_config();
  config.jitter_fraction = 0.25;
  config.jitter_seed = 0x1234;
  const RetryPolicy policy(config);
  const RetryPolicy twin(config);
  for (std::size_t attempt = 1; attempt <= 4; ++attempt) {
    // Same config => identical schedule, call after call.
    EXPECT_EQ(policy.backoff_ms(attempt, 3, 7),
              twin.backoff_ms(attempt, 3, 7));
    EXPECT_EQ(policy.backoff_ms(attempt, 3, 7),
              policy.backoff_ms(attempt, 3, 7));
  }
  // A different seed moves the draw; so do a different range and a
  // different attempt (that is the de-synchronization point).
  RetryPolicyConfig reseeded = config;
  reseeded.jitter_seed = 0x5678;
  EXPECT_NE(RetryPolicy(reseeded).backoff_ms(1, 3, 7),
            policy.backoff_ms(1, 3, 7));
  EXPECT_NE(policy.backoff_ms(1, 0, 7), policy.backoff_ms(1, 3, 7));
}

TEST(BackoffTest, JitterStaysWithinTheConfiguredBand) {
  RetryPolicyConfig config = no_jitter_config();
  config.jitter_fraction = 0.25;
  config.jitter_seed = 42;
  const RetryPolicy policy(config);
  for (std::size_t range = 0; range < 32; ++range) {
    const std::int64_t ms = policy.backoff_ms(1, range, range + 1);
    EXPECT_GE(ms, 75);   // 100 * (1 - 0.25)
    EXPECT_LE(ms, 125);  // 100 * (1 + 0.25)
  }
}

// ---------------------------------------------------------------------------
// The decision table

TEST(DecideTest, SuccessIsDone) {
  const RetryPolicy policy(no_jitter_config());
  JobState state{.cell_begin = 0, .cell_end = 4, .attempts = 1};
  EXPECT_EQ(policy.decide(state, WorkerOutcome::kSuccess, true).kind,
            ActionKind::kDone);
}

TEST(DecideTest, ResumableRetriesImmediatelyWhileProgressing) {
  const RetryPolicy policy(no_jitter_config());
  JobState state{.cell_begin = 0, .cell_end = 4, .attempts = 2};
  const Decision decision =
      policy.decide(state, WorkerOutcome::kResumable, true);
  EXPECT_EQ(decision.kind, ActionKind::kRetryNow);
  EXPECT_EQ(state.attempts, 0);  // progress wiped the failure streak
}

TEST(DecideTest, ResumableWithoutProgressChargesTheBudget) {
  const RetryPolicy policy(no_jitter_config());  // budget 2
  JobState state{.cell_begin = 0, .cell_end = 4};
  EXPECT_EQ(policy.decide(state, WorkerOutcome::kResumable, false).kind,
            ActionKind::kRetryNow);
  EXPECT_EQ(policy.decide(state, WorkerOutcome::kResumable, false).kind,
            ActionKind::kRetryNow);
  // Third consecutive no-progress stop crosses the budget of 2.
  EXPECT_EQ(policy.decide(state, WorkerOutcome::kResumable, false).kind,
            ActionKind::kBisect);
}

TEST(DecideTest, TransientFailuresBackOffThenEscalate) {
  const RetryPolicy policy(no_jitter_config());  // budget 2, no jitter
  for (const WorkerOutcome outcome :
       {WorkerOutcome::kIoError, WorkerOutcome::kCrash,
        WorkerOutcome::kTimeout}) {
    JobState state{.cell_begin = 0, .cell_end = 4};
    Decision first = policy.decide(state, outcome, false);
    EXPECT_EQ(first.kind, ActionKind::kRetryAfter);
    EXPECT_EQ(first.delay_ms, 100);
    Decision second = policy.decide(state, outcome, false);
    EXPECT_EQ(second.kind, ActionKind::kRetryAfter);
    EXPECT_EQ(second.delay_ms, 200);  // exponential growth
    EXPECT_EQ(policy.decide(state, outcome, false).kind, ActionKind::kBisect);
  }
}

TEST(DecideTest, ProgressResetsTheFailureStreak) {
  const RetryPolicy policy(no_jitter_config());  // budget 2
  JobState state{.cell_begin = 0, .cell_end = 4};
  policy.decide(state, WorkerOutcome::kCrash, false);
  policy.decide(state, WorkerOutcome::kCrash, false);
  EXPECT_EQ(state.attempts, 2);
  // A crash that still journaled a new cell is a healthy worker on a
  // flaky box: the streak resets, and the next failure is attempt 1.
  const Decision decision = policy.decide(state, WorkerOutcome::kCrash, true);
  EXPECT_EQ(decision.kind, ActionKind::kRetryAfter);
  EXPECT_EQ(state.attempts, 1);
  EXPECT_EQ(decision.delay_ms, 100);
}

TEST(DecideTest, ValidationEscalatesImmediately) {
  const RetryPolicy policy(no_jitter_config());
  JobState multi{.cell_begin = 0, .cell_end = 4};
  EXPECT_EQ(policy.decide(multi, WorkerOutcome::kValidation, false).kind,
            ActionKind::kBisect);
  JobState single{.cell_begin = 3, .cell_end = 4};
  EXPECT_EQ(policy.decide(single, WorkerOutcome::kValidation, true).kind,
            ActionKind::kQuarantine);
}

TEST(DecideTest, SingleCellBudgetExhaustionQuarantines) {
  const RetryPolicy policy(no_jitter_config());  // budget 2
  JobState state{.cell_begin = 5, .cell_end = 6};
  EXPECT_EQ(policy.decide(state, WorkerOutcome::kTimeout, false).kind,
            ActionKind::kRetryAfter);
  EXPECT_EQ(policy.decide(state, WorkerOutcome::kTimeout, false).kind,
            ActionKind::kRetryAfter);
  EXPECT_EQ(policy.decide(state, WorkerOutcome::kTimeout, false).kind,
            ActionKind::kQuarantine);
}

TEST(DecideTest, RejectsEmptyRanges) {
  const RetryPolicy policy(no_jitter_config());
  JobState state{.cell_begin = 4, .cell_end = 4};
  EXPECT_THROW(policy.decide(state, WorkerOutcome::kSuccess, false),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Timeout ladder under a fake clock

TEST(TimeoutTest, FullSigtermSigkillLadder) {
  RetryPolicyConfig config = no_jitter_config();
  config.worker_timeout_ms = 500;
  config.kill_grace_ms = 200;
  const RetryPolicy policy(config);
  FakeClock clock;

  const std::int64_t started = clock.now_ms();
  EXPECT_EQ(policy.timeout_action(clock.now_ms(), started, std::nullopt),
            TimeoutAction::kNone);
  clock.advance_ms(499);
  EXPECT_EQ(policy.timeout_action(clock.now_ms(), started, std::nullopt),
            TimeoutAction::kNone);
  clock.advance_ms(1);  // the budget boundary is inclusive
  EXPECT_EQ(policy.timeout_action(clock.now_ms(), started, std::nullopt),
            TimeoutAction::kSigterm);

  const std::int64_t term_sent = clock.now_ms();
  clock.advance_ms(199);
  EXPECT_EQ(policy.timeout_action(clock.now_ms(), started, term_sent),
            TimeoutAction::kNone);
  clock.advance_ms(1);
  EXPECT_EQ(policy.timeout_action(clock.now_ms(), started, term_sent),
            TimeoutAction::kSigkill);
}

TEST(TimeoutTest, ZeroTimeoutNeverSigterms) {
  const RetryPolicy policy(no_jitter_config());  // worker_timeout_ms = 0
  FakeClock clock;
  clock.advance_ms(1'000'000);
  EXPECT_EQ(policy.timeout_action(clock.now_ms(), 0, std::nullopt),
            TimeoutAction::kNone);
  // ... but grace escalation still applies when SIGTERM was sent for
  // another reason (graceful shutdown).
  EXPECT_EQ(policy.timeout_action(clock.now_ms(), 0, 0),
            TimeoutAction::kSigkill);
}

// ---------------------------------------------------------------------------
// Bisection + quarantine set arithmetic

TEST(BisectTest, MidpointSplitsAndRejectsTooSmall) {
  EXPECT_EQ(bisect_midpoint(0, 4), 2);
  EXPECT_EQ(bisect_midpoint(2, 5), 3);
  EXPECT_EQ(bisect_midpoint(6, 8), 7);
  EXPECT_THROW(bisect_midpoint(3, 4), std::invalid_argument);
  EXPECT_THROW(bisect_midpoint(4, 4), std::invalid_argument);
}

TEST(SubtractQuarantinedTest, SplitsAroundQuarantinedCells) {
  const std::vector<std::size_t> quarantined{3, 4, 7};
  const auto runs = subtract_quarantined(2, 9, quarantined);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].begin, 2u);
  EXPECT_EQ(runs[0].end, 3u);
  EXPECT_EQ(runs[1].begin, 5u);
  EXPECT_EQ(runs[1].end, 7u);
  EXPECT_EQ(runs[2].begin, 8u);
  EXPECT_EQ(runs[2].end, 9u);
}

TEST(SubtractQuarantinedTest, EdgeCases) {
  EXPECT_TRUE(subtract_quarantined(3, 4, std::vector<std::size_t>{3}).empty());
  const auto untouched =
      subtract_quarantined(0, 4, std::vector<std::size_t>{});
  ASSERT_EQ(untouched.size(), 1u);
  EXPECT_EQ(untouched[0].begin, 0u);
  EXPECT_EQ(untouched[0].end, 4u);
  // Quarantined cells outside the range are ignored.
  const auto outside =
      subtract_quarantined(0, 4, std::vector<std::size_t>{9});
  ASSERT_EQ(outside.size(), 1u);
  EXPECT_EQ(outside[0].end, 4u);
}

// ---------------------------------------------------------------------------
// Journal round trip + damage discipline

SupervisorJournal identity() {
  SupervisorJournal journal;
  journal.grid_hash = 0xdeadbeefcafef00dULL;
  journal.master_seed = 0x1122334455667788ULL;
  journal.trials = 600;
  journal.total_cells = 8;
  journal.workers = 3;
  journal.engine = "batch";
  journal.cd_engine = "simulate";
  return journal;
}

std::string write_journal(const std::filesystem::path& path,
                          const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  out.close();
  return path.string();
}

TEST(SupervisorJournalTest, RoundTripsHeaderAndRecords) {
  const auto dir = test_dir(kDirPrefix);
  const QuarantinedCell cell{.cell_index = 3,
                             .attempts = 2,
                             .reason = "validation error (exit 3)"};
  const BisectRecord split{.cell_begin = 2, .mid = 3, .cell_end = 5};
  const std::string bytes = format_supervisor_header(identity()) +
                            format_supervisor_bisect(split) +
                            format_supervisor_quarantine(cell);
  const auto path = write_journal(dir / "supervisor.journal", bytes);

  const SupervisorJournal journal = read_supervisor_journal(path);
  EXPECT_EQ(journal.grid_hash, identity().grid_hash);
  EXPECT_EQ(journal.master_seed, identity().master_seed);
  EXPECT_EQ(journal.trials, 600u);
  EXPECT_EQ(journal.total_cells, 8u);
  EXPECT_EQ(journal.workers, 3u);
  EXPECT_EQ(journal.engine, "batch");
  EXPECT_EQ(journal.cd_engine, "simulate");
  ASSERT_EQ(journal.bisections.size(), 1u);
  EXPECT_EQ(journal.bisections[0].cell_begin, 2u);
  EXPECT_EQ(journal.bisections[0].mid, 3u);
  EXPECT_EQ(journal.bisections[0].cell_end, 5u);
  ASSERT_EQ(journal.quarantined.size(), 1u);
  EXPECT_EQ(journal.quarantined[0].cell_index, 3u);
  EXPECT_EQ(journal.quarantined[0].attempts, 2u);
  EXPECT_EQ(journal.quarantined[0].reason, "validation error (exit 3)");
  EXPECT_EQ(journal.torn_bytes, 0u);
  EXPECT_EQ(journal.valid_bytes, bytes.size());
}

TEST(SupervisorJournalTest, TornTailIsReportedNotFatal) {
  const auto dir = test_dir(kDirPrefix);
  const std::string record = format_supervisor_quarantine(
      {.cell_index = 1, .attempts = 3, .reason = "timed out"});
  const std::string whole = format_supervisor_header(identity()) + record;
  // Truncating anywhere inside the appended record must parse as the
  // header alone plus a reported torn tail — never as corruption.
  for (const std::size_t keep : {1ul, record.size() / 2, record.size() - 1}) {
    const std::string bytes =
        whole.substr(0, whole.size() - record.size() + keep);
    const auto path = write_journal(dir / "torn.journal", bytes);
    const SupervisorJournal journal = read_supervisor_journal(path);
    EXPECT_TRUE(journal.quarantined.empty());
    EXPECT_EQ(journal.torn_bytes, keep) << "keep=" << keep;
    EXPECT_EQ(journal.valid_bytes + journal.torn_bytes, bytes.size());
  }
}

TEST(SupervisorJournalTest, CorruptionThrows) {
  const auto dir = test_dir(kDirPrefix);
  const std::string header = format_supervisor_header(identity());
  const std::string quarantine = format_supervisor_quarantine(
      {.cell_index = 1, .attempts = 3, .reason = "timed out"});

  // Flipped payload byte: checksum mismatch.
  std::string flipped = header + quarantine;
  flipped[header.size() + quarantine.find("timed")] ^= 0x01;
  EXPECT_THROW(
      read_supervisor_journal(write_journal(dir / "flip.journal", flipped)),
      std::invalid_argument);

  // Damaged header: atomically written, so never "torn".
  std::string bad_header = header;
  bad_header[bad_header.find("0x") + 2] ^= 0x01;
  EXPECT_THROW(read_supervisor_journal(
                   write_journal(dir / "header.journal", bad_header)),
               std::invalid_argument);

  // Duplicate quarantine for the same cell: the supervisor never
  // writes one, so reading one means the file is damaged.
  EXPECT_THROW(
      read_supervisor_journal(write_journal(dir / "dup.journal",
                                            header + quarantine + quarantine)),
      std::invalid_argument);

  // Bisect record that is not a strict split.
  EXPECT_THROW(read_supervisor_journal(write_journal(
                   dir / "split.journal",
                   header + format_supervisor_bisect(
                                {.cell_begin = 3, .mid = 3, .cell_end = 5}))),
               std::invalid_argument);

  // Unknown record tag.
  EXPECT_THROW(
      read_supervisor_journal(write_journal(
          dir / "tag.journal", header + "frobnicate 1 2 3 0x0\n\n.\n")),
      std::invalid_argument);

  EXPECT_THROW(read_supervisor_journal((dir / "missing.journal").string()),
               IoError);
}

// ---------------------------------------------------------------------------
// Quarantine report serialization

TEST(QuarantineReportTest, SerializesTheV1Format) {
  std::ostringstream out;
  const std::vector<QuarantinedCell> cells{
      {.cell_index = 3, .attempts = 4, .reason = "validation error"},
      {.cell_index = 6, .attempts = 2, .reason = "a \"quoted\" reason"},
  };
  write_quarantine_report(out, 0xabcULL, 8, cells);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"format\": \"crp-quarantine-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"grid_hash\": \"0xabc\""), std::string::npos);
  EXPECT_NE(json.find("\"total_cells\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"quarantined_cells\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"cell_index\": 3"), std::string::npos);
  EXPECT_NE(json.find("a \\\"quoted\\\" reason"), std::string::npos);

  std::ostringstream empty;
  write_quarantine_report(empty, 0x1ULL, 8, {});
  EXPECT_NE(empty.str().find("\"quarantined\": []"), std::string::npos);
}

}  // namespace
}  // namespace crp::harness
