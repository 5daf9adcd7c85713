// Multi-process sweep sharding: partition a sweep grid's cells across
// processes (or machines), run each partition independently, and
// reassemble the shards into exactly the result the single-process
// run_sweep() would have produced — bit for bit.
//
// The contract that makes this safe is the sweep scheduler's seed
// derivation (harness/sweep.h): a cell's measurement is a function of
// (cell configuration, derive_stream_seed(master_seed, stream), trials)
// only. plan_shards() pins every cell's seed stream to its *global*
// grid index before slicing, so any subset of shards reproduces the
// full-grid seeds regardless of how the grid was cut; the shard
// partition is never allowed to change a cell seed.
//
// A shard run (run_sweep_shard_checkpointed, harness/checkpoint.h) is
// self-describing: its CSV rows (write_sweep_csv format, one per cell)
// travel with a JSON manifest recording the run's RunIdentity (grid
// fingerprint, master seed, trials, total cells, engines), the shard's
// cell range, and every per-cell seed. merge_shard_csvs() validates the
// manifests against each other — check_same_run on every identity,
// ranges tiling the grid with no gaps or overlaps, per-cell seeds
// cross-checked — and reassembles the rows in cell order, so a
// `for i in 0..N` loop of `crp_shard run --shard i/N` followed by
// `crp_shard merge` is byte-identical to one monolithic run
// (tests/shard_test.cpp and the CI shard-smoke step pin this down).
//
/// Ownership: ShardPlan copies its SweepCells out of the grid, but the
/// cells still *borrow* their schedules/policies/distributions — the
/// referenced objects must outlive the sweep that runs them, exactly
/// as for run_sweep(). Manifests and ShardCsv own plain data.
///
/// Thread-safety: the plan/merge/serialize helpers are pure functions
/// over their arguments.
///
/// Determinism: the partition is a pure function of (total cells,
/// shard_count) — balanced contiguous ranges — and seed pinning is a
/// pure function of the grid index, so plans are stable across
/// processes, machines, and shard counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "harness/strict_json.h"  // json_escape, shared by every JSON writer
#include "harness/sweep.h"

namespace crp::harness {

/// Which slice of the grid a shard owns. Either the balanced
/// shard_index/shard_count partition (the default) or an explicit
/// [cell_begin, cell_end) range for drivers that balance by hand.
struct ShardOptions {
  std::size_t shard_count = 1;
  std::size_t shard_index = 0;
  /// Explicit cell range override; both kAutoRange = use the balanced
  /// partition. When set, both must be set, with
  /// cell_begin <= cell_end <= total cells.
  static constexpr std::size_t kAutoRange = ~std::size_t{0};
  std::size_t cell_begin = kAutoRange;
  std::size_t cell_end = kAutoRange;
};

/// A deterministic slice of a grid: the shard's cells with their seed
/// streams pinned to their global grid indices, plus the full-grid
/// identity (total cell count and fingerprint) every shard of the same
/// grid agrees on.
struct ShardPlan {
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::size_t cell_begin = 0;  ///< global index of the first owned cell
  std::size_t cell_end = 0;    ///< one past the last owned cell
  std::size_t total_cells = 0;
  std::uint64_t grid_hash = 0;  ///< grid_fingerprint of the *full* grid
  /// The owned cells, in grid order. Cells that defaulted to
  /// kSeedStreamFromIndex carry their global index as an explicit
  /// seed_stream; explicitly pinned streams are kept as-is.
  std::vector<SweepCell> cells;
};

/// Content fingerprint of a full grid: FNV-1a over every cell's
/// algorithm name and *behavior* (a deterministic probe of the
/// schedule's early round probabilities and period, or of the
/// policy's probabilities on a fixed family of short collision
/// histories), size-source name and contents (the distribution's n
/// and compact support — sizes and masses — or the fixed k), round
/// budget, trial override, and resolved seed stream. Pointer-free, so
/// two processes that build the same grid independently agree; two
/// grids differing in any of the above — including distribution
/// contents or algorithm parameters under identical names — do not.
std::uint64_t grid_fingerprint(std::span<const SweepCell> cells);

/// Deterministically partitions the grid and returns shard
/// `options.shard_index`'s plan. Balanced contiguous ranges: shard i
/// of N owns [i*C/N, (i+1)*C/N), which is disjoint, covering, and
/// stable under re-planning. Throws std::invalid_argument on an empty
/// grid, shard_index >= shard_count, a half-set or out-of-range
/// explicit cell range, or a cell whose explicit seed_stream equals
/// the reserved kSeedStreamFromIndex sentinel.
ShardPlan plan_shards(std::span<const SweepCell> cells,
                      const ShardOptions& options);

/// The file stem of a sharded run's artifacts (journal, CSV, manifest)
/// in its artifact directory: "shard-cells-B-E" for an explicit
/// [cell_begin, cell_end) range, else "shard-I-of-N". Explicit ranges
/// all share shard 0 of 1, so naming them by range keeps successive
/// hand-balanced slices in one directory from overwriting each other.
/// crp_shard names its artifacts with it and the supervisor predicts
/// each worker's paths with it.
std::string shard_artifact_stem(const ShardOptions& options);

/// Which run an artifact belongs to. Every artifact of a sharded run —
/// shard manifests, worker journals, the supervisor journal — records
/// these fields, and two artifacts describe the same run exactly when
/// check_same_run accepts them. Seeds and the grid hash serialize as
/// hex strings in JSON — JSON numbers are doubles and cannot carry 64
/// bits.
struct RunIdentity {
  std::uint64_t grid_hash = 0;  ///< grid_fingerprint of the *full* grid
  std::uint64_t master_seed = 0;
  std::size_t trials = 0;  ///< SweepOptions::trials (cell overrides hash
                           ///< into grid_hash instead)
  std::size_t total_cells = 0;
  /// Engine configuration (SweepOptions::engine / cd_engine, serialized
  /// by engine_name). Engines agree only up to Monte-Carlo noise, so
  /// artifacts from mismatched engines must never mix.
  std::string engine = "batch";
  std::string cd_engine = "simulate";

  RunIdentity() = default;
  /// The identity of a sweep of a grid with this fingerprint and cell
  /// count under `options`.
  RunIdentity(std::uint64_t grid_hash, std::size_t total_cells,
              const SweepOptions& options);
};

/// The one "same run?" check, shared by the shard merge and both
/// resumes. Compares grid fingerprint, master seed, trials, total
/// cells, and engine configuration, in that order, and throws
/// std::invalid_argument("<context>: <field> <found> != <expected> —
/// <why>") at the first mismatch.
void check_same_run(const RunIdentity& expected, const RunIdentity& found,
                    const std::string& context);

/// The self-describing record of one executed shard: its run identity,
/// the sibling CSV artifact `csv` (a bare file name in the manifest's
/// directory), and the shard's slice of the grid.
struct ShardManifest : RunIdentity {
  std::string csv;
  std::size_t shard_index = 0;
  std::size_t shard_count = 0;
  std::size_t cell_begin = 0;
  std::size_t cell_end = 0;
  /// The derived seed of every owned cell, in grid order — the
  /// cross-check that catches a merge of shards whose partition
  /// changed cell seeds.
  std::vector<std::uint64_t> cell_seeds;
};

/// Canonical serialized names of the engine enums, as recorded in
/// shard manifests and journal headers.
std::string engine_name(NoCdEngine engine);
std::string engine_name(CdEngine engine);

/// Writes/reads the manifest JSON. The reader is a schema over the
/// shared strict reader (harness/strict_json.h): unknown, duplicate,
/// or missing fields, non-integer numerics (anything beyond plain
/// digits — "nan", "inf", signs, exponents), hex seeds outside the
/// lowercase parse_hex_u64 grammar (harness/csv.h), and a `csv` that
/// is not a bare file name (empty, containing '/', or "." / "..") are
/// all rejected as std::invalid_argument naming the field and its
/// line/column.
void write_shard_manifest(std::ostream& out, const ShardManifest& manifest);
ShardManifest read_shard_manifest(std::istream& in);

/// A shard CSV re-read for merging: the raw header and row lines
/// (passed through verbatim so the merged file is byte-identical to
/// the monolithic write) plus the parsed cell_seed column. Parsing is
/// quote-tolerant (split_csv_row), and numeric columns are validated:
/// budget/trials/cell_seed must be plain unsigned integers and the
/// measurement summary columns finite doubles — the same non-finite
/// guard the distribution reader applies.
struct ShardCsv {
  std::string header;
  std::vector<std::string> rows;
  std::vector<std::uint64_t> row_seeds;
};
ShardCsv read_shard_csv(std::istream& in);

/// One shard's on-disk artifact pair, ready to merge.
struct ShardArtifact {
  ShardManifest manifest;
  ShardCsv csv;
};

/// Reads one shard's artifact pair from disk: the manifest at
/// `manifest_path` plus the CSV it names, resolved relative to the
/// manifest's directory. Validation errors (std::invalid_argument)
/// are re-thrown with the offending path prepended; unreadable files
/// throw IoError (harness/checkpoint.h). Shared by `crp_shard merge`
/// and the supervisor's merge/backfill loop.
ShardArtifact read_shard_artifact_file(const std::string& manifest_path);

/// CSV-level merge: merge_shard_csvs_partial (below) that also
/// requires the ranges to tile [0, total_cells) — a gap throws
/// std::invalid_argument naming the uncovered cells, and nothing is
/// written. Rows pass through byte-for-byte, so the output is
/// byte-identical to write_sweep_csv over the monolithic run.
void merge_shard_csvs(std::ostream& out,
                      std::span<const ShardArtifact> shards);

/// A contiguous run of grid cells no shard covered: [begin, end).
struct MissingCellRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// What a gap-tolerant merge produced: the grid identity, how much of
/// it is present, and exactly which cell ranges are missing — the
/// work-list a scheduler feeds back as `crp_shard run --cells B:E`
/// (or `resume`) invocations.
struct PartialMergeReport {
  std::uint64_t grid_hash = 0;
  std::size_t total_cells = 0;
  std::size_t present_cells = 0;
  std::vector<MissingCellRange> missing;  ///< in cell order; empty = complete
};

/// The gap-tolerant merge. Validates the set — every manifest's
/// identity against shard 0's (check_same_run), ranges internally
/// consistent and non-overlapping, CSV headers equal, per-shard row
/// counts and row seeds matching the manifest — and throws
/// std::invalid_argument naming the offending shard on any mismatch.
/// Cells covered by no shard are reported in the returned
/// PartialMergeReport, and the present rows are written in cell order:
/// the monolithic CSV with the missing rows deleted.
PartialMergeReport merge_shard_csvs_partial(
    std::ostream& out, std::span<const ShardArtifact> shards);

/// Serializes the report as the machine-readable
/// crp-partial-merge-v1 JSON: grid hash (hex string), total/present
/// cell counts, and the missing ranges as [begin, end) pairs.
void write_partial_merge_report(std::ostream& out,
                                const PartialMergeReport& report);

}  // namespace crp::harness
