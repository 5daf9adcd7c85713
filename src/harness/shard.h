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
// A shard run is self-describing: its CSV rows (write_sweep_csv format,
// one per cell) travel with a JSON manifest recording the grid
// fingerprint, master seed, trial count, the shard's cell range, and
// every per-cell seed. merge_shards()/merge_shard_csvs() validate the
// manifests against each other — same grid/seed/trials, ranges tile
// the grid with no gaps or overlaps, per-cell seeds cross-check — and
// reassemble the results in cell order, so a `for i in 0..N` loop of
// `crp_shard run --shard i/N` followed by `crp_shard merge` is
// byte-identical to one monolithic run (tests/shard_test.cpp and the
// CI shard-smoke step pin this down).
//
/// Ownership: ShardPlan copies its SweepCells out of the grid, but the
/// cells still *borrow* their schedules/policies/distributions — the
/// referenced objects must outlive run_sweep_shard(), exactly as for
/// run_sweep(). Manifests and ShardCsv own plain data.
///
/// Thread-safety: run_sweep_shard() is run_sweep() on a sub-span and
/// inherits its synchronization contract; the plan/merge/serialize
/// helpers are pure functions over their arguments.
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
ShardPlan plan_shards(const SweepGrid& grid, const ShardOptions& options);

/// The self-describing identity of one executed shard. `csv` names the
/// sibling CSV artifact (relative filename; empty for in-memory use).
/// Seeds and the grid hash serialize as hex strings — JSON numbers are
/// doubles and cannot carry 64 bits.
struct ShardManifest {
  std::string csv;
  /// Engine configuration the shard ran under (SweepOptions::engine /
  /// cd_engine, serialized by name). Engines agree only up to
  /// Monte-Carlo noise, so a merge across mismatched engines would
  /// silently mix distributions — the merge validates these too.
  std::string engine = "batch";
  std::string cd_engine = "simulate";
  std::uint64_t grid_hash = 0;
  std::uint64_t master_seed = 0;
  std::size_t trials = 0;  ///< SweepOptions::trials (cell overrides hash
                           ///< into grid_hash instead)
  std::size_t total_cells = 0;
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
/// shard manifests and checkpoint journal headers (harness/
/// checkpoint.h) — the merge and resume validators compare these.
std::string engine_name(NoCdEngine engine);
std::string engine_name(CdEngine engine);

/// One executed shard: manifest + results whose cell_index is the
/// *global* grid index.
struct ShardRun {
  ShardManifest manifest;
  std::vector<SweepResult> results;
};

/// Plans shard `shard_options.shard_index` and executes its cells with
/// run_sweep() under `options`. Every result is bit-identical to the
/// corresponding entry of a monolithic run_sweep() over the full grid
/// with the same options.
ShardRun run_sweep_shard(std::span<const SweepCell> cells,
                         const ShardOptions& shard_options,
                         const SweepOptions& options = {});
ShardRun run_sweep_shard(const SweepGrid& grid,
                         const ShardOptions& shard_options,
                         const SweepOptions& options = {});

/// Validates the shards' manifests against each other — identical
/// grid_hash/master_seed/trials/total_cells, cell ranges tiling
/// [0, total_cells) with no gaps or overlaps, per-shard results
/// matching the manifest's range and cell seeds — and returns the
/// results reassembled in cell order, exactly run_sweep()'s output.
/// Throws std::invalid_argument naming the offending shard(s) and
/// field on any mismatch.
std::vector<SweepResult> merge_shards(std::span<const ShardRun> shards);

/// Writes/reads the manifest JSON. The reader is a schema over the
/// shared strict reader (harness/strict_json.h): unknown, duplicate,
/// or missing fields, non-integer numerics (anything beyond plain
/// digits — "nan", "inf", signs, exponents), and hex seeds outside the
/// lowercase parse_hex_u64 grammar (harness/csv.h) are all rejected as
/// std::invalid_argument naming the field and its line/column.
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

/// CSV-level merge: validates the manifest set (as merge_shards does)
/// plus header equality, per-shard row counts, and row-seed /
/// manifest-seed agreement, then writes one header and every row in
/// cell order. Rows pass through byte-for-byte, so the output is
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

/// merge_shard_csvs, but *gaps degrade gracefully*: cells covered by
/// no shard are reported in the returned PartialMergeReport instead
/// of failing the merge, and the present rows are still written in
/// cell order. Every other validation is unchanged — mismatched grid
/// identity, overlapping ranges, row/seed disagreements all still
/// throw. The output CSV equals the monolithic CSV with the missing
/// rows deleted (byte-wise, for the rows that are present).
PartialMergeReport merge_shard_csvs_partial(
    std::ostream& out, std::span<const ShardArtifact> shards);

/// Serializes the report as the machine-readable
/// crp-partial-merge-v1 JSON: grid hash (hex string), total/present
/// cell counts, and the missing ranges as [begin, end) pairs.
void write_partial_merge_report(std::ostream& out,
                                const PartialMergeReport& report);

}  // namespace crp::harness
