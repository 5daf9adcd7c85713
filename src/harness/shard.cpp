#include "harness/shard.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "channel/protocol.h"
#include "harness/checkpoint.h"
#include "harness/csv.h"
#include "harness/hash.h"
#include "harness/strict_json.h"
#include "info/distribution.h"

namespace crp::harness {

namespace {

[[noreturn]] void merge_error(const std::string& message) {
  throw std::invalid_argument("shard merge: " + message);
}

/// Behavioral probe of a no-CD schedule: its cycling hint and its
/// first 64 round probabilities. Two schedules that differ only in
/// parameters (e.g. decay over different network sizes) share a name
/// but diverge here, so the fingerprint sees the change.
std::uint64_t schedule_probe(const channel::ProbabilitySchedule& schedule) {
  Fnv1a h;
  h.u64(schedule.period());
  for (std::size_t round = 0; round < 64; ++round) {
    h.f64(schedule.probability(round));
  }
  return h.state;
}

/// Behavioral probe of a CD policy: its probabilities on a fixed,
/// deterministic family of short collision histories (all-collision,
/// all-silence, alternating, at depths 0..7) — enough to separate
/// same-named policies with different parameters.
std::uint64_t policy_probe(const channel::CollisionPolicy& policy) {
  Fnv1a h;
  for (std::size_t depth = 0; depth <= 7; ++depth) {
    for (int pattern = 0; pattern < 3; ++pattern) {
      channel::BitString history(depth);
      for (std::size_t r = 0; r < depth; ++r) {
        history[r] = pattern == 0 || (pattern == 2 && r % 2 == 0);
      }
      h.f64(policy.probability(history));
    }
  }
  return h.state;
}

}  // namespace

std::uint64_t grid_fingerprint(std::span<const SweepCell> cells) {
  Fnv1a h;
  h.u64(cells.size());
  // Contents hash once per distinct object; grids share schedules,
  // policies, and distributions across many cells.
  std::unordered_map<const info::SizeDistribution*, std::uint64_t> memo;
  std::unordered_map<const void*, std::uint64_t> algo_memo;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepCell& cell = cells[i];
    h.str(cell.algorithm.name);
    if (cell.algorithm.schedule != nullptr) {
      auto [it, inserted] = algo_memo.try_emplace(cell.algorithm.schedule, 0);
      if (inserted) it->second = schedule_probe(*cell.algorithm.schedule);
      h.u64(1);
      h.u64(it->second);
    } else if (cell.algorithm.policy != nullptr) {
      auto [it, inserted] = algo_memo.try_emplace(cell.algorithm.policy, 0);
      if (inserted) it->second = policy_probe(*cell.algorithm.policy);
      h.u64(2);
      h.u64(it->second);
    } else {
      h.u64(0);
    }
    h.str(cell.sizes.name);
    if (cell.sizes.distribution != nullptr) {
      auto [it, inserted] = memo.try_emplace(cell.sizes.distribution, 0);
      if (inserted) {
        // The compact support view, not the dense n+1 vector: the
        // paper's lifted distributions have ~log n support points in
        // a 2^16-wide table, and (n, support sizes, support masses)
        // determines the dense vector exactly.
        const info::SizeDistribution& dist = *cell.sizes.distribution;
        Fnv1a d;
        d.u64(dist.n());
        for (const std::uint32_t k : dist.support_sizes()) {
          d.u64(k);
          d.f64(dist.prob(k));
        }
        it->second = d.state;
      }
      h.u64(3);
      h.u64(it->second);
    } else {
      h.u64(4);
      h.u64(cell.sizes.fixed_k);
    }
    h.u64(cell.max_rounds);
    h.u64(cell.trials);
    h.u64(cell.seed_stream == kSeedStreamFromIndex ? i : cell.seed_stream);
  }
  return h.state;
}

ShardPlan plan_shards(std::span<const SweepCell> cells,
                      const ShardOptions& options) {
  if (cells.empty()) {
    throw std::invalid_argument("plan_shards: cannot shard an empty grid");
  }
  if (options.shard_count == 0) {
    throw std::invalid_argument("plan_shards: shard_count must be >= 1");
  }
  const bool begin_set = options.cell_begin != ShardOptions::kAutoRange;
  const bool end_set = options.cell_end != ShardOptions::kAutoRange;
  std::size_t begin = 0;
  std::size_t end = 0;
  if (begin_set || end_set) {
    if (!begin_set || !end_set) {
      throw std::invalid_argument(
          "plan_shards: cell_begin and cell_end must be set together");
    }
    if (options.cell_begin > options.cell_end ||
        options.cell_end > cells.size()) {
      throw std::invalid_argument(
          "plan_shards: explicit cell range [" +
          std::to_string(options.cell_begin) + ", " +
          std::to_string(options.cell_end) + ") is not within [0, " +
          std::to_string(cells.size()) + ")");
    }
    begin = options.cell_begin;
    end = options.cell_end;
  } else {
    if (options.shard_index >= options.shard_count) {
      throw std::invalid_argument(
          "plan_shards: shard_index " + std::to_string(options.shard_index) +
          " must be < shard_count " + std::to_string(options.shard_count));
    }
    // Balanced contiguous partition: disjoint, covering, and stable —
    // a pure function of (total cells, shard_count, shard_index).
    begin = options.shard_index * cells.size() / options.shard_count;
    end = (options.shard_index + 1) * cells.size() / options.shard_count;
  }
  ShardPlan plan{.shard_index = options.shard_index,
                 .shard_count = options.shard_count,
                 .cell_begin = begin,
                 .cell_end = end,
                 .total_cells = cells.size(),
                 .grid_hash = grid_fingerprint(cells),
                 .cells = {}};
  plan.cells.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    SweepCell cell = cells[i];
    // The determinism keystone: a sharded cell's seed stream is its
    // *global* grid index (or its explicit pin), never its position
    // within the shard — so every shard reproduces the full-grid
    // seeds bit for bit.
    cell.seed_stream = cell.seed_stream == kSeedStreamFromIndex
                           ? i
                           : pinned_seed_stream(cell.seed_stream);
    plan.cells.push_back(std::move(cell));
  }
  return plan;
}

std::string shard_artifact_stem(const ShardOptions& options) {
  if (options.cell_begin != ShardOptions::kAutoRange) {
    return "shard-cells-" + std::to_string(options.cell_begin) + "-" +
           std::to_string(options.cell_end);
  }
  return "shard-" + std::to_string(options.shard_index) + "-of-" +
         std::to_string(options.shard_count);
}

std::string engine_name(NoCdEngine engine) {
  switch (engine) {
    case NoCdEngine::kBinomial: return "binomial";
    case NoCdEngine::kPerPlayer: return "per-player";
    case NoCdEngine::kBatch: return "batch";
  }
  throw std::invalid_argument("unknown NoCdEngine");
}

std::string engine_name(CdEngine engine) {
  switch (engine) {
    case CdEngine::kSimulate: return "simulate";
    case CdEngine::kHistoryTree: return "history-tree";
  }
  throw std::invalid_argument("unknown CdEngine");
}

RunIdentity::RunIdentity(std::uint64_t grid_hash, std::size_t total_cells,
                         const SweepOptions& options)
    : grid_hash(grid_hash),
      master_seed(options.seed),
      trials(options.trials),
      total_cells(total_cells),
      engine(engine_name(options.engine)),
      cd_engine(engine_name(options.cd_engine)) {}

void check_same_run(const RunIdentity& expected, const RunIdentity& found,
                    const std::string& context) {
  const auto fail = [&](const std::string& field, const std::string& got,
                        const std::string& want, const std::string& why) {
    throw std::invalid_argument(context + ": " + field + " " + got +
                                " != " + want + " — " + why);
  };
  if (found.grid_hash != expected.grid_hash) {
    fail("grid fingerprint", hex_u64(found.grid_hash),
         hex_u64(expected.grid_hash),
         "the artifacts were produced from different grids");
  }
  if (found.master_seed != expected.master_seed) {
    fail("master seed", hex_u64(found.master_seed),
         hex_u64(expected.master_seed),
         "run every part under one master seed");
  }
  if (found.trials != expected.trials) {
    fail("trials", std::to_string(found.trials),
         std::to_string(expected.trials),
         "run every part with one trial count");
  }
  if (found.total_cells != expected.total_cells) {
    fail("total cells", std::to_string(found.total_cells),
         std::to_string(expected.total_cells),
         "the artifacts were produced from grids of different sizes");
  }
  if (found.engine != expected.engine ||
      found.cd_engine != expected.cd_engine) {
    fail("engine configuration",
         "(" + found.engine + ", " + found.cd_engine + ")",
         "(" + expected.engine + ", " + expected.cd_engine + ")",
         "engines agree only up to Monte-Carlo noise; run every part "
         "under one configuration");
  }
}

// ---- manifest JSON ----

namespace {

constexpr const char* kManifestFormat = "crp-shard-manifest-v1";

/// The manifest schema over the shared strict reader: one flat object
/// whose values are strings, plain non-negative integers, or an array
/// of hex strings. Unknown, duplicate, or missing fields, signs,
/// decimal points, exponents, and bare words such as nan are all
/// rejected with the offending field named, so a corrupted manifest
/// fails the merge instead of poisoning it.
constexpr StrictJson kManifestJson("shard manifest", "manifest field");

}  // namespace

void write_shard_manifest(std::ostream& out, const ShardManifest& manifest) {
  out << "{\n"
      << "  \"format\": \"" << kManifestFormat << "\",\n"
      << "  \"csv\": \"" << json_escape(manifest.csv) << "\",\n"
      << "  \"engine\": \"" << json_escape(manifest.engine) << "\",\n"
      << "  \"cd_engine\": \"" << json_escape(manifest.cd_engine) << "\",\n"
      << "  \"grid_hash\": \"" << hex_u64(manifest.grid_hash) << "\",\n"
      << "  \"master_seed\": \"" << hex_u64(manifest.master_seed) << "\",\n"
      << "  \"trials\": " << manifest.trials << ",\n"
      << "  \"total_cells\": " << manifest.total_cells << ",\n"
      << "  \"shard_index\": " << manifest.shard_index << ",\n"
      << "  \"shard_count\": " << manifest.shard_count << ",\n"
      << "  \"cell_begin\": " << manifest.cell_begin << ",\n"
      << "  \"cell_end\": " << manifest.cell_end << ",\n"
      << "  \"cell_seeds\": [";
  for (std::size_t i = 0; i < manifest.cell_seeds.size(); ++i) {
    if (i > 0) out << ", ";
    out << '"' << hex_u64(manifest.cell_seeds[i]) << '"';
  }
  out << "]\n}\n";
}

ShardManifest read_shard_manifest(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const Json root = kManifestJson.parse(buffer.str());
  kManifestJson.reject_unknown(
      root,
      {"format", "csv", "engine", "cd_engine", "grid_hash", "master_seed",
       "trials", "total_cells", "shard_index", "shard_count", "cell_begin",
       "cell_end", "cell_seeds"},
      {});
  const auto desc = [](const char* key) {
    return "field \"" + std::string(key) + "\"";
  };
  const auto field = [&](const char* key) -> const Json& {
    return kManifestJson.require(root, key, {});
  };
  const auto text = [&](const char* key) {
    return kManifestJson.get_string(field(key), desc(key));
  };
  const auto uint = [&](const char* key) {
    return kManifestJson.get_uint(field(key), desc(key));
  };
  const auto hex_field = [&](const char* key) {
    return kManifestJson.get_hex_u64(field(key), desc(key));
  };

  if (text("format") != kManifestFormat) {
    kManifestJson.fail_at(field("format"),
                          "unsupported manifest format \"" + text("format") +
                              "\" (expected \"" + kManifestFormat + "\")");
  }
  ShardManifest manifest;
  // The CSV is opened relative to the manifest's directory, so its
  // name must not lead anywhere else.
  manifest.csv = text("csv");
  const std::string& csv = manifest.csv;
  if (csv.empty() || csv == "." || csv == ".." ||
      csv.find('/') != std::string::npos ||
      csv.find('\0') != std::string::npos) {
    kManifestJson.fail_at(field("csv"), desc("csv") +
                                            " must be a bare file name, " +
                                            "got \"" + json_escape(csv) +
                                            "\"");
  }
  manifest.engine = text("engine");
  manifest.cd_engine = text("cd_engine");
  manifest.grid_hash = hex_field("grid_hash");
  manifest.master_seed = hex_field("master_seed");
  manifest.trials = uint("trials");
  manifest.total_cells = uint("total_cells");
  manifest.shard_index = uint("shard_index");
  manifest.shard_count = uint("shard_count");
  manifest.cell_begin = uint("cell_begin");
  manifest.cell_end = uint("cell_end");
  const Json& seeds = kManifestJson.expect_kind(
      field("cell_seeds"), Json::Kind::kArray, desc("cell_seeds"));
  manifest.cell_seeds.reserve(seeds.items.size());
  for (std::size_t i = 0; i < seeds.items.size(); ++i) {
    manifest.cell_seeds.push_back(kManifestJson.get_hex_u64(
        seeds.items[i], desc("cell_seeds") + "[" + std::to_string(i) + "]"));
  }
  return manifest;
}

// ---- shard CSV re-reading and CSV-level merge ----

namespace {

[[noreturn]] void csv_error(std::size_t line_number,
                            const std::string& message) {
  throw std::invalid_argument("shard CSV line " +
                              std::to_string(line_number) + ": " + message);
}

std::uint64_t parse_csv_u64(const std::string& field, std::size_t line_number,
                            const std::string& column) {
  const auto value = parse_csv_unsigned(field);
  if (!value) {
    csv_error(line_number, column + " must be a plain non-negative 64-bit "
                                    "integer, got \"" + field + "\"");
  }
  return *value;
}

void check_csv_finite(const std::string& field, std::size_t line_number,
                      const std::string& column) {
  if (!parse_csv_finite(field)) {
    csv_error(line_number, "non-finite or non-numeric " + column + " \"" +
                               field + "\"");
  }
}

/// Reads one logical CSV record: a physical line, extended across
/// further lines while a quoted field is still open (an RFC-4180
/// quoted field may contain raw newlines — csv_quote emits them for
/// newline-bearing names). Open-quote detection is the parity of the
/// record's double quotes: a complete record contains an even number
/// (opening/closing pairs plus doubled escapes). Returns false at end
/// of input; `lines_read` reports physical lines consumed.
bool read_csv_record(std::istream& in, std::string& record,
                     std::size_t& lines_read) {
  lines_read = 0;
  if (!std::getline(in, record)) return false;
  lines_read = 1;
  auto quote_count = [](const std::string& s) {
    return std::count(s.begin(), s.end(), '"');
  };
  auto quotes = quote_count(record);
  std::string more;
  while (quotes % 2 == 1 && std::getline(in, more)) {
    record += '\n';
    record += more;
    ++lines_read;
    quotes += quote_count(more);
  }
  return true;
}

}  // namespace

ShardCsv read_shard_csv(std::istream& in) {
  ShardCsv csv;
  if (!std::getline(in, csv.header)) {
    throw std::invalid_argument("shard CSV: empty input (no header row)");
  }
  const auto header = split_csv_row(csv.header);
  std::size_t seed_column = header.size();
  for (std::size_t c = 0; c < header.size(); ++c) {
    if (header[c] == "cell_seed") seed_column = c;
  }
  if (seed_column == header.size()) {
    throw std::invalid_argument(
        "shard CSV: header lacks a cell_seed column: " + csv.header);
  }
  // Numeric-column guard, keyed by header name so the check follows
  // any future column reordering.
  const auto is_uint_column = [](const std::string& name) {
    return name == "budget" || name == "trials" || name == "cell_seed";
  };
  const auto is_double_column = [](const std::string& name) {
    return name == "mean" || name == "ci95" || name == "p50" ||
           name == "p90" || name == "p99" || name == "success_rate";
  };
  std::string line;
  std::size_t line_number = 1;
  std::size_t lines_read = 0;
  while (read_csv_record(in, line, lines_read)) {
    line_number += lines_read;
    if (line.empty()) continue;
    const auto fields = split_csv_row(line);
    if (fields.size() != header.size()) {
      csv_error(line_number,
                "expected " + std::to_string(header.size()) +
                    " fields, got " + std::to_string(fields.size()));
    }
    for (std::size_t c = 0; c < fields.size(); ++c) {
      if (is_uint_column(header[c])) {
        (void)parse_csv_u64(fields[c], line_number, header[c]);
      } else if (is_double_column(header[c])) {
        check_csv_finite(fields[c], line_number, header[c]);
      }
    }
    csv.row_seeds.push_back(
        parse_csv_u64(fields[seed_column], line_number, "cell_seed"));
    csv.rows.push_back(line);
  }
  return csv;
}

ShardArtifact read_shard_artifact_file(const std::string& manifest_path) {
  std::ifstream manifest_in(manifest_path);
  if (!manifest_in) {
    throw IoError("cannot open manifest " + manifest_path);
  }
  ShardArtifact shard;
  try {
    shard.manifest = read_shard_manifest(manifest_in);
  } catch (const std::invalid_argument& error) {
    // Corruption errors must name the file, not just the field.
    throw std::invalid_argument(manifest_path + ": " + error.what());
  }
  const auto csv_path =
      std::filesystem::path(manifest_path).parent_path() / shard.manifest.csv;
  std::ifstream csv_in(csv_path);
  if (!csv_in) {
    throw IoError("cannot open shard CSV " + csv_path.string() +
                  " (named by " + manifest_path + ")");
  }
  try {
    shard.csv = read_shard_csv(csv_in);
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument(csv_path.string() + ": " + error.what());
  }
  return shard;
}

PartialMergeReport merge_shard_csvs_partial(
    std::ostream& out, std::span<const ShardArtifact> shards) {
  if (shards.empty()) merge_error("no shards given");
  const ShardManifest& ref = shards.front().manifest;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const ShardManifest& m = shards[s].manifest;
    const std::string shard = "shard " + std::to_string(s);
    check_same_run(ref, m, "shard merge: " + shard);
    if (m.cell_begin > m.cell_end || m.cell_end > m.total_cells) {
      merge_error(shard + ": cell range [" + std::to_string(m.cell_begin) +
                  ", " + std::to_string(m.cell_end) + ") is not within [0, " +
                  std::to_string(m.total_cells) + ")");
    }
    if (m.cell_seeds.size() != m.cell_end - m.cell_begin) {
      merge_error(shard + ": manifest records " +
                  std::to_string(m.cell_seeds.size()) +
                  " cell seeds for a range of " +
                  std::to_string(m.cell_end - m.cell_begin) + " cells");
    }
  }

  // The ranges in cell order must not overlap; uncovered cells go to
  // the report. Tie-break equal begins by end so an *empty* shard
  // ([x, x) — legal when shard_count exceeds the cell count) sorts
  // before the non-empty shard starting at x; begin-only ordering
  // could place it after and misreport the valid set as overlapping.
  std::vector<std::size_t> order(shards.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const ShardManifest& ma = shards[a].manifest;
    const ShardManifest& mb = shards[b].manifest;
    return ma.cell_begin != mb.cell_begin ? ma.cell_begin < mb.cell_begin
                                          : ma.cell_end < mb.cell_end;
  });
  PartialMergeReport report{.grid_hash = ref.grid_hash,
                            .total_cells = ref.total_cells,
                            .present_cells = 0,
                            .missing = {}};
  std::size_t covered = 0;
  for (const std::size_t s : order) {
    const ShardManifest& m = shards[s].manifest;
    if (m.cell_begin < covered) {
      merge_error("overlap: shard " + std::to_string(s) + " starts at cell " +
                  std::to_string(m.cell_begin) + " but cells up to " +
                  std::to_string(covered) +
                  " are already covered by another shard");
    }
    if (m.cell_begin > covered) {
      report.missing.push_back({covered, m.cell_begin});
    }
    report.present_cells += m.cell_end - m.cell_begin;
    covered = m.cell_end;
  }
  if (covered != ref.total_cells) {
    report.missing.push_back({covered, ref.total_cells});
  }

  // Each CSV must agree with shard 0's header and with its manifest.
  const std::string& header = shards.front().csv.header;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const ShardManifest& m = shards[s].manifest;
    const ShardCsv& csv = shards[s].csv;
    if (csv.header != header) {
      merge_error("shard " + std::to_string(s) + ": CSV header \"" +
                  csv.header + "\" differs from shard 0's \"" + header +
                  "\"");
    }
    if (csv.rows.size() != m.cell_end - m.cell_begin) {
      merge_error("shard " + std::to_string(s) + ": CSV has " +
                  std::to_string(csv.rows.size()) +
                  " rows for a manifest range of " +
                  std::to_string(m.cell_end - m.cell_begin) + " cells");
    }
    for (std::size_t j = 0; j < csv.row_seeds.size(); ++j) {
      if (csv.row_seeds[j] != m.cell_seeds[j]) {
        merge_error("shard " + std::to_string(s) + ": CSV row for cell " +
                    std::to_string(m.cell_begin + j) + " carries cell_seed " +
                    hex_u64(csv.row_seeds[j]) + " but the manifest records " +
                    hex_u64(m.cell_seeds[j]));
      }
    }
  }

  // Rows pass through verbatim: with no gaps, the merged file is
  // byte-identical to the monolithic write_sweep_csv output.
  out << header << '\n';
  for (const std::size_t s : order) {
    for (const std::string& row : shards[s].csv.rows) out << row << '\n';
  }
  return report;
}

void merge_shard_csvs(std::ostream& out,
                      std::span<const ShardArtifact> shards) {
  std::ostringstream merged;
  const PartialMergeReport report = merge_shard_csvs_partial(merged, shards);
  if (!report.missing.empty()) {
    const MissingCellRange& gap = report.missing.front();
    merge_error("gap: cells [" + std::to_string(gap.begin) + ", " +
                std::to_string(gap.end) +
                ") are covered by no shard — a shard is missing");
  }
  out << merged.str();
}

void write_partial_merge_report(std::ostream& out,
                                const PartialMergeReport& report) {
  out << "{\n"
      << "  \"format\": \"crp-partial-merge-v1\",\n"
      << "  \"grid_hash\": \"" << hex_u64(report.grid_hash) << "\",\n"
      << "  \"total_cells\": " << report.total_cells << ",\n"
      << "  \"present_cells\": " << report.present_cells << ",\n"
      << "  \"missing_ranges\": [";
  for (std::size_t i = 0; i < report.missing.size(); ++i) {
    if (i > 0) out << ", ";
    out << '[' << report.missing[i].begin << ", " << report.missing[i].end
        << ']';
  }
  out << "]\n}\n";
}

}  // namespace crp::harness
