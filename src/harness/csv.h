// CSV import/export: load learned size distributions produced by an
// external model, and export measurement sweeps for plotting. Formats:
//
//   distribution CSV:  header optional, rows "size,probability"
//                      (sizes in [2, n]; probabilities renormalized)
//   measurement CSV:   one header row then one row per sweep point.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/measure.h"
#include "info/distribution.h"

namespace crp::harness {

/// Parses a distribution from "size,probability" rows. `n` is the
/// maximum network size; rows must satisfy 2 <= size <= n. Lines that
/// are empty, start with '#', or form a non-numeric header are skipped.
/// Probabilities are renormalized to sum to 1.
/// Throws std::invalid_argument on malformed rows.
info::SizeDistribution read_size_distribution_csv(std::istream& in,
                                                  std::size_t n);

/// Convenience: reads from a file path.
info::SizeDistribution read_size_distribution_csv_file(
    const std::string& path, std::size_t n);

/// The one support-table validator behind every entry point that
/// builds a SizeDistribution from explicit (size, probability) rows —
/// read_size_distribution_csv and the grid-spec inline support tables
/// (harness/gridspec.h) — so the acceptance rules cannot drift between
/// the two: sizes must be integers in [2, n] (finiteness checked
/// before any comparison, so NaN cannot slip past an ordering test),
/// probabilities finite and non-negative, duplicate sizes accumulate,
/// and the total renormalizes to exactly mass 1 at build time.
class SupportTableBuilder {
 public:
  /// `n` is the maximum network size; throws std::invalid_argument
  /// when n < 2.
  explicit SupportTableBuilder(std::size_t n);

  /// Validates and accumulates one entry. `where` prefixes any
  /// rejection (the CSV reader passes "line N", the grid-spec reader
  /// the offending field's name and position).
  void add(double size, double probability, const std::string& where);

  /// Renormalizes and builds the distribution. Throws
  /// std::invalid_argument when no positive-probability entry was
  /// added; `where` prefixes the error when non-empty.
  info::SizeDistribution build(const std::string& where = {}) const;

  /// True until the first successfully validated entry.
  bool empty() const { return !saw_data_; }

 private:
  std::vector<double> probs_;
  double total_ = 0.0;
  bool saw_data_ = false;
};

/// Strict numeric field parsing, shared by the distribution reader,
/// the shard manifest/CSV readers (harness/shard.h), and CLI flag
/// parsing. parse_csv_unsigned accepts plain decimal digits only —
/// no sign, point, exponent, or words like nan/inf — and nullopt's
/// on anything else (including 64-bit overflow). parse_csv_finite
/// accepts exactly what strtod fully consumes *and* is finite:
/// "nan"/"inf" parse but are rejected, because a NaN slips through
/// ordering checks and poisons aggregates.
std::optional<std::uint64_t> parse_csv_unsigned(const std::string& field);
std::optional<double> parse_csv_finite(const std::string& field);

/// The one 64-bit hex grammar every on-disk format shares (manifests,
/// grid specs, both journals, plan output): "0x" followed by 1 to 16
/// *lowercase* hex digits. hex_u64 writes it (no leading zeros, so 0
/// is "0x0"); parse_hex_u64 reads it back and nullopt's on anything
/// else — a sign, an empty or over-long digit run, and uppercase. The
/// case rule is a corruption guard: a 0x20 bit flip turns 'a' into
/// 'A', and because journal checksums cover the parsed value rather
/// than the bytes, a case-insensitive reader would accept the flip.
std::string hex_u64(std::uint64_t value);
std::optional<std::uint64_t> parse_hex_u64(std::string_view field);

/// Minimal RFC-4180 quoting: a field containing a comma, double quote,
/// CR, or LF is wrapped in double quotes with embedded quotes doubled;
/// any other field passes through unchanged (so existing all-plain
/// outputs are byte-stable). CsvWriter applies this to every header
/// and row cell.
std::string csv_quote(const std::string& field);

/// Quote-aware inverse of csv_quote over one CSV line: splits on
/// unquoted commas and unescapes quoted fields (doubled quotes, and
/// commas inside quotes survive). Unlike the lenient distribution
/// parser it preserves whitespace and empty trailing fields exactly.
/// Throws std::invalid_argument on an unterminated quote or trailing
/// garbage after a closing quote.
std::vector<std::string> split_csv_row(const std::string& line);

/// One serialized CSV row (no trailing newline): cells joined with
/// commas, each through csv_quote. This is *the* row serialization —
/// CsvWriter::row and the sweep/checkpoint layers all emit rows
/// through it, so a row journaled per cell (harness/checkpoint.h) is
/// byte-identical to the same row inside a full write_sweep_csv dump.
std::string csv_row_string(const std::vector<std::string>& cells);

/// A row-oriented CSV writer for sweep results. Cells are quoted with
/// csv_quote on the way out, so algorithm/size-source names containing
/// commas or quotes round-trip through split_csv_row instead of
/// silently corrupting the row.
class CsvWriter {
 public:
  CsvWriter(std::ostream& out, std::vector<std::string> header);

  /// Appends one row; must match the header width.
  void row(const std::vector<std::string>& cells);

  /// Convenience: a measurement summary as columns
  /// mean,ci95,p50,p90,p99,success_rate.
  static std::vector<std::string> measurement_cells(const Measurement& m);
  static std::vector<std::string> measurement_header();

 private:
  std::ostream& out_;
  std::size_t columns_;
};

}  // namespace crp::harness
