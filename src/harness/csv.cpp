#include "harness/csv.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "harness/table.h"

namespace crp::harness {

namespace {

/// Splits "a,b" into trimmed fields.
std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream stream(line);
  while (std::getline(stream, field, ',')) {
    const auto first = field.find_first_not_of(" \t\r");
    const auto last = field.find_last_not_of(" \t\r");
    fields.push_back(first == std::string::npos
                         ? std::string{}
                         : field.substr(first, last - first + 1));
  }
  return fields;
}

bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  (void)std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

/// Contextual wrapper over parse_csv_finite for distribution rows:
/// "nan" slips through every ordering comparison (NaN < 0 is false)
/// and poisons the normalization total, "inf" overflows it — both are
/// malformed input, not probabilities.
double parse_finite(const std::string& field, std::size_t line_number,
                    const char* what) {
  const auto value = parse_csv_finite(field);
  if (!value) {
    throw std::invalid_argument("line " + std::to_string(line_number) +
                                ": non-finite " + std::string(what) + " \"" +
                                field + "\"");
  }
  return *value;
}

}  // namespace

std::optional<std::uint64_t> parse_csv_unsigned(const std::string& field) {
  if (field.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : field) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;  // overflow
    }
    value = value * 10 + digit;
  }
  return value;
}

std::optional<double> parse_csv_finite(const std::string& field) {
  if (field.empty()) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(field.c_str(), &end);
  if (end != field.c_str() + field.size() || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::string hex_u64(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

std::optional<std::uint64_t> parse_hex_u64(std::string_view field) {
  if (field.size() < 3 || field.size() > 18 || !field.starts_with("0x")) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  for (const char c : field.substr(2)) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return std::nullopt;
    }
    value = value * 16 + static_cast<std::uint64_t>(digit);
  }
  return value;
}

SupportTableBuilder::SupportTableBuilder(std::size_t n) {
  if (n < 2) throw std::invalid_argument("network size must be >= 2");
  probs_.assign(n + 1, 0.0);
}

void SupportTableBuilder::add(double size, double probability,
                              const std::string& where) {
  const auto reject = [&](const char* message) {
    throw std::invalid_argument(where + ": " + message);
  };
  // Finiteness first: NaN compares false against every bound below,
  // so an ordering-only check would wave it through.
  if (!std::isfinite(size)) reject("non-finite size");
  if (!std::isfinite(probability)) reject("non-finite probability");
  const std::size_t n = probs_.size() - 1;
  if (size < 2.0 || size > static_cast<double>(n) ||
      size != std::floor(size)) {
    reject("size must be an integer in [2, n]");
  }
  if (probability < 0.0) reject("negative probability");
  probs_[static_cast<std::size_t>(size)] += probability;
  total_ += probability;
  saw_data_ = true;
}

info::SizeDistribution SupportTableBuilder::build(
    const std::string& where) const {
  if (!saw_data_ || total_ <= 0.0) {
    throw std::invalid_argument(
        (where.empty() ? std::string{} : where + ": ") +
        "no positive-probability rows found");
  }
  std::vector<double> probs = probs_;
  for (double& p : probs) p /= total_;
  return info::SizeDistribution(std::move(probs));
}

info::SizeDistribution read_size_distribution_csv(std::istream& in,
                                                  std::size_t n) {
  SupportTableBuilder builder(n);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    const auto fields = split_csv_line(line);
    if (fields.size() != 2) {
      throw std::invalid_argument("line " + std::to_string(line_number) +
                                  ": expected \"size,probability\"");
    }
    if (!looks_numeric(fields[0]) || !looks_numeric(fields[1])) {
      if (builder.empty()) continue;  // tolerate a single header row
      throw std::invalid_argument("line " + std::to_string(line_number) +
                                  ": non-numeric row after data");
    }
    const double size_value = parse_finite(fields[0], line_number, "size");
    const double prob = parse_finite(fields[1], line_number, "probability");
    builder.add(size_value, prob, "line " + std::to_string(line_number));
  }
  return builder.build();
}

info::SizeDistribution read_size_distribution_csv_file(
    const std::string& path, std::size_t n) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot open distribution file: " + path);
  }
  return read_size_distribution_csv(in, n);
}

std::string csv_quote(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string quoted;
  quoted.reserve(field.size() + 2);
  quoted.push_back('"');
  for (const char c : field) {
    if (c == '"') quoted.push_back('"');
    quoted.push_back(c);
  }
  quoted.push_back('"');
  return quoted;
}

std::vector<std::string> split_csv_row(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::size_t i = 0;
  while (true) {
    field.clear();
    if (i < line.size() && line[i] == '"') {
      ++i;  // opening quote
      bool closed = false;
      while (i < line.size()) {
        if (line[i] == '"') {
          if (i + 1 < line.size() && line[i + 1] == '"') {
            field.push_back('"');
            i += 2;
          } else {
            ++i;  // closing quote
            closed = true;
            break;
          }
        } else {
          field.push_back(line[i++]);
        }
      }
      if (!closed) {
        throw std::invalid_argument("unterminated quoted CSV field: " + line);
      }
      if (i < line.size() && line[i] != ',') {
        throw std::invalid_argument(
            "garbage after closing quote in CSV field: " + line);
      }
    } else {
      while (i < line.size() && line[i] != ',') field.push_back(line[i++]);
    }
    fields.push_back(field);
    if (i >= line.size()) break;
    ++i;  // the comma
    if (i == line.size()) {  // trailing comma: final empty field
      fields.emplace_back();
      break;
    }
  }
  return fields;
}

std::string csv_row_string(const std::vector<std::string>& cells) {
  std::string row;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c > 0) row.push_back(',');
    row += csv_quote(cells[c]);
  }
  return row;
}

CsvWriter::CsvWriter(std::ostream& out, std::vector<std::string> header)
    : out_(out), columns_(header.size()) {
  if (header.empty()) {
    throw std::invalid_argument("CSV needs at least one column");
  }
  out_ << csv_row_string(header) << '\n';
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  if (cells.size() != columns_) {
    throw std::invalid_argument("row width does not match header");
  }
  out_ << csv_row_string(cells) << '\n';
}

std::vector<std::string> CsvWriter::measurement_header() {
  return {"mean", "ci95", "p50", "p90", "p99", "success_rate"};
}

std::vector<std::string> CsvWriter::measurement_cells(
    const Measurement& m) {
  return {fmt(m.rounds.mean, 4), fmt(m.rounds.ci95, 4),
          fmt(m.rounds.p50, 1),  fmt(m.rounds.p90, 1),
          fmt(m.rounds.p99, 1),  fmt(m.success_rate, 4)};
}

}  // namespace crp::harness
