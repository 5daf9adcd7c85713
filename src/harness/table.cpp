#include "harness/table.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <iomanip>
#include <limits>
#include <ostream>
#include <span>
#include <stdexcept>
#include <vector>

namespace crp::harness {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) {
    throw std::invalid_argument("table needs at least one column");
  }
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw std::invalid_argument("row width does not match header");
  }
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
      if (c + 1 < row.size()) out << "  ";
    }
    out << '\n';
  };
  print_row(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w;
  total += 2 * (widths.size() - 1);
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string fmt(double value, int precision) {
  // printf's "%.*f" in the C locale, the text an ostringstream with
  // std::fixed writes, without building a stream per call. The longest
  // text is a sign, DBL_MAX's integer digits, the point and the
  // fraction (a negative precision means 6, as in printf).
  constexpr std::size_t kIntegerDigits =
      std::numeric_limits<double>::max_exponent10 + 1;
  std::array<char, kIntegerDigits + 64> stack;
  std::vector<char> heap;
  std::span<char> buffer = stack;
  const std::size_t longest =
      kIntegerDigits + 2 + static_cast<std::size_t>(std::max(precision, 6));
  if (longest > buffer.size()) {
    heap.resize(longest);
    buffer = heap;
  }
  char* const end = std::to_chars(buffer.data(),
                                  buffer.data() + buffer.size(), value,
                                  std::chars_format::fixed, precision)
                        .ptr;
  return std::string(buffer.data(), end);
}

std::string fmt(std::size_t value) { return std::to_string(value); }

}  // namespace crp::harness
