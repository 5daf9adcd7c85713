#include "harness/framed_journal.h"

#include <filesystem>
#include <stdexcept>
#include <utility>

#include "harness/checkpoint.h"
#include "harness/csv.h"

namespace crp::harness {

namespace {

/// Newline, '.', newline: the seal after every framed payload.
constexpr std::string_view kEndMarker = "\n.\n";

/// Splits a complete journal line on single spaces.
std::vector<std::string> split_fields(std::string_view line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (start <= line.size()) {
    const auto space = line.find(' ', start);
    if (space == std::string_view::npos) {
      fields.emplace_back(line.substr(start));
      break;
    }
    fields.emplace_back(line.substr(start, space - start));
    start = space + 1;
  }
  return fields;
}

}  // namespace

std::string journal_line(std::initializer_list<std::string_view> fields) {
  std::string out;
  for (const std::string_view field : fields) {
    if (!out.empty()) out += ' ';
    out += field;
  }
  out += '\n';
  return out;
}

std::string journal_block(std::initializer_list<std::string_view> fields,
                          std::string_view payload) {
  std::string out = journal_line(fields);
  out += payload;
  out += kEndMarker;
  return out;
}

void truncate_torn_tail(const std::string& path, std::size_t valid_bytes,
                        std::size_t torn_bytes) {
  if (torn_bytes == 0) return;
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  if (ec) {
    throw IoError("cannot truncate torn tail of " + path + ": " +
                  ec.message());
  }
}

FramedJournalReader::FramedJournalReader(std::string kind, std::string path)
    : kind_(std::move(kind)),
      path_(std::move(path)),
      text_(read_whole_file(path_, kind_ + " journal")) {}

void FramedJournalReader::fail(std::size_t offset,
                               const std::string& message) const {
  throw std::invalid_argument(kind_ + " journal " + path_ + " at byte " +
                              std::to_string(offset) + ": " + message);
}

std::optional<std::string_view> FramedJournalReader::next_line() {
  const auto nl = text_.find('\n', pos_);
  if (nl == std::string::npos) return std::nullopt;
  const std::string_view line(text_.data() + pos_, nl - pos_);
  pos_ = nl + 1;
  return line;
}

std::vector<std::string> FramedJournalReader::header(std::string_view magic,
                                                     std::size_t count) {
  const auto line = next_line();
  if (!line) {
    fail(0, "incomplete header line (the header is written atomically — "
            "this file is damaged, not torn)");
  }
  auto fields = split_fields(*line);
  if (fields.size() != count || fields[0] != magic) {
    fail(0, "not a " + std::string(magic) + " header: \"" +
                std::string(*line) + "\"");
  }
  return fields;
}

std::uint64_t FramedJournalReader::field_uint(const std::string& field,
                                              std::size_t offset,
                                              const std::string& what) const {
  const auto value = parse_csv_unsigned(field);
  if (!value) {
    fail(offset, what + " must be a plain non-negative integer, got \"" +
                     field + "\"");
  }
  return *value;
}

std::uint64_t FramedJournalReader::field_hex(const std::string& field,
                                             std::size_t offset,
                                             const std::string& what) const {
  const auto value = parse_hex_u64(field);
  if (!value) {
    fail(offset, what + " must be an \"0x...\" lowercase hex value, got \"" +
                     field + "\"");
  }
  return *value;
}

std::optional<std::string> FramedJournalReader::payload(std::size_t offset,
                                                        std::size_t length) {
  // Never compute pos_ + length directly: a flipped length may be huge.
  if (length > text_.size() - pos_ ||
      kEndMarker.size() > text_.size() - pos_ - length) {
    return std::nullopt;  // the file ends inside payload or marker
  }
  if (text_.compare(pos_ + length, kEndMarker.size(), kEndMarker) != 0) {
    fail(offset,
         "end-of-record marker missing — the record is damaged, not torn "
         "(bytes continue past where it should end)");
  }
  std::string out = text_.substr(pos_, length);
  pos_ += length + kEndMarker.size();
  return out;
}

JournalExtent FramedJournalReader::read_records(
    const std::function<bool(const Record&)>& parse) {
  JournalExtent extent{.valid_bytes = pos_, .torn_bytes = 0};
  while (pos_ < text_.size()) {
    Record record;
    record.offset = pos_;
    const auto line = next_line();
    if (!line) break;  // torn: the file ends mid-line
    record.line = *line;
    record.fields = split_fields(*line);
    if (!parse(record)) break;  // torn: the payload never finished
    extent.valid_bytes = pos_;
  }
  extent.torn_bytes = text_.size() - extent.valid_bytes;
  return extent;
}

}  // namespace crp::harness
