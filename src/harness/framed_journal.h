// The one framing behind every append-only journal: the worker
// checkpoint journal (harness/checkpoint.h) and the supervisor journal
// (crp-supervisor-journal-v1, harness/supervisor.h) are both schemas
// over this module.
//
// A journal opens with a header line of space-separated fields (the
// worker journal's also carries a payload, framed like a record's),
// written whole via atomic temp-file + rename, so never legally torn.
// Records follow. A record is one line of space-separated fields — a tag,
// the values, a payload length, an FNV-1a checksum — then the payload
// bytes, then the end marker (newline, '.', newline). Each record
// append is fsync'd, so after a crash the file is a valid prefix of
// records plus at most a detectably-torn tail: a record whose line,
// payload, or marker the file ends inside. Anything else — a complete
// line with bad fields, bytes where the marker should be, a checksum
// mismatch — is damage, and the reader rejects it naming the file and
// the record's byte offset rather than replaying it.
//
/// Thread-safety: FramedJournalReader holds its own copy of the file;
/// distinct readers are independent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace crp::harness {

/// One journal line: `fields` joined by single spaces, then '\n'. No
/// field may contain a space or a newline (engine names are
/// hyphenated).
std::string journal_line(std::initializer_list<std::string_view> fields);

/// One framed block: journal_line(fields), the payload bytes, then the
/// end marker — the completion seal a torn write cannot fake
/// (truncation removes it, and a write that stops inside it leaves a
/// detectably-short block).
std::string journal_block(std::initializer_list<std::string_view> fields,
                          std::string_view payload);

/// Where the valid prefix ends and how much torn tail follows it.
struct JournalExtent {
  std::size_t valid_bytes = 0;
  std::size_t torn_bytes = 0;  ///< 0 = clean
};

/// Cuts a torn tail a read reported (no-op when `torn_bytes` is 0),
/// so appends resume at a record boundary. Throws IoError.
void truncate_torn_tail(const std::string& path, std::size_t valid_bytes,
                        std::size_t torn_bytes);

/// Reads one journal file whole and walks its framing. Every rejection
/// is std::invalid_argument "<kind> journal PATH at byte N: ...".
class FramedJournalReader {
 public:
  /// `kind` names the journal in errors ("checkpoint", "supervisor").
  /// Throws IoError (harness/checkpoint.h) when the file cannot be
  /// opened or read.
  FramedJournalReader(std::string kind, std::string path);

  [[noreturn]] void fail(std::size_t offset, const std::string& message) const;

  /// The header line's fields. Rejects (at byte 0) a file that ends
  /// before the first newline, or a line that is not `count` fields
  /// starting with `magic`.
  std::vector<std::string> header(std::string_view magic, std::size_t count);

  /// Strict field values (harness/csv.h grammars), rejected at
  /// `offset` naming `what`.
  std::uint64_t field_uint(const std::string& field, std::size_t offset,
                           const std::string& what) const;
  std::uint64_t field_hex(const std::string& field, std::size_t offset,
                          const std::string& what) const;

  /// Consumes `length` payload bytes plus the end marker and returns
  /// the payload; nullopt when the file ends first (a torn record).
  /// Bytes other than the marker where it should be are damage.
  /// Overflow-safe: `length` may be a bit-flipped garbage value.
  std::optional<std::string> payload(std::size_t offset, std::size_t length);

  /// One complete record line: its byte offset and its fields.
  struct Record {
    std::size_t offset = 0;
    std::string_view line;
    std::vector<std::string> fields;
  };

  /// The record loop, from the current position to the end of the
  /// file. `parse` validates one record (consuming its payload) and
  /// returns false when the payload is torn. A line without its
  /// newline is torn too. Returns the valid prefix and the torn tail.
  JournalExtent read_records(const std::function<bool(const Record&)>& parse);

 private:
  std::optional<std::string_view> next_line();

  std::string kind_;
  std::string path_;
  std::string text_;
  std::size_t pos_ = 0;
};

}  // namespace crp::harness
