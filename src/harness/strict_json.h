// The one strict JSON reader behind every JSON artifact the toolchain
// reads back: crp-grid-spec-v1 (harness/gridspec.h) and
// crp-shard-manifest-v1 (harness/shard.h). A format is a schema over
// this module: parse the text into a position-carrying tree, then walk
// it with the schema helpers below.
//
// The tokenizer accepts exactly objects, arrays, strings, and numbers.
// Everything else — true/false/null, bare words such as nan or inf,
// duplicate keys, unescaped control characters, trailing content,
// nesting deeper than kJsonMaxDepth — is rejected at the line/column
// where it occurs, with the enclosing dotted field path named (for
// example `sizes.tab.entries[1][1]`). Numbers are kept as raw tokens;
// the schema helpers validate them through the same parse_csv_unsigned
// / parse_csv_finite / parse_hex_u64 (harness/csv.h) the CSV and
// journal readers use, so every format shares one numeric grammar.
//
/// Thread-safety: StrictJson is an immutable value; parsing and the
/// schema helpers are pure functions of their arguments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace crp::harness {

/// The deepest bracket nesting the tokenizer accepts. A constant, not
/// a knob: the deepest legal grid spec is 5 levels (root, "sizes", a
/// name, "entries", a pair), and the bound keeps a file of 10^5 '['
/// characters a named rejection instead of a stack overflow.
inline constexpr std::size_t kJsonMaxDepth = 64;

struct JsonMember;

/// One parsed value and the line/column where it starts.
struct Json {
  enum class Kind { kObject, kArray, kString, kNumber };
  Kind kind = Kind::kString;
  std::size_t line = 1;
  std::size_t column = 1;
  std::string text;                 // string contents, or the raw number token
  std::vector<JsonMember> members;  // kObject, in file order
  std::vector<Json> items;          // kArray
};

struct JsonMember {
  std::string key;
  std::size_t line = 1;
  std::size_t column = 1;
  Json value;
};

/// One on-disk JSON format's reader. `format` prefixes every error
/// ("grid spec: line 3, column 7: ..."); `field` is the noun schema
/// errors use for a member ("missing field ...", or "missing manifest
/// field ..."). A `what` argument names the enclosing object in schema
/// errors ("... of cell [2]"); an empty `what` means the root.
class StrictJson {
 public:
  constexpr explicit StrictJson(const char* format,
                                const char* field = "field")
      : format_(format), field_(field) {}

  /// Parses `text`, whose top level must be one object.
  Json parse(std::string_view text) const;

  /// "<format>: line L, column C" for `at`.
  std::string where(const Json& at) const;
  [[noreturn]] void fail_at(const Json& at, const std::string& message) const;

  static const Json* find(const Json& object, std::string_view key);
  const Json& require(const Json& object, const std::string& key,
                      const std::string& what) const;
  /// Rejects members outside `allowed` — a misspelled knob must fail
  /// by name, never silently fall back to a default.
  void reject_unknown(const Json& object,
                      std::initializer_list<const char*> allowed,
                      const std::string& what) const;

  /// Typed access: each rejects a wrong kind or an invalid value,
  /// naming `desc` (the field's description) and its position.
  const Json& expect_kind(const Json& value, Json::Kind kind,
                          const std::string& desc) const;
  std::string get_string(const Json& value, const std::string& desc) const;
  std::uint64_t get_uint(const Json& value, const std::string& desc) const;
  double get_finite(const Json& value, const std::string& desc) const;
  /// An "0x..." string carrying a full 64-bit value (JSON numbers are
  /// doubles and cannot), in the parse_hex_u64 grammar.
  std::uint64_t get_hex_u64(const Json& value, const std::string& desc) const;

  const char* format() const { return format_; }

  /// The schema error for member `key`: `<problem> <field> "key"`,
  /// then ` of <what>` unless `what` is empty.
  std::string member_error(const char* problem, const std::string& key,
                           const std::string& what) const;

 private:
  const char* format_;
  const char* field_;
};

/// JSON string escaping as every writer emits it ('"', '\\', and
/// control characters escaped; everything else verbatim), so every
/// JSON artifact the toolchain produces quotes strings identically.
std::string json_escape(const std::string& s);

}  // namespace crp::harness
