#include "harness/strict_json.h"

#include <cctype>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "harness/csv.h"

namespace crp::harness {

namespace {

std::string position(std::size_t line, std::size_t column) {
  return "line " + std::to_string(line) + ", column " +
         std::to_string(column);
}

/// Member-level errors point at the key, not at the value.
[[noreturn]] void fail_at_member(const StrictJson& format,
                                 const JsonMember& member,
                                 const std::string& message) {
  throw std::invalid_argument(std::string(format.format()) + ": " +
                              position(member.line, member.column) + ": " +
                              message);
}

class Tokenizer {
 public:
  Tokenizer(const StrictJson& format, std::string_view text)
      : format_(format), text_(text) {}

  Json parse() {
    const Json root = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing content after the top-level object");
    }
    if (root.kind != Json::Kind::kObject) {
      format_.fail_at(root, "the " + std::string(format_.format()) +
                                " must be a JSON object");
    }
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::string where;
    if (!path_.empty()) {
      where = " (in field \"";
      for (std::size_t i = 0; i < path_.size(); ++i) {
        if (i > 0 && path_[i][0] != '[') where += '.';
        where += path_[i];
      }
      where += "\")";
    }
    throw std::invalid_argument(std::string(format_.format()) + ": " +
                                position(line_, col_) + ": " + message +
                                where);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return eof() ? '\0' : text_[pos_]; }

  void advance() {
    if (text_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\r' ||
                      peek() == '\n')) {
      advance();
    }
  }

  void expect(char c) {
    skip_ws();
    if (peek() != c) {
      std::string message = "expected '";
      message.push_back(c);
      message += eof() ? "', got end of input"
                       : std::string("', got '") + peek() + "'";
      fail(message);
    }
    advance();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (!eof() && peek() != '"') {
      char c = peek();
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      advance();
      if (c == '\\') {
        if (eof()) break;
        const char esc = peek();
        advance();
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            // Accept \u00xx (one byte, what json_escape emits for
            // control characters); reject anything wider — no writer
            // emits it.
            unsigned code = 0;
            for (int d = 0; d < 4; ++d) {
              const char hc = peek();
              if (!std::isxdigit(static_cast<unsigned char>(hc))) {
                fail("malformed \\u escape in string");
              }
              code = code * 16 +
                     static_cast<unsigned>(hc <= '9'   ? hc - '0'
                                           : hc <= 'F' ? hc - 'A' + 10
                                                       : hc - 'a' + 10);
              advance();
            }
            if (code > 0xFF) fail("\\u escape beyond one byte in string");
            c = static_cast<char>(code);
            break;
          }
          default:
            fail("unsupported escape \\" + std::string(1, esc) +
                 " in string");
        }
      }
      out.push_back(c);
    }
    if (eof()) fail("unterminated string");
    advance();  // closing quote
    return out;
  }

  Json parse_value() {
    skip_ws();
    if (eof()) fail("unexpected end of input; expected a value");
    const char c = peek();
    if (c == '{' || c == '[') {
      // Bounded recursion: one stack frame per bracket, so the depth
      // limit is what keeps hostile input from overflowing the stack.
      if (depth_ == kJsonMaxDepth) {
        fail("nesting deeper than " + std::to_string(kJsonMaxDepth) +
             " levels");
      }
      ++depth_;
      Json nested = c == '{' ? parse_object() : parse_array();
      --depth_;
      return nested;
    }
    Json value;
    value.line = line_;
    value.column = col_;
    if (c == '"') {
      value.kind = Json::Kind::kString;
      value.text = parse_string();
      return value;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      value.kind = Json::Kind::kNumber;
      while (!eof() && (peek() == '-' || peek() == '+' || peek() == '.' ||
                        peek() == 'e' || peek() == 'E' ||
                        (peek() >= '0' && peek() <= '9'))) {
        value.text.push_back(peek());
        advance();
      }
      return value;
    }
    fail(std::string("unexpected character '") + c +
         "' — expected an object, array, string, or number "
         "(true/false/null and bare words such as nan or inf are not "
         "part of the " + format_.format() + " grammar)");
  }

  Json parse_object() {
    Json object;
    object.kind = Json::Kind::kObject;
    object.line = line_;
    object.column = col_;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      advance();
      return object;
    }
    while (true) {
      skip_ws();
      JsonMember member;
      member.line = line_;
      member.column = col_;
      member.key = parse_string();
      for (const JsonMember& existing : object.members) {
        if (existing.key == member.key) {
          fail_at_member(format_, member,
                         format_.member_error("duplicate", member.key, {}));
        }
      }
      expect(':');
      path_.push_back(member.key);
      member.value = parse_value();
      path_.pop_back();
      object.members.push_back(std::move(member));
      skip_ws();
      if (peek() == ',') {
        advance();
        continue;
      }
      expect('}');
      return object;
    }
  }

  Json parse_array() {
    Json array;
    array.kind = Json::Kind::kArray;
    array.line = line_;
    array.column = col_;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      advance();
      return array;
    }
    while (true) {
      // Appended, not "[" + ...: GCC 12 misreports that form (-Wrestrict).
      std::string index = "[";
      index += std::to_string(array.items.size());
      index += ']';
      path_.push_back(std::move(index));
      array.items.push_back(parse_value());
      path_.pop_back();
      skip_ws();
      if (peek() == ',') {
        advance();
        continue;
      }
      expect(']');
      return array;
    }
  }

  const StrictJson& format_;
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t col_ = 1;
  std::size_t depth_ = 0;
  std::vector<std::string> path_;
};

}  // namespace

Json StrictJson::parse(std::string_view text) const {
  return Tokenizer(*this, text).parse();
}

std::string StrictJson::where(const Json& at) const {
  return std::string(format_) + ": " + position(at.line, at.column);
}

void StrictJson::fail_at(const Json& at, const std::string& message) const {
  throw std::invalid_argument(where(at) + ": " + message);
}

std::string StrictJson::member_error(const char* problem,
                                     const std::string& key,
                                     const std::string& what) const {
  std::string message =
      std::string(problem) + " " + field_ + " \"" + key + "\"";
  if (!what.empty()) message += " of " + what;
  return message;
}

const Json* StrictJson::find(const Json& object, std::string_view key) {
  for (const JsonMember& member : object.members) {
    if (member.key == key) return &member.value;
  }
  return nullptr;
}

const Json& StrictJson::require(const Json& object, const std::string& key,
                                const std::string& what) const {
  const Json* value = find(object, key);
  if (value == nullptr) fail_at(object, member_error("missing", key, what));
  return *value;
}

void StrictJson::reject_unknown(const Json& object,
                                std::initializer_list<const char*> allowed,
                                const std::string& what) const {
  for (const JsonMember& member : object.members) {
    bool known = false;
    for (const char* key : allowed) {
      if (member.key == key) {
        known = true;
        break;
      }
    }
    if (!known) {
      fail_at_member(*this, member, member_error("unknown", member.key, what));
    }
  }
}

const Json& StrictJson::expect_kind(const Json& value, Json::Kind kind,
                                    const std::string& desc) const {
  if (value.kind != kind) {
    const char* name = kind == Json::Kind::kObject   ? "an object"
                       : kind == Json::Kind::kArray  ? "an array"
                       : kind == Json::Kind::kString ? "a string"
                                                     : "a number";
    fail_at(value, desc + " must be " + name);
  }
  return value;
}

std::string StrictJson::get_string(const Json& value,
                                   const std::string& desc) const {
  return expect_kind(value, Json::Kind::kString, desc).text;
}

std::uint64_t StrictJson::get_uint(const Json& value,
                                   const std::string& desc) const {
  expect_kind(value, Json::Kind::kNumber, desc);
  const auto parsed = parse_csv_unsigned(value.text);
  if (!parsed) {
    fail_at(value, desc + " must be a plain non-negative integer, got \"" +
                       value.text + "\"");
  }
  return *parsed;
}

double StrictJson::get_finite(const Json& value,
                              const std::string& desc) const {
  expect_kind(value, Json::Kind::kNumber, desc);
  const auto parsed = parse_csv_finite(value.text);
  if (!parsed) {
    fail_at(value, desc + " must be a finite number, got \"" + value.text +
                       "\"");
  }
  return *parsed;
}

std::uint64_t StrictJson::get_hex_u64(const Json& value,
                                      const std::string& desc) const {
  const std::string raw = get_string(value, desc);
  const auto parsed = parse_hex_u64(raw);
  if (!parsed) {
    // Name the likelier mistake: a well-shaped value with a bad digit
    // (uppercase included), or something that is not "0x..." at all.
    const bool shaped =
        raw.size() >= 3 && raw.size() <= 18 && raw.starts_with("0x");
    fail_at(value, shaped ? desc + " has a non-hex digit in \"" + raw +
                                "\" (digits are 0-9 and lowercase a-f)"
                          : desc + " must be an \"0x...\" hex string of "
                                   "1 to 16 digits, got \"" + raw + "\"");
  }
  return *parsed;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace crp::harness
