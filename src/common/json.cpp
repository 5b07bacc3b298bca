#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace repro {

// --- Writer -----------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void JsonWriter::element_prefix() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

void JsonWriter::begin_object() {
  element_prefix();
  out_ += '{';
  first_.push_back(true);
}

void JsonWriter::end_object() {
  out_ += '}';
  first_.pop_back();
}

void JsonWriter::begin_array() {
  element_prefix();
  out_ += '[';
  first_.push_back(true);
}

void JsonWriter::end_array() {
  out_ += ']';
  first_.pop_back();
}

void JsonWriter::key(const std::string& k) {
  element_prefix();
  out_ += json_escape(k);
  out_ += ':';
  pending_key_ = true;
}

void JsonWriter::value(const std::string& v) {
  element_prefix();
  out_ += json_escape(v);
}

void JsonWriter::value(const char* v) { value(std::string(v)); }

void JsonWriter::value(double v) {
  element_prefix();
  if (!std::isfinite(v)) {
    out_ += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  out_ += buf;
}

void JsonWriter::value(std::uint64_t v) {
  element_prefix();
  out_ += std::to_string(v);
}

void JsonWriter::value(std::int64_t v) {
  element_prefix();
  out_ += std::to_string(v);
}

void JsonWriter::value(bool v) {
  element_prefix();
  out_ += v ? "true" : "false";
}

void JsonWriter::raw(const std::string& fragment) {
  element_prefix();
  out_ += fragment;
}

// --- Reader -----------------------------------------------------------------

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

namespace {

int hex_digit(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::size_t depth = 0;  ///< open arrays/objects around the cursor
  bool failed = false;

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  char peek() {
    skip_ws();
    return pos < text.size() ? text[pos] : '\0';
  }
  bool consume(char c) {
    if (peek() != c) return false;
    ++pos;
    return true;
  }
  bool consume_word(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text.compare(pos, len, word) != 0) return false;
    pos += len;
    return true;
  }

  JsonValue parse_value() {
    JsonValue out;
    switch (peek()) {
      case '{': return parse_container(JsonValue::Type::kObject, '}');
      case '[': return parse_container(JsonValue::Type::kArray, ']');
      case '"':
        out.type = JsonValue::Type::kString;
        out.string = parse_string();
        return out;
      case 't':
        if (consume_word("true")) {
          out.type = JsonValue::Type::kBool;
          out.boolean = true;
          return out;
        }
        break;
      case 'f':
        if (consume_word("false")) {
          out.type = JsonValue::Type::kBool;
          return out;
        }
        break;
      case 'n':
        if (consume_word("null")) return out;
        break;
      default: return parse_number();
    }
    failed = true;
    return out;
  }

  std::string parse_string() {
    std::string out;
    if (!consume('"')) {
      failed = true;
      return out;
    }
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) break;
      switch (text[pos++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // Non-ASCII code points decode to '?': the names in the
          // tree's own documents are ASCII.
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const int digit = pos < text.size() ? hex_digit(text[pos]) : -1;
            if (digit < 0) {
              failed = true;
              return out;
            }
            cp = cp * 16 + static_cast<unsigned>(digit);
            ++pos;
          }
          out += cp < 0x80 ? static_cast<char>(cp) : '?';
          break;
        }
        default:
          failed = true;  // unknown escape
          return out;
      }
    }
    failed = true;  // unterminated
    return out;
  }

  /// Reads ASCII digits; returns how many.
  std::size_t digits() {
    const std::size_t from = pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    return pos - from;
  }
  bool at(char c) const { return pos < text.size() && text[pos] == c; }
  JsonValue fail() {
    failed = true;
    return {};
  }

  /// RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  /// The grammar is checked before converting: strtod also takes hex,
  /// inf, nan, a leading '+' or '.', and reads the locale's decimal
  /// point. A leading zero ends the number, so "01" leaves a stray "1".
  /// A value outside double's range is malformed.
  JsonValue parse_number() {
    skip_ws();
    const std::size_t start = pos;
    if (at('-')) ++pos;
    if (at('0')) {
      ++pos;
    } else if (digits() == 0) {
      return fail();
    }
    if (at('.')) {
      ++pos;
      if (digits() == 0) return fail();
    }
    if (at('e') || at('E')) {
      ++pos;
      if (at('+') || at('-')) ++pos;
      if (digits() == 0) return fail();
    }
    JsonValue out;
    const char* last = text.data() + pos;
    const auto [end, ec] =
        std::from_chars(text.data() + start, last, out.number);
    if (ec != std::errc() || end != last) return fail();
    out.type = JsonValue::Type::kNumber;
    return out;
  }

  /// An object or array; `close` is its closing bracket.
  JsonValue parse_container(JsonValue::Type type, char close) {
    JsonValue out;
    out.type = type;
    ++pos;  // the opening bracket peek() saw
    if (++depth > kMaxJsonDepth) {
      failed = true;
      return out;
    }
    if (!consume(close)) {
      do {
        if (type == JsonValue::Type::kArray) {
          out.array.push_back(parse_value());
        } else {
          if (peek() != '"') {
            failed = true;
            return out;
          }
          std::string key = parse_string();
          if (!consume(':')) {
            failed = true;
            return out;
          }
          out.object.emplace(std::move(key), parse_value());
        }
        if (failed) return out;
      } while (consume(','));
      if (!consume(close)) failed = true;
    }
    --depth;
    return out;
  }
};

}  // namespace

std::optional<JsonValue> parse_json(const std::string& text) {
  Parser parser{text};
  JsonValue value = parser.parse_value();
  parser.skip_ws();
  if (parser.failed || parser.pos != text.size()) return std::nullopt;
  return value;
}

}  // namespace repro
