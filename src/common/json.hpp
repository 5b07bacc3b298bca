// The repo's one JSON codec: a compact streaming writer and a small
// recursive-descent reader.
//
// The writer produces single-line JSON. Doubles are emitted with enough
// precision to round-trip; NaN/Inf (not representable in JSON) become
// null. The reader parses untrusted input (socket request payloads,
// flight dumps, Chrome traces): nesting deeper than kMaxJsonDepth, an
// unknown escape, or a \u escape that is not four hex digits is
// malformed, like trailing garbage after the document.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace repro {

// --- Writer -----------------------------------------------------------------

/// Escapes and quotes `s` for use as a JSON string token.
std::string json_escape(const std::string& s);

/// Minimal streaming JSON builder with automatic comma placement.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(const std::string& k);
  void value(const std::string& v);
  void value(const char* v);
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(bool v);
  /// Splices `fragment` verbatim as the next element — the caller
  /// guarantees it is well-formed JSON (used for pre-built span args).
  void raw(const std::string& fragment);

  const std::string& str() const& { return out_; }
  std::string str() && { return std::move(out_); }

 private:
  void element_prefix();
  std::string out_;
  std::vector<bool> first_;  // one entry per open container
  bool pending_key_ = false;
};

// --- Reader -----------------------------------------------------------------

/// Deepest array/object nesting parse_json accepts. The deepest document
/// the tree writes (a telemetry span tree) is far shallower; the bound
/// keeps the recursive reader's stack use fixed on hostile input.
inline constexpr std::size_t kMaxJsonDepth = 256;

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const noexcept { return type == Type::kObject; }
  bool is_array() const noexcept { return type == Type::kArray; }
  /// Object member or nullptr (also nullptr when not an object).
  const JsonValue* find(const std::string& key) const;
  double num_or(double fallback) const noexcept {
    return type == Type::kNumber ? number : fallback;
  }
  const std::string& str_or(const std::string& fallback) const {
    return type == Type::kString ? string : fallback;
  }
};

/// Parses one JSON document; nullopt on malformed input. A \u escape
/// decodes to its character when it is ASCII and to '?' otherwise.
std::optional<JsonValue> parse_json(const std::string& text);

}  // namespace repro
