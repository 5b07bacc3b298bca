#include "serve/net/protocol.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/telemetry/export.hpp"
#include "serve/observe/inspect.hpp"

namespace repro::serve::wire {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

constexpr char kHexDigits[] = "0123456789abcdef";

void fnv_mix(std::uint64_t& h, const void* data, std::size_t n) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

void fnv_mix_u64(std::uint64_t& h, std::uint64_t v) noexcept {
  unsigned char le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<unsigned char>(v >> (8 * i));
  fnv_mix(h, le, sizeof le);
}

std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

bool valid_frame_type(std::uint8_t type) noexcept {
  return type == static_cast<std::uint8_t>(FrameType::kRequest) ||
         type == static_cast<std::uint8_t>(FrameType::kResponse) ||
         type == static_cast<std::uint8_t>(FrameType::kError);
}

/// JSON number -> non-negative integer with an exactness check (JSON
/// numbers are doubles; 2.5 requests or 1e300 flows are malformed).
bool to_integer(double num, std::uint64_t max, std::uint64_t& out) {
  if (!(num >= 0) || num > static_cast<double>(max)) return false;
  if (num != std::floor(num)) return false;
  out = static_cast<std::uint64_t>(num);
  return true;
}

/// Accepts a u64 carried as either a decimal JSON string (bit-exact for
/// values above 2^53) or a plain JSON number.
bool parse_u64_field(const observe::JsonValue& v, std::uint64_t& out) {
  if (v.type == observe::JsonValue::Type::kNumber) {
    return to_integer(v.number, UINT64_MAX, out);
  }
  if (v.type != observe::JsonValue::Type::kString || v.string.empty() ||
      v.string.size() > 20) {
    return false;
  }
  std::uint64_t value = 0;
  for (char c : v.string) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

bool parse_hex_u64(const std::string& s, std::uint64_t& out) {
  if (s.size() != 16) return false;
  std::uint64_t value = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  out = value;
  return true;
}

bool parse_hex_bytes(const std::string& s, std::vector<std::uint8_t>& out) {
  if (s.size() % 2 != 0) return false;
  out.clear();
  out.reserve(s.size() / 2);
  for (std::size_t i = 0; i < s.size(); i += 2) {
    int hi, lo;
    const char a = s[i], b = s[i + 1];
    if (a >= '0' && a <= '9') hi = a - '0';
    else if (a >= 'a' && a <= 'f') hi = a - 'a' + 10;
    else return false;
    if (b >= '0' && b <= '9') lo = b - '0';
    else if (b >= 'a' && b <= 'f') lo = b - 'a' + 10;
    else return false;
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return true;
}

}  // namespace

const char* to_string(DecodeStatus status) noexcept {
  switch (status) {
    case DecodeStatus::kNeedMore: return "need_more";
    case DecodeStatus::kFrame: return "frame";
    case DecodeStatus::kBadMagic: return "bad_magic";
    case DecodeStatus::kBadVersion: return "bad_version";
    case DecodeStatus::kBadType: return "bad_type";
    case DecodeStatus::kBadFlags: return "bad_flags";
    case DecodeStatus::kOversized: return "oversized_frame";
  }
  return "unknown";
}

// --- FrameDecoder ---------------------------------------------------------

void FrameDecoder::feed(const void* data, std::size_t n) {
  if (poisoned() || n == 0) return;
  // Compact once the consumed prefix dominates the buffer.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= 65536)) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), bytes, bytes + n);
}

DecodeStatus FrameDecoder::next(Frame& out) {
  if (poisoned()) return poison_;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kHeaderBytes) return DecodeStatus::kNeedMore;
  const std::uint8_t* h = buf_.data() + pos_;
  // Validation order is part of the conformance surface: magic, then
  // version, then type, then flags, then length.
  if (h[0] != kFrameMagic) return poison_ = DecodeStatus::kBadMagic;
  if (h[1] != kProtocolVersion) return poison_ = DecodeStatus::kBadVersion;
  if (!valid_frame_type(h[2])) return poison_ = DecodeStatus::kBadType;
  if (h[3] != 0) return poison_ = DecodeStatus::kBadFlags;
  const std::uint32_t len = (static_cast<std::uint32_t>(h[4]) << 24) |
                            (static_cast<std::uint32_t>(h[5]) << 16) |
                            (static_cast<std::uint32_t>(h[6]) << 8) |
                            static_cast<std::uint32_t>(h[7]);
  // Oversized is rejected from the header alone — the payload is never
  // buffered.
  if (len > max_payload_) return poison_ = DecodeStatus::kOversized;
  if (avail < kHeaderBytes + len) return DecodeStatus::kNeedMore;
  out.type = static_cast<FrameType>(h[2]);
  out.payload.assign(reinterpret_cast<const char*>(h + kHeaderBytes), len);
  pos_ += kHeaderBytes + len;
  return DecodeStatus::kFrame;
}

// --- FrameWriter ----------------------------------------------------------

FrameWriter::FrameWriter(std::vector<std::uint8_t>& out, FrameType type)
    : out_(out), start_(out.size()) {
  const std::uint8_t header[kHeaderBytes] = {
      kFrameMagic, kProtocolVersion, static_cast<std::uint8_t>(type),
      0,           0,                0,
      0,           0};
  out_.insert(out_.end(), header, header + kHeaderBytes);
}

void FrameWriter::append(const char* s, std::size_t n) {
  out_.insert(out_.end(), reinterpret_cast<const std::uint8_t*>(s),
              reinterpret_cast<const std::uint8_t*>(s) + n);
}

void FrameWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) append(",", 1);
    first_.back() = false;
  }
}

void FrameWriter::begin_object() {
  comma();
  append("{", 1);
  first_.push_back(true);
}

void FrameWriter::end_object() {
  append("}", 1);
  first_.pop_back();
}

void FrameWriter::begin_array() {
  comma();
  append("[", 1);
  first_.push_back(true);
}

void FrameWriter::end_array() {
  append("]", 1);
  first_.pop_back();
}

void FrameWriter::key(const char* name) {
  comma();
  append("\"", 1);
  append(name, std::strlen(name));  // keys are controlled literals
  append("\":", 2);
  pending_key_ = true;
}

void FrameWriter::value(const char* s) { value(std::string(s)); }

void FrameWriter::value(const std::string& s) {
  comma();
  const std::string quoted = telemetry::json_escape(s);
  append(quoted.data(), quoted.size());
}

void FrameWriter::value_u64(std::uint64_t v) {
  comma();
  char digits[24];
  const int len = std::snprintf(digits, sizeof digits, "%llu",
                                static_cast<unsigned long long>(v));
  append(digits, static_cast<std::size_t>(len));
}

void FrameWriter::value_i64(std::int64_t v) {
  comma();
  char digits[24];
  const int len = std::snprintf(digits, sizeof digits, "%lld",
                                static_cast<long long>(v));
  append(digits, static_cast<std::size_t>(len));
}

void FrameWriter::value_bool(bool v) {
  comma();
  if (v) {
    append("true", 4);
  } else {
    append("false", 5);
  }
}

void FrameWriter::value_hex_u64(std::uint64_t bits) {
  comma();
  char hex[18];
  hex[0] = '"';
  for (int i = 0; i < 16; ++i) {
    hex[1 + i] = kHexDigits[(bits >> (60 - 4 * i)) & 0xF];
  }
  hex[17] = '"';
  append(hex, sizeof hex);
}

void FrameWriter::value_hex_bytes(const std::uint8_t* data, std::size_t n) {
  comma();
  append("\"", 1);
  // Bulk path: hex needs no escaping, so write straight into the
  // out-buffer instead of round-tripping through json_escape.
  const std::size_t at = out_.size();
  out_.resize(at + 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    out_[at + 2 * i] = static_cast<std::uint8_t>(kHexDigits[data[i] >> 4]);
    out_[at + 2 * i + 1] =
        static_cast<std::uint8_t>(kHexDigits[data[i] & 0xF]);
  }
  append("\"", 1);
}

void FrameWriter::value_decimal_string_u64(std::uint64_t v) {
  comma();
  char digits[24];
  const int len = std::snprintf(digits, sizeof digits, "\"%llu\"",
                                static_cast<unsigned long long>(v));
  append(digits, static_cast<std::size_t>(len));
}

std::size_t FrameWriter::end() {
  const std::size_t payload = out_.size() - start_ - kHeaderBytes;
  const auto len = static_cast<std::uint32_t>(payload);
  out_[start_ + 4] = static_cast<std::uint8_t>(len >> 24);
  out_[start_ + 5] = static_cast<std::uint8_t>(len >> 16);
  out_[start_ + 6] = static_cast<std::uint8_t>(len >> 8);
  out_[start_ + 7] = static_cast<std::uint8_t>(len);
  return payload;
}

// --- UTF-8 ----------------------------------------------------------------

bool valid_utf8(std::string_view s) noexcept {
  const auto* p = reinterpret_cast<const unsigned char*>(s.data());
  const std::size_t n = s.size();
  std::size_t i = 0;
  while (i < n) {
    const unsigned char c = p[i];
    if (c < 0x80) {
      ++i;
      continue;
    }
    std::size_t len;
    std::uint32_t cp, min_cp;
    if ((c & 0xE0) == 0xC0) {
      len = 2;
      cp = c & 0x1Fu;
      min_cp = 0x80;
    } else if ((c & 0xF0) == 0xE0) {
      len = 3;
      cp = c & 0x0Fu;
      min_cp = 0x800;
    } else if ((c & 0xF8) == 0xF0) {
      len = 4;
      cp = c & 0x07u;
      min_cp = 0x10000;
    } else {
      return false;  // bare continuation byte or 0xF8+ lead
    }
    if (i + len > n) return false;  // truncated sequence
    for (std::size_t k = 1; k < len; ++k) {
      const unsigned char cc = p[i + k];
      if ((cc & 0xC0) != 0x80) return false;
      cp = (cp << 6) | (cc & 0x3Fu);
    }
    if (cp < min_cp) return false;                    // overlong
    if (cp > 0x10FFFF) return false;                  // beyond Unicode
    if (cp >= 0xD800 && cp <= 0xDFFF) return false;   // surrogate
    i += len;
  }
  return true;
}

// --- Request payloads -----------------------------------------------------

void append_request_frame(std::vector<std::uint8_t>& out,
                          const GenerateRequest& request,
                          double deadline_ms) {
  FrameWriter frame(out, FrameType::kRequest);
  frame.begin_object();
  frame.key("model");
  frame.value(request.model);
  frame.key("class_id");
  frame.value_i64(request.class_id);
  frame.key("count");
  frame.value_u64(request.count);
  frame.key("seed");
  frame.value_decimal_string_u64(request.seed);
  frame.key("sampler");
  frame.value(request.sampler == diffusion::SamplerKind::kDdim   ? "ddim"
              : request.sampler == diffusion::SamplerKind::kDdpm ? "ddpm"
                                                                 : "distilled");
  frame.key("steps");
  frame.value_u64(request.ddim_steps);
  frame.key("priority");
  frame.value(request.priority == Priority::kHigh     ? "high"
              : request.priority == Priority::kNormal ? "normal"
                                                      : "low");
  if (deadline_ms >= 0) {
    frame.key("deadline_ms");
    frame.value_u64(static_cast<std::uint64_t>(deadline_ms));
  }
  frame.end_object();
  frame.end();
}

std::optional<WireRequest> parse_request_payload(const std::string& payload,
                                                 std::string& error) {
  if (!valid_utf8(payload)) {
    error = "payload is not valid UTF-8";
    return std::nullopt;
  }
  // parse_json rejects trailing garbage, so "junk after the document"
  // lands here too.
  const std::optional<observe::JsonValue> doc = observe::parse_json(payload);
  if (!doc) {
    error = "payload is not a well-formed JSON document";
    return std::nullopt;
  }
  if (!doc->is_object()) {
    error = "request payload must be a JSON object";
    return std::nullopt;
  }

  WireRequest out;
  if (const observe::JsonValue* v = doc->find("model")) {
    if (v->type != observe::JsonValue::Type::kString || v->string.empty()) {
      error = "field 'model' must be a non-empty string";
      return std::nullopt;
    }
    out.request.model = v->string;
  }
  if (const observe::JsonValue* v = doc->find("class_id")) {
    std::uint64_t n = 0;
    if (!to_integer(v->num_or(-1.0), 1u << 20, n)) {
      error = "field 'class_id' must be a small non-negative integer";
      return std::nullopt;
    }
    out.request.class_id = static_cast<int>(n);
  }
  if (const observe::JsonValue* v = doc->find("count")) {
    std::uint64_t n = 0;
    if (!to_integer(v->num_or(-1.0), 1u << 20, n)) {
      error = "field 'count' must be a small non-negative integer";
      return std::nullopt;
    }
    out.request.count = static_cast<std::size_t>(n);
  }
  if (const observe::JsonValue* v = doc->find("seed")) {
    if (!parse_u64_field(*v, out.request.seed)) {
      error = "field 'seed' must be a u64 (number or decimal string)";
      return std::nullopt;
    }
  }
  if (const observe::JsonValue* v = doc->find("sampler")) {
    const std::string& name = v->str_or("");
    if (name == "ddim") {
      out.request.sampler = diffusion::SamplerKind::kDdim;
    } else if (name == "ddpm") {
      out.request.sampler = diffusion::SamplerKind::kDdpm;
    } else if (name == "distilled") {
      out.request.sampler = diffusion::SamplerKind::kDistilled;
    } else {
      error = "field 'sampler' must be \"ddim\", \"ddpm\" or \"distilled\"";
      return std::nullopt;
    }
  }
  // The model runs fp32 only. An explicit "fp32" is accepted; any other
  // route is refused rather than silently served as fp32 bytes.
  if (const observe::JsonValue* v = doc->find("precision")) {
    if (v->str_or("") != "fp32") {
      error = "field 'precision' must be \"fp32\"";
      return std::nullopt;
    }
  }
  if (const observe::JsonValue* v = doc->find("steps")) {
    std::uint64_t n = 0;
    if (!to_integer(v->num_or(-1.0), 100000, n) || n == 0) {
      error = "field 'steps' must be a positive integer";
      return std::nullopt;
    }
    out.request.ddim_steps = static_cast<std::size_t>(n);
  }
  if (const observe::JsonValue* v = doc->find("priority")) {
    const std::string& name = v->str_or("");
    if (name == "high") {
      out.request.priority = Priority::kHigh;
    } else if (name == "normal") {
      out.request.priority = Priority::kNormal;
    } else if (name == "low") {
      out.request.priority = Priority::kLow;
    } else {
      error = "field 'priority' must be \"high\", \"normal\" or \"low\"";
      return std::nullopt;
    }
  }
  if (const observe::JsonValue* v = doc->find("deadline_ms")) {
    const double ms = v->num_or(-1.0);
    if (!(ms >= 0) || !(ms <= 1e12)) {
      error = "field 'deadline_ms' must be a non-negative number";
      return std::nullopt;
    }
    out.deadline_ms = ms;
  }
  return out;
}

// --- Response / error payloads --------------------------------------------

void append_response_frame(std::vector<std::uint8_t>& out,
                           const Response& response) {
  FrameWriter frame(out, FrameType::kResponse);
  frame.begin_object();
  frame.key("request_id");
  frame.value_u64(response.request_id);
  if (response.status == ResponseStatus::kCancelled) {
    frame.key("status");
    frame.value("cancelled");
    frame.key("reason");
    frame.value(to_string(response.cancel_reason));
    frame.end_object();
    frame.end();
    return;
  }
  frame.key("status");
  frame.value("ok");
  frame.key("model_version");
  frame.value(response.model_version);
  frame.key("cache_hit");
  frame.value_bool(response.cache_hit);
  frame.key("batch_flows");
  frame.value_u64(response.batch_flows);
  frame.key("flows");
  frame.begin_array();
  for (const repro::net::Flow& flow : response.flows) {
    frame.begin_object();
    frame.key("label");
    frame.value_i64(flow.label);
    frame.key("packets");
    frame.begin_array();
    for (const repro::net::Packet& packet : flow.packets) {
      const std::vector<std::uint8_t> datagram = packet.serialize();
      frame.begin_object();
      frame.key("ts");
      frame.value_hex_u64(double_bits(packet.timestamp));
      frame.key("bytes");
      frame.value_hex_bytes(datagram.data(), datagram.size());
      frame.end_object();
    }
    frame.end_array();
    frame.end_object();
  }
  frame.end_array();
  frame.end_object();
  frame.end();
}

void append_error_frame(std::vector<std::uint8_t>& out,
                        std::uint64_t request_id, const char* error,
                        const std::string& message) {
  FrameWriter frame(out, FrameType::kError);
  frame.begin_object();
  frame.key("request_id");
  frame.value_u64(request_id);
  frame.key("error");
  frame.value(error);
  frame.key("message");
  frame.value(message);
  frame.end_object();
  frame.end();
}

// --- Client-side decoding -------------------------------------------------

std::optional<WireResponse> parse_response_payload(
    const std::string& payload) {
  const std::optional<observe::JsonValue> doc = observe::parse_json(payload);
  if (!doc || !doc->is_object()) return std::nullopt;

  WireResponse out;
  if (const observe::JsonValue* v = doc->find("request_id")) {
    if (!parse_u64_field(*v, out.request_id)) return std::nullopt;
  }
  const observe::JsonValue* status = doc->find("status");
  if (!status) return std::nullopt;
  out.status = status->str_or("");
  if (out.status == "cancelled") {
    if (const observe::JsonValue* v = doc->find("reason")) {
      out.reason = v->str_or("");
    }
    return out;
  }
  if (out.status != "ok") return std::nullopt;
  if (const observe::JsonValue* v = doc->find("model_version")) {
    out.model_version = v->str_or("");
  }
  if (const observe::JsonValue* v = doc->find("cache_hit")) {
    out.cache_hit =
        v->type == observe::JsonValue::Type::kBool && v->boolean;
  }
  if (const observe::JsonValue* v = doc->find("batch_flows")) {
    if (!parse_u64_field(*v, out.batch_flows)) return std::nullopt;
  }
  const observe::JsonValue* flows = doc->find("flows");
  if (!flows || !flows->is_array()) return std::nullopt;
  out.flows.reserve(flows->array.size());
  for (const observe::JsonValue& flow_doc : flows->array) {
    if (!flow_doc.is_object()) return std::nullopt;
    WireFlow flow;
    if (const observe::JsonValue* v = flow_doc.find("label")) {
      const double num = v->num_or(-1e18);
      if (num != std::floor(num) || num < -2e9 || num > 2e9) {
        return std::nullopt;
      }
      flow.label = static_cast<int>(num);
    }
    const observe::JsonValue* packets = flow_doc.find("packets");
    if (!packets || !packets->is_array()) return std::nullopt;
    flow.packets.reserve(packets->array.size());
    for (const observe::JsonValue& packet_doc : packets->array) {
      if (!packet_doc.is_object()) return std::nullopt;
      WirePacket packet;
      const observe::JsonValue* ts = packet_doc.find("ts");
      const observe::JsonValue* bytes = packet_doc.find("bytes");
      if (!ts || ts->type != observe::JsonValue::Type::kString ||
          !parse_hex_u64(ts->string, packet.ts_bits)) {
        return std::nullopt;
      }
      if (!bytes || bytes->type != observe::JsonValue::Type::kString ||
          !parse_hex_bytes(bytes->string, packet.bytes)) {
        return std::nullopt;
      }
      flow.packets.push_back(std::move(packet));
    }
    out.flows.push_back(std::move(flow));
  }
  return out;
}

std::optional<WireError> parse_error_payload(const std::string& payload) {
  const std::optional<observe::JsonValue> doc = observe::parse_json(payload);
  if (!doc || !doc->is_object()) return std::nullopt;
  WireError out;
  if (const observe::JsonValue* v = doc->find("request_id")) {
    if (!parse_u64_field(*v, out.request_id)) return std::nullopt;
  }
  const observe::JsonValue* error = doc->find("error");
  if (!error || error->type != observe::JsonValue::Type::kString) {
    return std::nullopt;
  }
  out.error = error->string;
  if (const observe::JsonValue* v = doc->find("message")) {
    out.message = v->str_or("");
  }
  return out;
}

// --- Content hashing ------------------------------------------------------

std::uint64_t hash_flows(const std::vector<repro::net::Flow>& flows) {
  std::uint64_t h = kFnvOffset;
  fnv_mix_u64(h, flows.size());
  for (const repro::net::Flow& flow : flows) {
    fnv_mix_u64(h, static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(flow.label)));
    fnv_mix_u64(h, flow.packets.size());
    for (const repro::net::Packet& packet : flow.packets) {
      const std::vector<std::uint8_t> datagram = packet.serialize();
      fnv_mix_u64(h, double_bits(packet.timestamp));
      fnv_mix_u64(h, datagram.size());
      fnv_mix(h, datagram.data(), datagram.size());
    }
  }
  return h;
}

std::uint64_t hash_wire_flows(const std::vector<WireFlow>& flows) {
  std::uint64_t h = kFnvOffset;
  fnv_mix_u64(h, flows.size());
  for (const WireFlow& flow : flows) {
    fnv_mix_u64(h, static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(flow.label)));
    fnv_mix_u64(h, flow.packets.size());
    for (const WirePacket& packet : flow.packets) {
      fnv_mix_u64(h, packet.ts_bits);
      fnv_mix_u64(h, packet.bytes.size());
      fnv_mix(h, packet.bytes.data(), packet.bytes.size());
    }
  }
  return h;
}

}  // namespace repro::serve::wire
