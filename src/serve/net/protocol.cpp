#include "serve/net/protocol.hpp"

#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>

#include "common/bytes.hpp"
#include "common/fnv.hpp"
#include "common/json.hpp"

namespace repro::serve::wire {
namespace {

/// Smallest encoding of a flow (label, packet count) and of a packet
/// (timestamp bits, length) in a response's binary section.
constexpr std::size_t kFlowMinBytes = 8;
constexpr std::size_t kPacketMinBytes = 10;

void fnv_mix_u64(std::uint64_t& h, std::uint64_t v) noexcept {
  unsigned char le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<unsigned char>(v >> (8 * i));
  h = fnv1a(le, sizeof le, h);
}

std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

void put_u32_be(std::uint8_t* at, std::uint32_t v) noexcept {
  at[0] = static_cast<std::uint8_t>(v >> 24);
  at[1] = static_cast<std::uint8_t>(v >> 16);
  at[2] = static_cast<std::uint8_t>(v >> 8);
  at[3] = static_cast<std::uint8_t>(v);
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
bool parse_u64_field(const JsonValue& v, std::uint64_t& out) {
  if (v.type == JsonValue::Type::kNumber) {
    return to_integer(v.number, UINT64_MAX, out);
  }
  if (v.type != JsonValue::Type::kString || v.string.empty() ||
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

// --- Frames ---------------------------------------------------------------

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

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::string_view payload) {
  ByteWriter w(out);
  w.u8(kFrameMagic);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(0);  // flags
  w.u32_be(static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
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
  JsonWriter json;
  json.begin_object();
  json.key("model");
  json.value(request.model);
  json.key("class_id");
  json.value(static_cast<std::int64_t>(request.class_id));
  json.key("count");
  json.value(static_cast<std::uint64_t>(request.count));
  // A decimal string: seeds may exceed 2^53, which a JSON number
  // (double) cannot carry bit-exactly.
  json.key("seed");
  json.value(std::to_string(request.seed));
  json.key("sampler");
  json.value(request.sampler == diffusion::SamplerKind::kDdim   ? "ddim"
             : request.sampler == diffusion::SamplerKind::kDdpm ? "ddpm"
                                                                : "distilled");
  json.key("steps");
  json.value(static_cast<std::uint64_t>(request.ddim_steps));
  json.key("priority");
  json.value(request.priority == Priority::kHigh     ? "high"
             : request.priority == Priority::kNormal ? "normal"
                                                     : "low");
  if (deadline_ms >= 0) {
    json.key("deadline_ms");
    json.value(static_cast<std::uint64_t>(deadline_ms));
  }
  json.end_object();
  append_frame(out, FrameType::kRequest, json.str());
}

std::optional<WireRequest> parse_request_payload(const std::string& payload,
                                                 std::string& error) {
  if (!valid_utf8(payload)) {
    error = "payload is not valid UTF-8";
    return std::nullopt;
  }
  // parse_json rejects trailing garbage, so "junk after the document"
  // lands here too.
  const std::optional<JsonValue> doc = parse_json(payload);
  if (!doc) {
    error = "payload is not a well-formed JSON document";
    return std::nullopt;
  }
  if (!doc->is_object()) {
    error = "request payload must be a JSON object";
    return std::nullopt;
  }

  WireRequest out;
  if (const JsonValue* v = doc->find("model")) {
    if (v->type != JsonValue::Type::kString || v->string.empty()) {
      error = "field 'model' must be a non-empty string";
      return std::nullopt;
    }
    out.request.model = v->string;
  }
  if (const JsonValue* v = doc->find("class_id")) {
    std::uint64_t n = 0;
    if (!to_integer(v->num_or(-1.0), 1u << 20, n)) {
      error = "field 'class_id' must be a small non-negative integer";
      return std::nullopt;
    }
    out.request.class_id = static_cast<int>(n);
  }
  if (const JsonValue* v = doc->find("count")) {
    std::uint64_t n = 0;
    if (!to_integer(v->num_or(-1.0), 1u << 20, n)) {
      error = "field 'count' must be a small non-negative integer";
      return std::nullopt;
    }
    out.request.count = static_cast<std::size_t>(n);
  }
  if (const JsonValue* v = doc->find("seed")) {
    if (!parse_u64_field(*v, out.request.seed)) {
      error = "field 'seed' must be a u64 (number or decimal string)";
      return std::nullopt;
    }
  }
  if (const JsonValue* v = doc->find("sampler")) {
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
  if (const JsonValue* v = doc->find("precision")) {
    if (v->str_or("") != "fp32") {
      error = "field 'precision' must be \"fp32\"";
      return std::nullopt;
    }
  }
  if (const JsonValue* v = doc->find("steps")) {
    std::uint64_t n = 0;
    if (!to_integer(v->num_or(-1.0), 100000, n) || n == 0) {
      error = "field 'steps' must be a positive integer";
      return std::nullopt;
    }
    out.request.ddim_steps = static_cast<std::size_t>(n);
  }
  if (const JsonValue* v = doc->find("priority")) {
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
  if (const JsonValue* v = doc->find("deadline_ms")) {
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
  const bool cancelled = response.status == ResponseStatus::kCancelled;
  JsonWriter json;
  json.begin_object();
  json.key("request_id");
  json.value(response.request_id);
  json.key("status");
  json.value(cancelled ? "cancelled" : "ok");
  if (cancelled) {
    json.key("reason");
    json.value(to_string(response.cancel_reason));
  } else {
    json.key("model_version");
    json.value(response.model_version);
    json.key("cache_hit");
    json.value(response.cache_hit);
    json.key("batch_flows");
    json.value(static_cast<std::uint64_t>(response.batch_flows));
  }
  json.end_object();
  const std::string& header = json.str();

  // Frame header with a zero length, patched once the payload is built.
  const std::size_t start = out.size();
  append_frame(out, FrameType::kResponse, {});
  ByteWriter w(out);
  w.u32_be(static_cast<std::uint32_t>(header.size()));
  out.insert(out.end(), header.begin(), header.end());
  const std::size_t flows = cancelled ? 0 : response.flows.size();
  w.u32_be(static_cast<std::uint32_t>(flows));
  for (std::size_t f = 0; f < flows; ++f) {
    const repro::net::Flow& flow = response.flows[f];
    w.u32_be(static_cast<std::uint32_t>(flow.label));
    w.u32_be(static_cast<std::uint32_t>(flow.packets.size()));
    for (const repro::net::Packet& packet : flow.packets) {
      const std::vector<std::uint8_t> datagram = packet.serialize();
      if (datagram.size() > 0xFFFF) {
        throw std::length_error("response: datagram exceeds 65535 bytes");
      }
      w.u64_be(double_bits(packet.timestamp));
      w.u16_be(static_cast<std::uint16_t>(datagram.size()));
      w.bytes(datagram);
    }
  }
  put_u32_be(out.data() + start + 4,
             static_cast<std::uint32_t>(out.size() - start - kHeaderBytes));
}

void append_error_frame(std::vector<std::uint8_t>& out,
                        std::uint64_t request_id, const char* error,
                        const std::string& message) {
  JsonWriter json;
  json.begin_object();
  json.key("request_id");
  json.value(request_id);
  json.key("error");
  json.value(error);
  json.key("message");
  json.value(message);
  json.end_object();
  append_frame(out, FrameType::kError, json.str());
}

// --- Client-side decoding -------------------------------------------------

std::optional<WireResponse> parse_response_payload(
    const std::string& payload) {
  ByteReader in({reinterpret_cast<const std::uint8_t*>(payload.data()),
                 payload.size()});
  WireResponse out;
  try {
    const std::span<const std::uint8_t> header = in.bytes(in.u32_be());
    const std::optional<JsonValue> doc = parse_json(
        std::string(header.begin(), header.end()));
    if (!doc || !doc->is_object()) return std::nullopt;
    if (const JsonValue* v = doc->find("request_id")) {
      if (!parse_u64_field(*v, out.request_id)) return std::nullopt;
    }
    const JsonValue* status = doc->find("status");
    if (!status) return std::nullopt;
    out.status = status->str_or("");
    if (out.status == "cancelled") {
      if (const JsonValue* v = doc->find("reason")) out.reason = v->str_or("");
    } else if (out.status == "ok") {
      if (const JsonValue* v = doc->find("model_version")) {
        out.model_version = v->str_or("");
      }
      if (const JsonValue* v = doc->find("cache_hit")) {
        out.cache_hit = v->type == JsonValue::Type::kBool && v->boolean;
      }
      if (const JsonValue* v = doc->find("batch_flows")) {
        if (!parse_u64_field(*v, out.batch_flows)) return std::nullopt;
      }
    } else {
      return std::nullopt;
    }

    const std::uint32_t flows = in.u32_be();
    if (flows > in.remaining() / kFlowMinBytes) return std::nullopt;
    if (out.status == "cancelled" && flows != 0) return std::nullopt;
    out.flows.resize(flows);
    for (WireFlow& flow : out.flows) {
      flow.label = static_cast<std::int32_t>(in.u32_be());
      const std::uint32_t packets = in.u32_be();
      if (packets > in.remaining() / kPacketMinBytes) return std::nullopt;
      flow.packets.resize(packets);
      for (WirePacket& packet : flow.packets) {
        packet.ts_bits = in.u64_be();
        const std::span<const std::uint8_t> bytes = in.bytes(in.u16_be());
        packet.bytes.assign(bytes.begin(), bytes.end());
      }
    }
  } catch (const std::out_of_range&) {
    return std::nullopt;  // a length ran past the end of the payload
  }
  if (in.remaining() != 0) return std::nullopt;
  return out;
}

std::optional<WireError> parse_error_payload(const std::string& payload) {
  const std::optional<JsonValue> doc = parse_json(payload);
  if (!doc || !doc->is_object()) return std::nullopt;
  WireError out;
  if (const JsonValue* v = doc->find("request_id")) {
    if (!parse_u64_field(*v, out.request_id)) return std::nullopt;
  }
  const JsonValue* error = doc->find("error");
  if (!error || error->type != JsonValue::Type::kString) {
    return std::nullopt;
  }
  out.error = error->string;
  if (const JsonValue* v = doc->find("message")) {
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
      h = fnv1a(datagram.data(), datagram.size(), h);
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
      h = fnv1a(packet.bytes.data(), packet.bytes.size(), h);
    }
  }
  return h;
}

}  // namespace repro::serve::wire
