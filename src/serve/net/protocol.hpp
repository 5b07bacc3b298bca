// Wire protocol of the socket front-end: length-prefixed frames.
//
// Frame layout (byte-exact; locked in by tests/serve_net_test.cpp):
//
//   offset  size  field
//   0       1     magic    0xC7
//   1       1     version  0x02
//   2       1     type     1 = request, 2 = response, 3 = error
//   3       1     flags    must be 0 (reserved)
//   4       4     length   payload bytes, big-endian u32
//   8       len   payload
//
// Request and error payloads are one UTF-8 JSON document. A response
// payload is a small JSON header followed by the packets as bytes
// (all integers big-endian):
//
//   u32  header length H
//   H    JSON header {request_id, status, reason | model_version,
//        cache_hit, batch_flows}
//   u32  flow count (0 for a cancelled reply)
//   per flow:   i32 label, u32 packet count
//   per packet: u64 bit pattern of the double timestamp, u16 length L,
//               L bytes of Packet::serialize()
//
// Timestamps travel as their bits and datagrams verbatim, so a decoded
// response is bit-identical to the in-process Response it was built
// from. The decoder checks every count against the bytes left before
// it reserves anything, and rejects trailing bytes.
//
// Error handling is two-tier. FRAMING errors (bad magic / version /
// type / flags, oversized length) mean byte synchronization with the
// peer is lost: the decoder poisons itself, the server answers with one
// typed `bad_request` error frame and closes the connection. PAYLOAD
// errors (invalid UTF-8, malformed JSON, junk after the document, bad
// field types) keep framing intact: the server answers with a typed
// error frame and the connection stays open.
//
// Error frames carry the same reason strings as serve::RejectReason
// (`to_string(reason)`), so a queue_full/unknown_model/bad_request
// reject looks identical whether it was observed in-process from
// SubmitResult or over the wire. A model call that threw is answered
// with kModelError and the exception's message.
//
// Namespace note: this layer is `serve::wire`, not `serve::net`,
// because a nested `net` namespace would shadow `repro::net` (flows,
// packets) inside it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/request.hpp"

namespace repro::serve::wire {

inline constexpr std::uint8_t kFrameMagic = 0xC7;
inline constexpr std::uint8_t kProtocolVersion = 0x02;
inline constexpr std::size_t kHeaderBytes = 8;
/// Default payload-size ceiling (admission control for memory).
inline constexpr std::size_t kDefaultMaxPayload = std::size_t{8} << 20;
/// Error spelling for a request whose model call threw.
inline constexpr const char* kModelError = "model_error";

enum class FrameType : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
  kError = 3,
};

struct Frame {
  FrameType type = FrameType::kRequest;
  std::string payload;
};

/// Decoder verdicts. kNeedMore/kFrame are progress; everything else is
/// a framing error that poisons the decoder (sync with the peer is
/// gone — the connection must close).
enum class DecodeStatus {
  kNeedMore,
  kFrame,
  kBadMagic,
  kBadVersion,
  kBadType,
  kBadFlags,
  kOversized,
};

const char* to_string(DecodeStatus status) noexcept;

/// Incremental frame decoder over an arbitrary byte stream: feed() any
/// split of the input (single bytes, torn headers, coalesced frames)
/// and next() yields the same frame sequence.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  void feed(const void* data, std::size_t n);

  /// Extracts the next complete frame into `out`. Returns kFrame on
  /// success, kNeedMore when the buffer holds only a partial frame, or
  /// a poisoning framing error. Once poisoned, always returns the same
  /// error and consumes nothing.
  DecodeStatus next(Frame& out);

  bool poisoned() const noexcept {
    return poison_ != DecodeStatus::kNeedMore;
  }
  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  std::size_t max_payload_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix (compacted lazily)
  DecodeStatus poison_ = DecodeStatus::kNeedMore;
};

/// Appends one frame: the 8-byte header, then `payload`.
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::string_view payload);

/// Strict UTF-8 validation (rejects overlongs, surrogates, > U+10FFFF).
bool valid_utf8(std::string_view s) noexcept;

// --- Request payloads -----------------------------------------------------

/// A decoded request frame. deadline_ms is RELATIVE (a client cannot
/// know the server's clock); < 0 means no deadline. The server converts
/// it to an absolute GenerateRequest::deadline at decode time.
struct WireRequest {
  GenerateRequest request;
  double deadline_ms = -1.0;
};

void append_request_frame(std::vector<std::uint8_t>& out,
                          const GenerateRequest& request,
                          double deadline_ms = -1.0);

/// Validates UTF-8 + JSON + field types; unknown keys are ignored
/// (forward compatibility). On failure returns nullopt and fills
/// `error` with a one-line reason (surfaced in the error frame).
std::optional<WireRequest> parse_request_payload(const std::string& payload,
                                                 std::string& error);

// --- Response / error payloads --------------------------------------------

/// Appends a response frame straight into `out` (the connection's
/// out-buffer). Throws std::length_error for a datagram over 65,535
/// bytes, leaving a partial frame the caller must roll back.
void append_response_frame(std::vector<std::uint8_t>& out,
                           const Response& response);

void append_error_frame(std::vector<std::uint8_t>& out,
                        std::uint64_t request_id, const char* error,
                        const std::string& message);

// --- Client-side decoding -------------------------------------------------

struct WirePacket {
  std::uint64_t ts_bits = 0;  ///< bit pattern of the double timestamp
  std::vector<std::uint8_t> bytes;  ///< serialized IP datagram
};

struct WireFlow {
  int label = -1;
  std::vector<WirePacket> packets;
};

struct WireResponse {
  std::uint64_t request_id = 0;
  std::string status;  ///< "ok" | "cancelled"
  std::string reason;  ///< cancel reason when cancelled
  std::string model_version;
  bool cache_hit = false;
  std::uint64_t batch_flows = 0;
  std::vector<WireFlow> flows;
};

/// nullopt for any malformed payload: a length or count past the bytes
/// left, trailing bytes, a status other than ok/cancelled, or a
/// cancelled reply that carries flows.
std::optional<WireResponse> parse_response_payload(
    const std::string& payload);

struct WireError {
  std::uint64_t request_id = 0;
  std::string error;    ///< RejectReason string, e.g. "queue_full"
  std::string message;  ///< human-readable detail
};

std::optional<WireError> parse_error_payload(const std::string& payload);

// --- Content hashing ------------------------------------------------------
//
// One FNV-1a mix over the wire-visible content of a flow set — label,
// per-packet timestamp bits, serialized packet bytes, with all counts
// mixed in. hash_flows (library side) and hash_wire_flows (decoded
// side) agree iff the served bytes round-tripped bit-exactly; this is
// the equality the lane/socket determinism tests assert.

std::uint64_t hash_flows(const std::vector<repro::net::Flow>& flows);
std::uint64_t hash_wire_flows(const std::vector<WireFlow>& flows);

}  // namespace repro::serve::wire
