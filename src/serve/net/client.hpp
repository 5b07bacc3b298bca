// BlockingClient: a small synchronous client for the socket front-end.
//
// Tools (repro_client), the end-to-end benchmark's wire workloads and
// the conformance tests all talk to SocketServer through this one
// implementation, so the encode/decode path under test is the same one
// users run. The client supports pipelining: send() any number of
// request frames, then read replies as they arrive — replies carry the
// server-assigned request id, and with several executors they may come
// back in a different order than the requests went out.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "serve/net/protocol.hpp"

namespace repro::serve::wire {

/// One decoded reply frame: exactly one of response/error is engaged.
struct Reply {
  std::optional<WireResponse> response;
  std::optional<WireError> error;

  bool ok() const noexcept { return response.has_value(); }
};

class BlockingClient {
 public:
  /// Connects to 127.0.0.1:port; throws std::runtime_error on failure.
  explicit BlockingClient(std::uint16_t port,
                          std::size_t max_payload = kDefaultMaxPayload);
  ~BlockingClient();

  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  /// Encodes and writes one request frame (blocking until accepted by
  /// the kernel). deadline_ms < 0 means no deadline.
  void send(const GenerateRequest& request, double deadline_ms = -1.0);

  /// Writes raw bytes verbatim — the conformance tests use this to
  /// throw malformed frames at a live server.
  void send_raw(const void* data, std::size_t n);

  /// Blocks until one reply frame arrives (or timeout/EOF -> nullopt).
  /// A malformed reply stream throws std::runtime_error.
  std::optional<Reply> read_reply(double timeout_seconds);

  /// send() + read_reply() for the simple one-request case.
  std::optional<Reply> call(const GenerateRequest& request,
                            double deadline_ms = -1.0,
                            double timeout_seconds = 30.0);

  /// Half-closes the write side (the server drains pending replies,
  /// then closes).
  void shutdown_writes();

  /// True once the server closed the connection.
  bool eof() const noexcept { return eof_; }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
  bool eof_ = false;
};

}  // namespace repro::serve::wire
