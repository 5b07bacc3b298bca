// SocketServer: the poll()-driven TCP front-end over a TraceService.
//
// One event loop owns every connection (accept, read, decode, submit,
// harvest, write) and never blocks on model work: decoded requests go
// to the service's one queue with submit_traced(), and the loop sleeps
// in poll() until a socket is ready or an executor fulfils a response —
// the service's completion notifier writes an eventfd that sits in the
// pollfd set — so a slow batch on one executor never stalls reads on
// other connections, and a pending reply never turns the loop into a
// spin. The loop can be driven cooperatively (tests call poll_once())
// or by a BackgroundWorker (start()/stop(), used by `repro_served`) —
// this file deliberately creates no thread of its own (repro_lint
// RL002).
//
// Responses are streamed: append_response_frame() serializes flow
// payloads DIRECTLY into the connection's out-buffer, which drains via
// non-blocking send() as the socket accepts bytes — a large response is
// serialized exactly once and never duplicated into an intermediate
// payload string.
//
// Error policy mirrors the protocol header: framing errors answer one
// typed `bad_request` frame and close the connection (byte sync is
// lost); payload/admission errors answer a typed frame and keep it
// open. Every reject reason a caller could see in-process from
// SubmitResult crosses the wire with the same to_string(RejectReason)
// spelling.
//
// Observability: the server mints each request's trace id AT FRAME
// DECODE (before admission) and records conn-scoped flight events —
// conn_opened / frame_decoded / frame_sent / conn_closed — into the
// service's flight recorder, the same ring the service's own events
// land in, so one dump shows the full wire-to-model timeline.
// health_fragment() plugs into TraceService::health_json() as its
// "connections" section.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "serve/net/protocol.hpp"
#include "serve/service.hpp"

namespace repro::serve::wire {

struct ServerConfig {
  /// Port to bind on 127.0.0.1; 0 asks the kernel for an ephemeral
  /// port (tests) — port() reports the actual one. Tools default this
  /// from REPRO_SERVE_PORT (see common/env.hpp kEnvServePort).
  std::uint16_t port = 0;
  int backlog = 64;
  std::size_t max_connections = 64;
  /// Payload ceiling for both directions: inbound frames above it are
  /// rejected from the header alone; an outbound response that would
  /// exceed it is rolled back and replaced by an error frame.
  std::size_t max_payload = kDefaultMaxPayload;
  /// Seconds one background loop turn blocks in poll().
  double poll_wait = 0.002;
};

class SocketServer {
 public:
  /// Binds and listens immediately; throws std::runtime_error on
  /// socket/bind failure. Installs itself as the backend's transport
  /// health supplier and completion notifier (both uninstalled in the
  /// destructor).
  SocketServer(TraceService& backend, ServerConfig config);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// The bound port (== config.port unless that was 0).
  std::uint16_t port() const noexcept { return port_; }

  /// One event-loop turn: accept, read + decode + submit, harvest
  /// ready responses, flush writes, reap closed connections. Blocks in
  /// poll() for at most timeout_ms. Returns frames processed (in +
  /// out). Single-consumer, like TraceService::pump(): call it from
  /// one thread OR use start()/stop(), never both.
  std::size_t poll_once(int timeout_ms);

  /// Starts/stops the background loop (idempotent).
  void start();
  void stop();

  std::size_t open_connections() const noexcept {
    return open_.load(std::memory_order_relaxed);
  }

  /// Event-loop turns taken so far (poll_once calls): with nothing ready
  /// the loop takes one turn per poll timeout, however long a reply is
  /// pending.
  std::uint64_t loop_turns() const noexcept {
    return turns_.load(std::memory_order_relaxed);
  }

  /// JSON object for health_json()'s "connections" section:
  /// {"port","open","opened","closed","frames_in","frames_out",
  ///  "protocol_errors","bytes_in","bytes_out","loop_turns"}.
  std::string health_fragment() const;

 private:
  struct PendingReply {
    std::uint64_t trace_id = 0;
    std::shared_future<Response> response;
  };

  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    FrameDecoder decoder;
    std::vector<std::uint8_t> out;
    std::size_t out_pos = 0;  ///< flushed prefix of `out`
    std::vector<PendingReply> waiting;
    std::uint64_t frames_in = 0;
    bool eof = false;      ///< peer half-closed; reap once work drains
    bool closing = false;  ///< framing error; reap once `out` flushes
    bool dead = false;     ///< transport error; reap immediately
  };

  std::size_t accept_ready();
  std::size_t read_ready(Connection& conn);
  std::size_t process_frames(Connection& conn);
  void handle_frame(Connection& conn, const Frame& frame);
  std::size_t harvest(Connection& conn);
  void flush(Connection& conn);
  void send_error(Connection& conn, std::uint64_t trace_id,
                  const char* error, const std::string& message);
  void note_frame_sent(Connection& conn, std::uint64_t trace_id,
                       std::size_t payload_bytes);
  void close_connection(Connection& conn);
  void reap_closed();

  TraceService& backend_;
  ServerConfig config_;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd the service's completion notifier writes
  std::uint16_t port_ = 0;
  std::uint64_t next_conn_id_ = 1;
  std::vector<Connection> conns_;
  std::unique_ptr<BackgroundWorker> worker_;

  // Health counters (atomic: the loop writes, health readers are any
  // thread). The same tallies also feed the serve.net.* registry
  // metrics, which are process-global like every ServiceStats counter.
  std::atomic<std::size_t> open_{0};
  std::atomic<std::uint64_t> opened_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> turns_{0};
};

}  // namespace repro::serve::wire
