#include "serve/net/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/telemetry/metrics.hpp"

namespace repro::serve::wire {
namespace {

/// serve.net.* registry instruments (process-global, cached once, same
/// pattern as ServiceStats).
struct NetStats {
  telemetry::Counter& conns_opened;
  telemetry::Counter& conns_closed;
  telemetry::Counter& frames_in;
  telemetry::Counter& frames_out;
  telemetry::Counter& protocol_errors;
  telemetry::Counter& bytes_in;
  telemetry::Counter& bytes_out;
  telemetry::Gauge& connections_open;
  telemetry::Histogram& frame_bytes;

  static NetStats& instance() {
    auto& reg = telemetry::Registry::instance();
    static NetStats stats{
        reg.counter("serve.net.conns_opened"),
        reg.counter("serve.net.conns_closed"),
        reg.counter("serve.net.frames_in"),
        reg.counter("serve.net.frames_out"),
        reg.counter("serve.net.protocol_errors"),
        reg.counter("serve.net.bytes_in"),
        reg.counter("serve.net.bytes_out"),
        reg.gauge("serve.net.connections_open"),
        reg.histogram("serve.net.frame_bytes",
                      telemetry::Histogram::exponential_bounds(64.0, 16.0e6,
                                                               24)),
    };
    return stats;
  }
};

bool set_nonblocking(int fd) noexcept {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool future_ready(const std::shared_future<Response>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

std::uint32_t clip_u32(std::size_t n) noexcept {
  return n > 0xFFFFFFFFu ? 0xFFFFFFFFu : static_cast<std::uint32_t>(n);
}

}  // namespace

SocketServer::SocketServer(ShardedService& backend, ServerConfig config)
    : backend_(backend), config_(config) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket(): ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, config_.backlog) != 0 ||
      !set_nonblocking(listen_fd_)) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bind/listen(127.0.0.1:" +
                             std::to_string(config_.port) + "): " + why);
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = config_.port;
  }

  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("eventfd(): " + why);
  }

  backend_.set_transport_health([this] { return health_fragment(); });
  backend_.set_completion_notifier([fd = wake_fd_] {
    const std::uint64_t completion = 1;
    // EAGAIN means the counter is saturated: the loop is awake anyway.
    const ssize_t n = ::write(fd, &completion, sizeof completion);
    (void)n;
  });
}

SocketServer::~SocketServer() {
  stop();
  backend_.set_completion_notifier({});
  for (Connection& conn : conns_) close_connection(conn);
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  backend_.set_transport_health({});
}

void SocketServer::start() {
  if (worker_) return;
  const int timeout_ms =
      config_.poll_wait > 0 ? static_cast<int>(config_.poll_wait * 1000.0)
                            : 0;
  // poll() is the loop's sleep; the worker itself never idles.
  worker_ = std::make_unique<BackgroundWorker>(
      [this, timeout_ms] { return poll_once(timeout_ms); }, 0.0);
}

void SocketServer::stop() {
  if (!worker_) return;
  worker_->stop();
  worker_.reset();
}

std::size_t SocketServer::poll_once(int timeout_ms) {
  turns_.fetch_add(1, std::memory_order_relaxed);
  std::vector<pollfd> fds;
  fds.reserve(conns_.size() + 2);
  const bool accepting = conns_.size() < config_.max_connections;
  fds.push_back(pollfd{listen_fd_,
                       static_cast<short>(accepting ? POLLIN : 0), 0});
  // Model completions don't make a socket readable: the shards' notifier
  // writes wake_fd_, so a fulfilled response ends the wait at once.
  fds.push_back(pollfd{wake_fd_, POLLIN, 0});
  constexpr std::size_t kConnBase = 2;
  for (const Connection& conn : conns_) {
    short events = POLLIN;
    if (conn.out_pos < conn.out.size()) events |= POLLOUT;
    fds.push_back(pollfd{conn.fd, events, 0});
  }

  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready < 0 && errno != EINTR) {
    REPRO_LOG_WARN() << "serve.net poll(): " << std::strerror(errno);
    return 0;
  }
  if ((fds[1].revents & POLLIN) != 0) {
    std::uint64_t completions = 0;  // reset the counter; harvest below
    const ssize_t n = ::read(wake_fd_, &completions, sizeof completions);
    (void)n;
  }

  std::size_t work = 0;
  // Only the connections that were in the pollfd set have a revents
  // entry; those accept_ready() appends are polled from the next turn.
  const std::size_t polled = conns_.size();
  if ((fds[0].revents & POLLIN) != 0) work += accept_ready();
  for (std::size_t i = 0; i < polled; ++i) {
    Connection& conn = conns_[i];
    const short revents = fds[kConnBase + i].revents;
    if ((revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
      work += read_ready(conn);
    }
    work += harvest(conn);
    if (conn.out_pos < conn.out.size()) flush(conn);
  }
  reap_closed();
  return work;
}

std::size_t SocketServer::accept_ready() {
  std::size_t accepted = 0;
  while (conns_.size() < config_.max_connections) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: drained
    }
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    Connection conn;
    conn.fd = fd;
    conn.id = next_conn_id_++;
    conn.decoder = FrameDecoder(config_.max_payload);
    conns_.push_back(std::move(conn));

    observe::FlightEvent event;
    event.time = backend_.now();
    event.batch_id = conns_.back().id;
    event.kind = observe::EventKind::kConnOpened;
    backend_.frontend_recorder().record(event);

    opened_.fetch_add(1, std::memory_order_relaxed);
    open_.store(conns_.size(), std::memory_order_relaxed);
    NetStats::instance().conns_opened.add(1);
    NetStats::instance().connections_open.set(
        static_cast<double>(conns_.size()));
    ++accepted;
  }
  return accepted;
}

std::size_t SocketServer::read_ready(Connection& conn) {
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
      NetStats::instance().bytes_in.add(static_cast<std::uint64_t>(n));
      conn.decoder.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      conn.eof = true;  // half-close: finish pending replies, then reap
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn.dead = true;
    break;
  }
  return process_frames(conn);
}

std::size_t SocketServer::process_frames(Connection& conn) {
  std::size_t work = 0;
  Frame frame;
  while (!conn.closing && !conn.dead) {
    const DecodeStatus status = conn.decoder.next(frame);
    if (status == DecodeStatus::kNeedMore) break;
    if (status == DecodeStatus::kFrame) {
      handle_frame(conn, frame);
      ++work;
      continue;
    }
    // Framing error: byte sync with the peer is gone. One typed error
    // frame (request_id 0 — no request was decoded), then close.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    NetStats::instance().protocol_errors.add(1);
    send_error(conn, 0, "bad_request",
               std::string("framing error: ") + to_string(status));
    conn.closing = true;
    ++work;
  }
  return work;
}

void SocketServer::handle_frame(Connection& conn, const Frame& frame) {
  frames_in_.fetch_add(1, std::memory_order_relaxed);
  ++conn.frames_in;
  NetStats::instance().frames_in.add(1);
  NetStats::instance().frame_bytes.observe(
      static_cast<double>(frame.payload.size()));

  // The trace id is minted HERE, at frame decode — protocol-level
  // rejects that never reach submit() still get a timeline.
  const std::uint64_t trace_id = backend_.mint_trace_id();
  const double now = backend_.now();
  observe::FlightEvent event;
  event.time = now;
  event.request_id = trace_id;
  event.batch_id = conn.id;
  event.flows = clip_u32(frame.payload.size());
  event.kind = observe::EventKind::kFrameDecoded;
  backend_.frontend_recorder().record(event);

  if (frame.type != FrameType::kRequest) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    NetStats::instance().protocol_errors.add(1);
    send_error(conn, trace_id, "bad_request",
               "only request frames are accepted from clients");
    return;
  }

  std::string error;
  const std::optional<WireRequest> parsed =
      parse_request_payload(frame.payload, error);
  if (!parsed) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    NetStats::instance().protocol_errors.add(1);
    send_error(conn, trace_id, "bad_request", error);
    return;
  }

  GenerateRequest request = parsed->request;
  if (parsed->deadline_ms >= 0) {
    request.deadline = now + parsed->deadline_ms / 1000.0;
  }
  SubmitResult result = backend_.submit_traced(request, trace_id);
  if (!result.accepted) {
    send_error(conn, trace_id, to_string(result.reject),
               "admission refused");
    return;
  }
  conn.waiting.push_back(PendingReply{trace_id, std::move(result.response)});
}

std::size_t SocketServer::harvest(Connection& conn) {
  std::size_t sent = 0;
  for (std::size_t i = 0; i < conn.waiting.size();) {
    if (!future_ready(conn.waiting[i].response)) {
      ++i;
      continue;
    }
    const std::uint64_t trace_id = conn.waiting[i].trace_id;
    const std::size_t start = conn.out.size();
    const char* error = nullptr;
    std::string message;
    try {
      append_response_frame(conn.out, conn.waiting[i].response.get());
      if (conn.out.size() - start - kHeaderBytes > config_.max_payload) {
        error = "bad_request";
        message = "response exceeds the frame size limit";
      }
    } catch (const std::exception& e) {
      // get() rethrows what a failed model call stored in the future: a
      // typed error for this request, not the end of the server.
      error = kModelError;
      message = e.what();
    }
    if (error != nullptr) {
      // Roll back whatever was appended and answer with an error frame
      // the peer's decoder can accept.
      conn.out.resize(start);
      send_error(conn, trace_id, error, message);
    } else {
      note_frame_sent(conn, trace_id, conn.out.size() - start - kHeaderBytes);
    }
    conn.waiting.erase(conn.waiting.begin() +
                       static_cast<std::ptrdiff_t>(i));
    ++sent;
  }
  return sent;
}

void SocketServer::send_error(Connection& conn, std::uint64_t trace_id,
                              const char* error,
                              const std::string& message) {
  const std::size_t start = conn.out.size();
  append_error_frame(conn.out, trace_id, error, message);
  note_frame_sent(conn, trace_id, conn.out.size() - start - kHeaderBytes);
}

void SocketServer::note_frame_sent(Connection& conn, std::uint64_t trace_id,
                                   std::size_t payload_bytes) {
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  NetStats::instance().frames_out.add(1);
  NetStats::instance().frame_bytes.observe(
      static_cast<double>(payload_bytes));

  observe::FlightEvent event;
  event.time = backend_.now();
  event.request_id = trace_id;
  event.batch_id = conn.id;
  event.flows = clip_u32(payload_bytes);
  event.kind = observe::EventKind::kFrameSent;
  backend_.frontend_recorder().record(event);
}

void SocketServer::flush(Connection& conn) {
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_pos,
               conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<std::size_t>(n);
      bytes_out_.fetch_add(static_cast<std::uint64_t>(n),
                           std::memory_order_relaxed);
      NetStats::instance().bytes_out.add(static_cast<std::uint64_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    conn.dead = true;
    return;
  }
  conn.out.clear();
  conn.out_pos = 0;
}

void SocketServer::close_connection(Connection& conn) {
  if (conn.fd < 0) return;
  ::close(conn.fd);
  conn.fd = -1;

  observe::FlightEvent event;
  event.time = backend_.now();
  event.batch_id = conn.id;
  event.flows = clip_u32(conn.frames_in);
  event.kind = observe::EventKind::kConnClosed;
  backend_.frontend_recorder().record(event);

  closed_.fetch_add(1, std::memory_order_relaxed);
  NetStats::instance().conns_closed.add(1);
}

void SocketServer::reap_closed() {
  bool changed = false;
  for (std::size_t i = 0; i < conns_.size();) {
    Connection& conn = conns_[i];
    const bool flushed = conn.out_pos >= conn.out.size();
    const bool should_close =
        conn.dead || (conn.closing && flushed) ||
        (conn.eof && flushed && conn.waiting.empty());
    if (!should_close) {
      ++i;
      continue;
    }
    close_connection(conn);
    conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
    changed = true;
  }
  if (changed) {
    open_.store(conns_.size(), std::memory_order_relaxed);
    NetStats::instance().connections_open.set(
        static_cast<double>(conns_.size()));
  }
}

std::string SocketServer::health_fragment() const {
  JsonWriter json;
  json.begin_object();
  json.key("port");
  json.value(static_cast<std::uint64_t>(port_));
  json.key("open");
  json.value(static_cast<std::uint64_t>(
      open_.load(std::memory_order_relaxed)));
  json.key("opened");
  json.value(opened_.load(std::memory_order_relaxed));
  json.key("closed");
  json.value(closed_.load(std::memory_order_relaxed));
  json.key("frames_in");
  json.value(frames_in_.load(std::memory_order_relaxed));
  json.key("frames_out");
  json.value(frames_out_.load(std::memory_order_relaxed));
  json.key("protocol_errors");
  json.value(protocol_errors_.load(std::memory_order_relaxed));
  json.key("bytes_in");
  json.value(bytes_in_.load(std::memory_order_relaxed));
  json.key("bytes_out");
  json.value(bytes_out_.load(std::memory_order_relaxed));
  json.key("loop_turns");
  json.value(turns_.load(std::memory_order_relaxed));
  json.end_object();
  return std::move(json).str();
}

}  // namespace repro::serve::wire
