// Stateful connection tracker (netfilter-conntrack style): a TCP state
// machine that only accepts packets consistent with a properly
// established connection, plus UDP/ICMP pseudo-state.
//
// This is the strictest consumer of generated traces in the repository:
// a synthetic TCP flow is only "replayable" in the paper's sense if a
// stateful firewall accepts it — SYN first, three-way handshake in
// order, sequence numbers advancing consistently, FIN/RST teardown. The
// acceptance rate of generated traffic through this tracker is the
// repro's quantitative answer to §2.3's criticism that GAN output
// "cannot be reliably replayed to test network functions".
#pragma once

#include <cstdint>
#include <limits>
#include <map>

#include "net/flow.hpp"
#include "replay/engine.hpp"

namespace repro::replay {

/// TCP connection states (simplified netfilter model).
enum class TcpState {
  kNone,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait,    // one side sent FIN
  kClosed,     // both FINs (or RST) seen
};

struct ConntrackConfig {
  /// Drop packets that do not match an established/opening connection
  /// (strict firewall). When false, violations are counted but
  /// forwarded (monitor mode).
  bool enforce = true;
  /// Require in-window sequence progression for TCP data segments.
  bool check_sequence = true;
  /// Acceptable forward jump in sequence numbers (bytes) before a
  /// segment counts as a violation.
  std::uint32_t max_sequence_jump = 1 << 20;
  /// Idle timeout (seconds) after which a connection entry is recycled.
  /// Idle entries are also swept from the table, at most once per
  /// idle_timeout of trace time, so the table holds about two windows'
  /// worth of connections however long the trace runs.
  double idle_timeout = 300.0;
};

struct ConntrackStats {
  std::size_t tcp_packets = 0;
  std::size_t tcp_accepted = 0;
  std::size_t invalid_state = 0;     // e.g. data before handshake
  std::size_t invalid_sequence = 0;  // out-of-window segment
  std::size_t handshakes_completed = 0;
  std::size_t teardowns_completed = 0;
  std::size_t udp_packets = 0;
  std::size_t icmp_packets = 0;
  std::size_t connections_tracked = 0;

  double tcp_acceptance() const noexcept {
    return tcp_packets == 0 ? 1.0
                            : static_cast<double>(tcp_accepted) /
                                  static_cast<double>(tcp_packets);
  }
};

class ConntrackFunction : public NetworkFunction {
 public:
  explicit ConntrackFunction(ConntrackConfig config = ConntrackConfig{});

  std::string name() const override { return "conntrack"; }
  Verdict process(net::Packet& packet, double timestamp) override;

  const ConntrackStats& stats() const noexcept { return stats_; }

  /// State of the connection carrying `packet`'s 5-tuple (kNone if
  /// untracked).
  TcpState state_of(const net::Packet& packet) const;

  /// Connection entries currently in the table.
  std::size_t tracked() const noexcept { return table_.size(); }

 private:
  struct Entry {
    TcpState state = TcpState::kNone;
    // Endpoint A is the canonical-key source; we track per-direction
    // next expected sequence numbers.
    std::uint32_t next_seq_a = 0;
    std::uint32_t next_seq_b = 0;
    bool has_seq_a = false;
    bool has_seq_b = false;
    bool fin_a = false;
    bool fin_b = false;
    double last_seen = 0.0;
  };

  Verdict process_tcp(net::Packet& packet, double timestamp);
  /// Erases every entry idle for more than idle_timeout at `now`.
  void sweep_idle(double now);

  ConntrackConfig config_;
  ConntrackStats stats_;
  std::map<net::FlowKey, Entry> table_;
  /// Trace time of the next idle sweep (-inf: the first packet sweeps).
  double next_sweep_ = -std::numeric_limits<double>::infinity();
};

}  // namespace repro::replay
