#include "replay/conntrack.hpp"

namespace repro::replay {
namespace {

/// Sequence-number distance a - b interpreted modulo 2^32.
std::int64_t seq_delta(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b);
}

}  // namespace

ConntrackFunction::ConntrackFunction(ConntrackConfig config)
    : config_(config) {}

TcpState ConntrackFunction::state_of(const net::Packet& packet) const {
  const auto it = table_.find(net::FlowKey::from_packet(packet).canonical());
  return it == table_.end() ? TcpState::kNone : it->second.state;
}

Verdict ConntrackFunction::process(net::Packet& packet, double timestamp) {
  if (timestamp >= next_sweep_) {
    sweep_idle(timestamp);
    next_sweep_ = timestamp + config_.idle_timeout;
  }
  switch (packet.ip.protocol) {
    case net::IpProto::kTcp:
      return process_tcp(packet, timestamp);
    case net::IpProto::kUdp:
      ++stats_.udp_packets;
      return Verdict::kForward;
    case net::IpProto::kIcmp:
      ++stats_.icmp_packets;
      return Verdict::kForward;
  }
  return Verdict::kForward;
}

void ConntrackFunction::sweep_idle(double now) {
  // Exactly the entries the idle clause of process_tcp's lookup would
  // recycle: on a trace in time order (ReplayEngine sorts it), a later
  // packet of a swept 5-tuple would have found it idle too, so no
  // verdict changes — the table just stops growing with the trace.
  std::erase_if(table_, [&](const auto& item) {
    return now - item.second.last_seen > config_.idle_timeout;
  });
}

Verdict ConntrackFunction::process_tcp(net::Packet& packet,
                                       double timestamp) {
  ++stats_.tcp_packets;
  if (!packet.tcp) {
    ++stats_.invalid_state;
    return config_.enforce ? Verdict::kDrop : Verdict::kForward;
  }
  const net::TcpHeader& tcp = *packet.tcp;
  const net::FlowKey raw = net::FlowKey::from_packet(packet);
  const net::FlowKey key = raw.canonical();
  // Direction A = packet whose source equals the canonical key's source.
  const bool from_a =
      raw.src_addr == key.src_addr && raw.src_port == key.src_port;

  // An idle entry is recycled, and so is a closed one that a bare SYN
  // reuses: as Linux conntrack after TIME_WAIT, the SYN opens anew.
  const bool bare_syn = tcp.syn && !tcp.ack_flag;
  auto it = table_.find(key);
  if (it != table_.end() &&
      (timestamp - it->second.last_seen > config_.idle_timeout ||
       (bare_syn && it->second.state == TcpState::kClosed))) {
    table_.erase(it);
    it = table_.end();
  }

  auto accept = [&](Entry& entry) {
    entry.last_seen = timestamp;
    ++stats_.tcp_accepted;
    return Verdict::kForward;
  };
  auto reject = [&](std::size_t& counter) {
    ++counter;
    return config_.enforce ? Verdict::kDrop : Verdict::kForward;
  };

  if (it == table_.end()) {
    // Only a bare SYN may open a connection.
    if (!bare_syn) {
      return reject(stats_.invalid_state);
    }
    Entry entry;
    entry.state = TcpState::kSynSent;
    entry.last_seen = timestamp;
    if (from_a) {
      entry.next_seq_a = tcp.seq + 1;
      entry.has_seq_a = true;
    } else {
      entry.next_seq_b = tcp.seq + 1;
      entry.has_seq_b = true;
    }
    ++stats_.connections_tracked;
    auto [pos, inserted] = table_.emplace(key, entry);
    (void)inserted;
    ++stats_.tcp_accepted;
    return Verdict::kForward;
  }

  Entry& entry = it->second;
  std::uint32_t& next_seq_self = from_a ? entry.next_seq_a : entry.next_seq_b;
  bool& has_seq_self = from_a ? entry.has_seq_a : entry.has_seq_b;
  bool& fin_self = from_a ? entry.fin_a : entry.fin_b;

  // RST tears the connection down from any state.
  if (tcp.rst) {
    entry.state = TcpState::kClosed;
    return accept(entry);
  }

  switch (entry.state) {
    case TcpState::kNone:
      return reject(stats_.invalid_state);
    case TcpState::kSynSent: {
      // Expect SYN-ACK from the peer (the side without a recorded seq).
      if (tcp.syn && tcp.ack_flag && !has_seq_self) {
        next_seq_self = tcp.seq + 1;
        has_seq_self = true;
        entry.state = TcpState::kSynReceived;
        return accept(entry);
      }
      // SYN retransmission from the opener is tolerated.
      if (tcp.syn && !tcp.ack_flag && has_seq_self) {
        return accept(entry);
      }
      return reject(stats_.invalid_state);
    }
    case TcpState::kSynReceived: {
      // The handshake ACK completes establishment.
      if (!tcp.syn && tcp.ack_flag) {
        entry.state = TcpState::kEstablished;
        ++stats_.handshakes_completed;
        return accept(entry);
      }
      if (tcp.syn) {  // retransmitted SYN-ACK
        return accept(entry);
      }
      return reject(stats_.invalid_state);
    }
    case TcpState::kEstablished:
    case TcpState::kFinWait: {
      if (tcp.syn) {
        return reject(stats_.invalid_state);
      }
      if (config_.check_sequence && has_seq_self) {
        const std::int64_t delta = seq_delta(tcp.seq, next_seq_self);
        if (delta < 0 ||
            delta > static_cast<std::int64_t>(config_.max_sequence_jump)) {
          return reject(stats_.invalid_sequence);
        }
      }
      next_seq_self = tcp.seq + static_cast<std::uint32_t>(
                                    packet.payload.size()) +
                      (tcp.fin ? 1 : 0);
      has_seq_self = true;
      if (tcp.fin) {
        fin_self = true;
        if (entry.fin_a && entry.fin_b) {
          entry.state = TcpState::kClosed;
          ++stats_.teardowns_completed;
        } else {
          entry.state = TcpState::kFinWait;
        }
      }
      return accept(entry);
    }
    case TcpState::kClosed: {
      // Only the final ACK of the teardown is still legitimate.
      if (!tcp.syn && !tcp.fin && tcp.ack_flag) {
        return accept(entry);
      }
      return reject(stats_.invalid_state);
    }
  }
  return reject(stats_.invalid_state);
}

}  // namespace repro::replay
