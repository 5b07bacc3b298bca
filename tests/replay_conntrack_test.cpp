#include "replay/conntrack.hpp"

#include <gtest/gtest.h>

#include "diffusion/constraint.hpp"
#include "flowgen/generator.hpp"
#include "flowgen/tcp_session.hpp"

namespace repro::replay {
namespace {

/// Feeds a whole flow through the tracker, returning the number of
/// accepted packets.
std::size_t feed(ConntrackFunction& tracker, const net::Flow& flow) {
  std::size_t accepted = 0;
  for (const auto& src : flow.packets) {
    net::Packet pkt = src;
    if (tracker.process(pkt, pkt.timestamp) == Verdict::kForward) {
      ++accepted;
    }
  }
  return accepted;
}

net::Flow tcp_flow(std::size_t packets, std::uint64_t seed = 1) {
  Rng rng(seed);
  return flowgen::generate_tcp_flow(
      flowgen::app_profile(flowgen::App::kNetflix),
      flowgen::Endpoints{0x0A000001, 0x0D000001, 50000, 443}, packets, rng);
}

TEST(Conntrack, AcceptsWellFormedTcpSession) {
  ConntrackFunction tracker;
  const net::Flow flow = tcp_flow(30);
  const std::size_t accepted = feed(tracker, flow);
  EXPECT_EQ(accepted, flow.packets.size());
  EXPECT_DOUBLE_EQ(tracker.stats().tcp_acceptance(), 1.0);
  EXPECT_EQ(tracker.stats().handshakes_completed, 1u);
  EXPECT_EQ(tracker.stats().teardowns_completed, 1u);
}

TEST(Conntrack, AcceptsEveryGeneratedAppTcpFlow) {
  // Property: the flowgen TCP state machine always satisfies a strict
  // stateful firewall, for every app profile.
  for (int app = 0; app < 11; ++app) {
    const auto& profile = flowgen::app_profile(static_cast<std::size_t>(app));
    if (profile.p_tcp < 0.05) continue;
    Rng rng(static_cast<std::uint64_t>(100 + app));
    const net::Flow flow = flowgen::generate_tcp_flow(
        profile, flowgen::Endpoints{0x0A000001, 0x0D000001, 44444, 443}, 24,
        rng);
    ConntrackFunction tracker;
    EXPECT_EQ(feed(tracker, flow), flow.packets.size()) << profile.name;
  }
}

TEST(Conntrack, DropsDataBeforeHandshake) {
  ConntrackFunction tracker;
  net::Packet data = net::make_tcp_packet(1, 2, 1000, 443, 100, 0.0);
  data.tcp->ack_flag = true;
  EXPECT_EQ(tracker.process(data, 0.0), Verdict::kDrop);
  EXPECT_EQ(tracker.stats().invalid_state, 1u);
}

TEST(Conntrack, DropsSynAckWithoutSyn) {
  ConntrackFunction tracker;
  net::Packet synack = net::make_tcp_packet(2, 1, 443, 1000, 0, 0.0);
  synack.tcp->syn = true;
  synack.tcp->ack_flag = true;
  EXPECT_EQ(tracker.process(synack, 0.0), Verdict::kDrop);
}

TEST(Conntrack, DropsOutOfWindowSequence) {
  ConntrackFunction tracker;
  net::Flow flow = tcp_flow(20);
  // Corrupt a mid-stream data segment's sequence number wildly.
  for (std::size_t i = 4; i < flow.packets.size(); ++i) {
    auto& pkt = flow.packets[i];
    if (!pkt.tcp->syn && !pkt.tcp->fin && !pkt.payload.empty()) {
      pkt.tcp->seq += 0x40000000;
      break;
    }
  }
  const std::size_t accepted = feed(tracker, flow);
  EXPECT_LT(accepted, flow.packets.size());
  EXPECT_GE(tracker.stats().invalid_sequence, 1u);
}

TEST(Conntrack, MonitorModeForwardsButCounts) {
  ConntrackConfig config;
  config.enforce = false;
  ConntrackFunction tracker(config);
  net::Packet data = net::make_tcp_packet(1, 2, 1000, 443, 100, 0.0);
  data.tcp->ack_flag = true;
  EXPECT_EQ(tracker.process(data, 0.0), Verdict::kForward);
  EXPECT_EQ(tracker.stats().invalid_state, 1u);
}

TEST(Conntrack, RstClosesConnection) {
  ConntrackFunction tracker;
  net::Flow flow = tcp_flow(20);
  // Handshake.
  for (int i = 0; i < 3; ++i) {
    net::Packet pkt = flow.packets[static_cast<std::size_t>(i)];
    EXPECT_EQ(tracker.process(pkt, pkt.timestamp), Verdict::kForward);
  }
  net::Packet rst = flow.packets[3];
  rst.tcp->rst = true;
  rst.tcp->syn = false;
  rst.tcp->fin = false;
  EXPECT_EQ(tracker.process(rst, rst.timestamp), Verdict::kForward);
  EXPECT_EQ(tracker.state_of(rst), TcpState::kClosed);
  // Fresh data on the closed connection is invalid.
  net::Packet after = flow.packets[4];
  after.tcp->syn = false;
  after.tcp->fin = false;
  after.tcp->ack_flag = false;
  EXPECT_EQ(tracker.process(after, after.timestamp), Verdict::kDrop);
}

TEST(Conntrack, StateProgression) {
  ConntrackFunction tracker;
  const net::Flow flow = tcp_flow(24);
  net::Packet probe = flow.packets[0];
  EXPECT_EQ(tracker.state_of(probe), TcpState::kNone);
  net::Packet syn = flow.packets[0];
  tracker.process(syn, 0.0);
  EXPECT_EQ(tracker.state_of(probe), TcpState::kSynSent);
  net::Packet synack = flow.packets[1];
  tracker.process(synack, 0.0);
  EXPECT_EQ(tracker.state_of(probe), TcpState::kSynReceived);
  net::Packet ack = flow.packets[2];
  tracker.process(ack, 0.0);
  EXPECT_EQ(tracker.state_of(probe), TcpState::kEstablished);
}

TEST(Conntrack, IdleTimeoutRecyclesEntries) {
  ConntrackConfig config;
  config.idle_timeout = 10.0;
  ConntrackFunction tracker(config);
  const net::Flow flow = tcp_flow(24);
  net::Packet syn = flow.packets[0];
  tracker.process(syn, 0.0);
  // After the timeout, a new SYN on the same tuple re-opens cleanly.
  net::Packet syn2 = flow.packets[0];
  EXPECT_EQ(tracker.process(syn2, 100.0), Verdict::kForward);
  EXPECT_EQ(tracker.state_of(syn2), TcpState::kSynSent);
  EXPECT_EQ(tracker.stats().connections_tracked, 2u);
}

TEST(Conntrack, SynReopensClosedTuple) {
  // A finished session replayed on the same 5-tuple: the second SYN
  // finds a kClosed entry and opens a new connection, as Linux conntrack
  // does after TIME_WAIT, instead of being dropped until idle_timeout.
  ConntrackFunction tracker;
  const net::Flow flow = tcp_flow(12);
  ASSERT_EQ(flow.packets.size(), 12u);
  EXPECT_EQ(feed(tracker, flow), 12u);
  EXPECT_EQ(tracker.state_of(flow.packets.back()), TcpState::kClosed);
  EXPECT_EQ(feed(tracker, flow), 12u);
  EXPECT_EQ(tracker.stats().connections_tracked, 2u);
  EXPECT_EQ(tracker.stats().teardowns_completed, 2u);
}

TEST(Conntrack, UdpAndIcmpPassStateless) {
  ConntrackFunction tracker;
  net::Packet udp = net::make_udp_packet(1, 2, 3, 4, 8, 0.0);
  net::Packet icmp = net::make_icmp_packet(1, 2, 8, 0, 8, 0.0);
  EXPECT_EQ(tracker.process(udp, 0.0), Verdict::kForward);
  EXPECT_EQ(tracker.process(icmp, 0.0), Verdict::kForward);
  EXPECT_EQ(tracker.stats().udp_packets, 1u);
  EXPECT_EQ(tracker.stats().icmp_packets, 1u);
  EXPECT_EQ(tracker.stats().tcp_packets, 0u);
}

TEST(Conntrack, InterleavedConnectionsTrackIndependently) {
  ConntrackFunction tracker;
  const net::Flow a = tcp_flow(16, 7);
  Rng rng(8);
  const net::Flow b = flowgen::generate_tcp_flow(
      flowgen::app_profile(flowgen::App::kTwitch),
      flowgen::Endpoints{0x0A000002, 0x0D000002, 50001, 443}, 16, rng);
  // Interleave packet by packet.
  std::size_t accepted = 0, total = 0;
  for (std::size_t i = 0; i < std::max(a.packets.size(), b.packets.size());
       ++i) {
    for (const net::Flow* flow : {&a, &b}) {
      if (i >= flow->packets.size()) continue;
      net::Packet pkt = flow->packets[i];
      ++total;
      if (tracker.process(pkt, pkt.timestamp) == Verdict::kForward) {
        ++accepted;
      }
    }
  }
  EXPECT_EQ(accepted, total);
  EXPECT_EQ(tracker.stats().handshakes_completed, 2u);
}

TEST(Conntrack, AcceptsStatefulRepairedScrambledFlow) {
  // The diffusion extension's promise: any TCP flow run through
  // enforce_tcp_state passes the strict firewall in full.
  Rng rng(55);
  const net::Flow tmpl =
      flowgen::generate_flow(flowgen::App::kNetflix, 20, rng);
  net::Flow garbage;
  for (std::size_t i = 0; i < 20; ++i) {
    net::Packet pkt = net::make_tcp_packet(
        0xC0A80005, 0x0D0D0D01, 50123, 443,
        static_cast<std::size_t>(rng.uniform_int(0, 900)), static_cast<double>(i) * 0.01);
    pkt.tcp->seq = static_cast<std::uint32_t>(rng.next_u64());
    pkt.tcp->syn = rng.bernoulli(0.4);
    pkt.tcp->fin = rng.bernoulli(0.4);
    garbage.packets.push_back(std::move(pkt));
  }
  const net::Flow fixed = diffusion::enforce_tcp_state(garbage, tmpl);
  ConntrackFunction tracker;
  EXPECT_EQ(feed(tracker, fixed), fixed.packets.size());
  EXPECT_EQ(tracker.stats().handshakes_completed, 1u);
}

TEST(Conntrack, AcceptanceStatsOnEmptyTraffic) {
  ConntrackFunction tracker;
  EXPECT_DOUBLE_EQ(tracker.stats().tcp_acceptance(), 1.0);
}

// --- Teardown edges the open-loop emitter exercises at rate ----------------

TEST(Conntrack, RstAfterFinClosesImmediately) {
  // One side FINs (kFinWait), then the peer aborts with RST instead of
  // finishing the orderly teardown — common when an application closes
  // with unread data. The RST must be accepted and close the entry; the
  // orphaned final ACK of the half-finished teardown stays legitimate,
  // but fresh data must not.
  ConntrackFunction tracker;
  const net::Flow flow = tcp_flow(20);
  // Handshake.
  for (int i = 0; i < 3; ++i) {
    net::Packet pkt = flow.packets[static_cast<std::size_t>(i)];
    ASSERT_EQ(tracker.process(pkt, pkt.timestamp), Verdict::kForward);
  }
  // Client FIN -> kFinWait. After the handshake the tracker expects the
  // client's next segment at SYN.seq + 1.
  const double t0 = flow.packets[2].timestamp;
  net::Packet fin = net::make_tcp_packet(0x0A000001, 0x0D000001, 50000, 443,
                                         0, t0 + 0.001);
  fin.tcp->fin = true;
  fin.tcp->ack_flag = true;
  fin.tcp->seq = flow.packets[0].tcp->seq + 1;
  ASSERT_EQ(tracker.process(fin, fin.timestamp), Verdict::kForward);
  EXPECT_EQ(tracker.state_of(fin), TcpState::kFinWait);
  // Server aborts with RST from kFinWait.
  net::Packet rst = net::make_tcp_packet(0x0D000001, 0x0A000001, 443, 50000,
                                         0, fin.timestamp + 0.001);
  rst.tcp->rst = true;
  EXPECT_EQ(tracker.process(rst, rst.timestamp), Verdict::kForward);
  EXPECT_EQ(tracker.state_of(rst), TcpState::kClosed);
  // The straggling pure ACK is tolerated...
  net::Packet ack = net::make_tcp_packet(0x0A000001, 0x0D000001, 50000, 443,
                                         0, rst.timestamp + 0.001);
  ack.tcp->ack_flag = true;
  EXPECT_EQ(tracker.process(ack, ack.timestamp), Verdict::kForward);
  // ...but new data on the aborted connection is not.
  net::Packet data = net::make_tcp_packet(0x0A000001, 0x0D000001, 50000, 443,
                                          64, rst.timestamp + 0.002);
  EXPECT_EQ(tracker.process(data, data.timestamp), Verdict::kDrop);
}

TEST(Conntrack, SimultaneousCloseCompletesTeardown) {
  // Both sides FIN before seeing the other's FIN (simultaneous close).
  // The second FIN must complete the teardown, and both final ACKs must
  // still be accepted in kClosed.
  ConntrackFunction tracker;
  const net::Flow flow = tcp_flow(20);
  for (int i = 0; i < 3; ++i) {
    net::Packet pkt = flow.packets[static_cast<std::size_t>(i)];
    ASSERT_EQ(tracker.process(pkt, pkt.timestamp), Verdict::kForward);
  }
  const double t0 = flow.packets[2].timestamp;
  // Client FIN at the client's expected next sequence (SYN.seq + 1 —
  // the handshake ACK does not consume sequence space).
  net::Packet fin_a = net::make_tcp_packet(0x0A000001, 0x0D000001, 50000, 443,
                                           0, t0 + 0.001);
  fin_a.tcp->fin = true;
  fin_a.tcp->ack_flag = true;
  fin_a.tcp->seq = flow.packets[0].tcp->seq + 1;
  ASSERT_EQ(tracker.process(fin_a, fin_a.timestamp), Verdict::kForward);
  EXPECT_EQ(tracker.state_of(fin_a), TcpState::kFinWait);
  // Server FIN crosses in flight (no ACK of the client FIN yet), at the
  // server's expected next sequence (SYN-ACK.seq + 1).
  net::Packet fin_b = net::make_tcp_packet(0x0D000001, 0x0A000001, 443, 50000,
                                           0, t0 + 0.002);
  fin_b.tcp->fin = true;
  fin_b.tcp->ack_flag = true;
  fin_b.tcp->seq = flow.packets[1].tcp->seq + 1;
  EXPECT_EQ(tracker.process(fin_b, fin_b.timestamp), Verdict::kForward);
  EXPECT_EQ(tracker.state_of(fin_b), TcpState::kClosed);
  EXPECT_EQ(tracker.stats().teardowns_completed, 1u);
  // Both directions' closing ACKs are still legitimate in kClosed.
  net::Packet ack_a = net::make_tcp_packet(0x0A000001, 0x0D000001, 50000, 443,
                                           0, t0 + 0.003);
  ack_a.tcp->ack_flag = true;
  net::Packet ack_b = net::make_tcp_packet(0x0D000001, 0x0A000001, 443, 50000,
                                           0, t0 + 0.004);
  ack_b.tcp->ack_flag = true;
  EXPECT_EQ(tracker.process(ack_a, ack_a.timestamp), Verdict::kForward);
  EXPECT_EQ(tracker.process(ack_b, ack_b.timestamp), Verdict::kForward);
  EXPECT_DOUBLE_EQ(tracker.stats().tcp_acceptance(), 1.0);
}

TEST(Conntrack, SynRetransmitInSynSentIsTolerated) {
  // A lossy client retransmits its SYN before the SYN-ACK arrives. The
  // duplicate must be accepted without disturbing the opening state,
  // and the handshake must then complete normally.
  ConntrackFunction tracker;
  const net::Flow flow = tcp_flow(20);
  net::Packet syn = flow.packets[0];
  ASSERT_EQ(tracker.process(syn, syn.timestamp), Verdict::kForward);
  EXPECT_EQ(tracker.state_of(syn), TcpState::kSynSent);
  // Retransmitted SYN: same segment, slightly later.
  net::Packet syn_rtx = flow.packets[0];
  EXPECT_EQ(tracker.process(syn_rtx, syn.timestamp + 0.2), Verdict::kForward);
  EXPECT_EQ(tracker.state_of(syn_rtx), TcpState::kSynSent);
  EXPECT_EQ(tracker.stats().invalid_state, 0u);
  // A duplicate SYN from the *peer* direction is not an opener
  // retransmission and must be rejected (SYN-ACK is the only legal
  // peer segment here).
  net::Packet bogus = net::make_tcp_packet(0x0D000001, 0x0A000001, 443, 50000,
                                           0, syn.timestamp + 0.25);
  bogus.tcp->syn = true;
  EXPECT_EQ(tracker.process(bogus, bogus.timestamp), Verdict::kDrop);
  // Handshake still completes.
  net::Packet synack = flow.packets[1];
  net::Packet ack = flow.packets[2];
  EXPECT_EQ(tracker.process(synack, syn.timestamp + 0.3), Verdict::kForward);
  EXPECT_EQ(tracker.process(ack, syn.timestamp + 0.31), Verdict::kForward);
  EXPECT_EQ(tracker.state_of(ack), TcpState::kEstablished);
  EXPECT_EQ(tracker.stats().handshakes_completed, 1u);
}

}  // namespace
}  // namespace repro::replay
