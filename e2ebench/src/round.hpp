// One round of emission: a FlowSource feeds OpenLoopEmitter on the
// virtual pacer, and every packet lands in a tee of an in-memory
// PcapSink and a fresh ChainSink (conntrack -> source NAT). Both
// workloads are made of such rounds; between rounds the clock stops and
// the round's output is checked, so memory stays bounded by one round.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "checks.hpp"
#include "replay/conntrack.hpp"
#include "replay/emit/source.hpp"

namespace e2e {

/// Benchmark-side timers, armed only in traced rounds (null otherwise).
/// They wrap calls into the layers' public APIs; nothing inside the
/// program is timed here.
struct LayerTimers {
  double send = 0.0;      ///< BlockingClient::send
  double read = 0.0;      ///< BlockingClient::read_reply (wait + decode)
  double parse = 0.0;     ///< reply bytes -> net::Packet
  double source = 0.0;    ///< FlowSource::next_flow
  double pcap = 0.0;      ///< PcapSink::emit
  double chain = 0.0;     ///< ChainSink::emit
  double emit_run = 0.0;  ///< OpenLoopEmitter::run
  std::uint64_t requests = 0;
};

struct RoundResult {
  repro::replay::emit::EmitReport emit;
  repro::replay::ReplayReport chain;
  repro::replay::ConntrackStats conntrack;
  std::size_t nat_rewrites = 0;
  /// The round's pcap image, in a buffer that the next run_round
  /// overwrites.
  std::string_view pcap;
  double wall = 0.0;
  double cpu = 0.0;
};

/// Public address the source NAT masquerades private clients behind.
inline constexpr std::uint32_t kNatAddress = 0xC6336401u;  // 198.51.100.1

/// Emits exactly `flows` flows from `source` (each arrival blocks in the
/// source until its flow is ready, so no arrival underruns) and times
/// the whole round, sink and emitter construction included.
RoundResult run_round(repro::replay::emit::FlowSource& source,
                      std::uint64_t flows, std::uint64_t seed,
                      LayerTimers* timers);

/// Emitter conservation, the pcap re-parse, and chain accounting.
Errors check_round(const RoundResult& round);

/// replay-chain's job checks on ground-truth input: strict conntrack
/// accepts every TCP packet, completes one handshake per TCP session,
/// and the NAT rewrites exactly the packets with a private source.
Errors check_chain_job(const RoundResult& round, std::size_t tcp_sessions,
                       std::size_t private_source_packets);

}  // namespace e2e
